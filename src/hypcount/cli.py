"""Command-line surface.

Subcommands: series (named q-series), fgk (one multiplicity profile),
genus (aggregated count report), orbits (translation-orbit table), verify
(identity suites), cache (named-form JSON store).  Exit codes: 0 success,
1 verification failure, 2 usage error or a file that cannot be read or
written.  Each cmd_* validates its input and returns (text, exit code),
where text is a string or, for the genus JSON listing and every orbits
layout, pieces built one orbit class at a time from a list enumerated
before the command returns; main() alone writes it, with one writelines to
--out or stdout, and turns errors into an ``error: <msg>`` line.  A stdout
closed early (``| head``) is no error: the rest is dropped, the code stays.

Configuration precedence is flags > environment > defaults; the recognized
environment variables are HYPCOUNT_ORDER and HYPCOUNT_CACHE_DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from itertools import chain

from .errors import DomainError, HypcountError
from . import SUITES, counting, kummer, qforms

DEFAULT_ORDER = 32

# Largest genus per `genus` layout.  The aggregate layouts count orbit
# classes per shape, and their cost is one f_gk per shape: genus_total(g, 32)
# took 0.45 s at g = 12 (1,659 shapes) on a 2-vCPU x86-64 VM with
# Python 3.11, growing about 1.5x per genus (2.1 s at g = 16).  JSON lists
# every orbit class by enumeration, and the class count grows about 4x per
# genus (9,116 at g = 6, 35,884 at g = 7).  Rows are built as written, so
# `genus --g 7 --format json` (28.9 MB of text) took 1.3-1.9 s and 25 MB
# peak RSS end to end on a 2-vCPU VM.  GENUS_MAX_LISTED bounds both
# listings: `orbits` takes degrees up to 2 * 7 + 2 = 16, which took 0.8-1.3 s
# and 25 MB in each layout; degree 18 (124,236 classes) took 4-5 s and 49 MB.
GENUS_MAX = 12
GENUS_MAX_LISTED = 7

# Largest truncation order.  `cache --action write` builds every named form;
# in a fresh process on the same VM it took 0.32 s at order 1024, 0.86 s at
# 2048, 3.2 s at 4096, 12 s at 8192 (31 MB) and 57 s at 16384 (56 MB),
# about 4x per doubling.  Past the limit a command would run for minutes
# instead of failing at once.
ORDER_MAX = 8192


_encode_str = json.encoder.encode_basestring_ascii


def _json_pieces(obj, nl=None):
    """The canonical JSON text of obj, in pieces, so that no caller holds it
    whole: byte for byte what the stdlib's json.dumps writes with sorted
    keys, an indent of 2 and (",", ": ") separators, plus a final newline.

    An iterator stands for the list of its items and is read one item at a
    time.  A list of only str or only int (never bool) is encoded in one
    C-level join; each element of any other list or iterator is one piece.
    Nothing is kept between pieces."""
    if nl is None:  # the whole document: its text, then a final newline
        yield from _json_pieces(obj, "\n")
        yield "\n"
        return
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        sep = "{" + inner
        for key in sorted(obj):
            value = obj[key]
            head = sep + _encode_str(key) + ": "
            if type(value) is str:
                yield head + _encode_str(value)
            elif type(value) is int:
                yield head + str(value)
            else:
                yield head
                yield from _json_pieces(value, inner)
            sep = "," + inner
        yield nl + "}"
    elif isinstance(obj, (list, tuple, Iterator)):
        kinds = set(map(type, obj)) if isinstance(obj, (list, tuple)) else None
        if kinds == {str} or kinds == {int}:
            encode = _encode_str if kinds == {str} else str
            yield "[" + inner + ("," + inner).join(map(encode, obj)) + nl + "]"
            return
        sep = "[" + inner
        for x in obj:
            yield sep + "".join(_json_pieces(x, inner))
            sep = "," + inner
        yield "[]" if sep[0] == "[" else nl + "]"  # still "[": no item was met
    else:
        yield json.dumps(obj)  # str, int, None, bools and any other scalar


def _canonical_json(data) -> str:
    return "".join(_json_pieces(data))


def _env_order() -> int:
    raw = os.environ.get("HYPCOUNT_ORDER")
    if raw is None:
        return DEFAULT_ORDER
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"HYPCOUNT_ORDER must be an integer, got {raw!r}")


def _series_csv(series, var="q") -> str:
    rows = [f"{n},{c}" for n, c in enumerate(series.to_json()["coeffs"])]
    return "\n".join([f"{var}^n,coefficient", *rows]) + "\n"


def cmd_series(args) -> tuple:
    form = qforms.named_form(args.name, k=args.k, order=args.order)
    if args.format == "json":
        return _canonical_json(form.to_json()), 0
    if args.format == "csv":
        return _series_csv(form.series), 0
    return form.series.format() + "\n", 0


def _parse_profile(raw: str):
    try:
        values = tuple(int(tok) for tok in raw.replace(" ", "").split(","))
    except ValueError:
        raise DomainError(f"profile must be 16 comma-separated integers, got {raw!r}")
    if len(values) != 16:
        raise DomainError(f"profile must list 16 values, got {len(values)}")
    return values


def cmd_fgk(args) -> tuple:
    config = _parse_profile(args.config)
    result = counting.f_gk(config, args.order)
    if args.format == "json":
        return _canonical_json(result.to_json()), 0
    if args.format == "csv":
        return _series_csv(result.series, var="u"), 0
    lines = [
        f"profile : {','.join(str(v) for v in config)}",
        f"total   : {sum(config)} (geometric genus {(sum(config) - 2) // 2})",
        f"coset   : {result.coset or 'none (inadmissible; series is 0)'}",
        f"shape   : {result.shape if result.coset else '0'}",
    ]
    if result.coset:
        lines.append(f"min h   : {counting.min_arith_genus(config)}")
    lines.append(f"series  : {result.series.format(var='u')}")
    lines.append("   n (=h-1)  h     count")
    for n, c in enumerate(result.series.coeffs):
        if c:
            lines.append(f"   {n:<9} {n + 1:<5} {c}")
    return "\n".join(lines) + "\n", 0


def _table_cells(report, mult_title: str) -> list:
    """The header row, then the cells of each table_rows() row as strings;
    a zero coefficient is an empty cell."""
    header = ["shape", mult_title] + [f"q^{n}" for n in range(2, report.order + 1)]
    return [header] + [
        [shape, "" if mult is None else str(mult)] + [str(c) if c else "" for c in coeffs]
        for shape, mult, coeffs in report.table_rows()
    ]


def _report_table_text(report) -> str:
    header, *cells = _table_cells(report, "mult")
    widths = [max(4, *map(len, column)) for column in zip(header, *cells)]

    def line(row):
        first = row[0].ljust(widths[0])
        rest = "  ".join(c.rjust(w) for c, w in zip(row[1:], widths[1:]))
        return f"{first}  {rest}"

    return "\n".join([line(header)] + [line(row) for row in cells]) + "\n"


def cmd_genus(args) -> tuple:
    if args.format == "json" and not 1 <= args.g <= GENUS_MAX_LISTED:
        raise DomainError(f"genus must be between 1 and {GENUS_MAX_LISTED} with --format json")
    if not 1 <= args.g <= GENUS_MAX:
        raise DomainError(f"genus must be between 1 and {GENUS_MAX}")
    report = counting.genus_total(args.g, args.order)
    if args.format == "json":
        return _json_pieces(report.listing()), 0
    if args.format == "csv":
        cells = _table_cells(report, "multiplicity")
        return "\n".join(",".join(row) for row in cells) + "\n", 0
    if args.table:
        return _report_table_text(report), 0
    lines = [
        f"genus {args.g}: {sum(report.shape_multiplicities().values())} orbit classes, "
        f"degree {2 * args.g + 2}, order {args.order}",
    ]
    for shape, mult in sorted(report.shape_multiplicities().items()):
        lines.append(f"  {mult} x {shape}")
    lines.append(f"total: {report.total.format(var='u')}")
    return "\n".join(lines) + "\n", 0


def cmd_orbits(args) -> tuple:
    if args.degree > 2 * GENUS_MAX_LISTED + 2:
        raise DomainError(f"degree must be <= {2 * GENUS_MAX_LISTED + 2}")
    orbits = kummer.translation_orbits(args.degree)
    rows = counting._orbit_rows(orbits)
    if args.format == "json":
        return _json_pieces(rows), 0
    if args.format == "csv":
        head, rep_sep = "rep,orbit_size,coset,shape", " "
        layout = "{},{orbit_size},{coset},{shape}"
    else:
        head, rep_sep = f"degree {args.degree}: {len(orbits)} orbit classes", ","
        layout = "  [{}] size {orbit_size:>2} {coset:<5} {shape}"
    lines = (layout.format(rep_sep.join(map(str, row["rep"])), **row) + "\n" for row in rows)
    return chain([head + "\n"], lines), 0


def cmd_verify(args) -> tuple:
    from . import verify  # only this command needs the check suites

    results, ok = verify.run_suite([args.suite], args.order)
    return verify.format_results(results) + "\n", 0 if ok else 1


CACHE_ROSTER = (
    [("A", k) for k in range(0, 6)]
    + [("C", k) for k in range(0, 6)]
    + [(name, None) for name in qforms.UNINDEXED_FORMS]
)


def _load_cached(stored: str):
    """(data, recomputed form) of one cache file's text; a ValueError says
    why the file is not a valid cache entry."""
    try:
        data = json.loads(stored)
    except ValueError as exc:
        raise ValueError(f"not JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError("not a JSON object")
    for key in ("name", "params", "order", "coeffs"):
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    params, order = data["params"], data["order"]
    if not (isinstance(params, list) and len(params) <= 1
            and all(type(p) is int for p in params)):
        raise ValueError("params must be a list of at most one integer")
    if type(order) is not int or not 0 <= order <= ORDER_MAX:
        raise ValueError(f"order must be an integer between 0 and {ORDER_MAX}")
    coeffs = data["coeffs"]
    if not (isinstance(coeffs, list) and all(type(c) is str for c in coeffs)):
        raise ValueError("coeffs must be a list of strings")
    try:
        form = qforms.named_form(
            data["name"], k=params[0] if params else None, order=order
        )
    except DomainError as exc:
        raise ValueError(str(exc)) from None
    return data, form


def cmd_cache(args) -> tuple:
    cache_dir = args.dir or os.environ.get("HYPCOUNT_CACHE_DIR")
    if not cache_dir:
        raise DomainError("cache needs --dir or HYPCOUNT_CACHE_DIR")
    if os.path.exists(cache_dir) and not os.path.isdir(cache_dir):
        raise DomainError(f"not a directory {cache_dir}")
    if args.action == "write":
        os.makedirs(cache_dir, exist_ok=True)
        for name, k in CACHE_ROSTER:
            form = qforms.named_form(name, k=k, order=args.order)
            path = os.path.join(cache_dir, form.key() + ".json")
            with open(path, "w") as fh:
                fh.write(_canonical_json(form.to_json()))
        return f"wrote {len(CACHE_ROSTER)} forms to {cache_dir}\n", 0
    if args.action == "clear":
        if os.path.isdir(cache_dir):
            for entry in os.listdir(cache_dir):
                path = os.path.join(cache_dir, entry)
                if entry.endswith(".json") and os.path.isfile(path):
                    os.remove(path)
        return f"cleared {cache_dir}\n", 0
    if not os.path.isdir(cache_dir):
        raise DomainError(f"no such directory {cache_dir}")
    entries = sorted(e for e in os.listdir(cache_dir) if e.endswith(".json"))
    lines = []
    for entry in entries:
        try:
            with open(os.path.join(cache_dir, entry)) as fh:
                stored = fh.read()  # a UnicodeDecodeError is a ValueError
            data, form = _load_cached(stored)
        except (OSError, ValueError) as exc:  # also a *.json directory
            lines.append(f"INVALID {entry}: {exc}")
            continue
        fresh = _canonical_json(form.to_json())
        if fresh != stored:
            stored_coeffs = data["coeffs"]
            fresh_coeffs = form.to_json()["coeffs"]
            delta = next(
                (
                    f"coefficient of q^{i}: stored {s}, recomputed {f}"
                    for i, (s, f) in enumerate(zip(stored_coeffs, fresh_coeffs))
                    if s != f
                ),
                f"stored {len(stored_coeffs)} coefficients, recomputed {len(fresh_coeffs)}"
                if len(stored_coeffs) != len(fresh_coeffs)
                else "byte-level difference outside the coefficients",
            )
            lines.append(f"MISMATCH {entry}: {delta}")
    failures = len(lines)
    lines.append(f"checked {len(entries)} cached forms, {failures} mismatched")
    return "\n".join(lines) + "\n", 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypcount",
        description="Exact q-series calculus for hyperelliptic curve counts "
        "on polarized Abelian surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--order", type=int, default=None, help="truncation order")
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text"
        )
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("series", help="print a named q-series")
    p.add_argument("--name", required=True, help=f"one of {qforms.FORM_NAMES}")
    p.add_argument("--k", type=int, default=None, help="index for the A/C families")
    add_common(p)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("fgk", help="counting series of one multiplicity profile")
    p.add_argument(
        "--config", required=True, help="16 comma-separated branch multiplicities"
    )
    add_common(p)
    p.set_defaults(fn=cmd_fgk)

    p = sub.add_parser("genus", help="aggregated count report for one genus")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--table", action="store_true", help="coefficient-table layout")
    add_common(p)
    p.set_defaults(fn=cmd_genus)

    p = sub.add_parser("orbits", help="translation-orbit table for one degree")
    p.add_argument("--degree", type=int, required=True)
    add_common(p)
    p.set_defaults(fn=cmd_orbits)

    p = sub.add_parser("verify", help="run the identity suites")
    p.add_argument(
        "--suite",
        choices=SUITES + ("all",),
        default="all",
    )
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("cache", help="persist/validate named-form JSON files")
    p.add_argument("--action", choices=("write", "check", "clear"), required=True)
    p.add_argument("--dir", default=None)
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(fn=cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "order", None) is None:
            args.order = _env_order()
        if args.order < 0:
            raise DomainError("order must be >= 0")
        if args.order > ORDER_MAX:
            raise DomainError(f"order must be <= {ORDER_MAX}")
        text, code = args.fn(args)
        pieces = [text] if isinstance(text, str) else text
        if getattr(args, "out", None):
            with open(args.out, "w") as fh:
                fh.writelines(pieces)
        else:
            try:
                sys.stdout.writelines(pieces)
                sys.stdout.flush()
            except BrokenPipeError:  # not bad input; keep the exit-time flush quiet
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except (DomainError, OSError) as exc:
        # bad input and unwritable paths alike: one line, usage exit code
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypcountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
