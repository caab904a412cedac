"""Command-line surface.

COMMANDS maps series (named q-series), fgk (one multiplicity profile),
genus (aggregated count report), orbits (translation-orbit table), verify
(identity suites) and cache (named-form JSON store) to their functions and
flags; parse_args reads a command line by it.  Exit codes: 0 success,
1 verification failure, 2 usage error or a file that cannot be read or
written.  Each cmd_* validates its input, computes its data and returns
(text, exit code), where text is a string or, for every series, fgk, genus
and orbits layout, pieces formatted as they are written: a term, a row, a
line or an encoder piece at a time, so no layout joins its whole document.
main() alone writes it, with one writelines to --out or stdout, and turns
every error, a usage error too, into one ``error: <msg>`` line.  A stdout
closed early (``| head``) is no error: the rest is dropped, the code stays.
The library's records carry data, and every layout of them is made here:
the table rows and their order, the fgk document, the listings.  Every
JSON byte comes from _json's encoder (sorted keys, an indent of 2); a JSON
listing splices its rows into the text of its document.

Configuration precedence is flags > environment > defaults; the recognized
environment variables are HYPCOUNT_ORDER and HYPCOUNT_CACHE_DIR.
"""

from __future__ import annotations

import os
import sys
from itertools import chain, islice
from types import SimpleNamespace

from .errors import DomainError, HypcountError
from . import SUITES, counting, kummer, qforms

DEFAULT_ORDER = 32

# Largest genus per `genus` layout.  The aggregate layouts count orbit
# classes per profile type, and their cost is one product per type (one per
# shape): genus_total(g, 32) took 0.15-0.20 s at g = 12 (1,659 types) on a
# 2-vCPU x86-64 VM with Python 3.11, and 0.9-1.1 s at g = 16.  JSON lists
# every orbit class by enumeration, and the class count grows about 4x per
# genus (9,116 at g = 6, 35,884 at g = 7).  A listing holds one packed
# 18-byte row per class and splices each into a template as it is written,
# so `genus --g 7 --format json` (28.9 MB) took 0.49 s and 17.5 MB peak RSS
# end to end on a 2-vCPU VM (medians of 11 fresh processes).
# GENUS_MAX_LISTED bounds both listings: `orbits` takes degrees up to
# 2 * 7 + 2 = 16, which took 0.48-0.49 s and 17.3-17.5 MB in each layout;
# degree 18 (124,236 classes) took 1.5 s and 24 MB in one run.
GENUS_MAX = 12
GENUS_MAX_LISTED = 7

# Largest truncation order.  `cache --action write` builds every named form: in a
# fresh process (2 vCPUs) it took 0.15 s at order 1024, 0.22 s at 2048, 0.49 s at
# 4096 and 1.2 s at 8192, medians of three, and 23.6 MB peak RSS at 8192 with each
# file written in encoder pieces (medians of seven); at 16384 the forms took 3.5 s
# (61 MB, files joined whole), most of it `delta_inv` and the MacMahon recursions.  A deep MacMahon
# index (`series --name A --k 127`) costs far more per order, so the limit stays.
ORDER_MAX = 8192


_HOLE = '"\\u0000"'  # the JSON text of the string "\0", which no field holds


def _holes(obj, nl="\n"):
    """The canonical JSON text of obj at indent nl, split at each "\\u0000"
    string.  JSON text holds no raw line break but its indent breaks, so the
    replace re-indents it and nothing else."""
    return "".join(_json(obj))[:-1].replace("\n", nl).split(_HOLE)


def _json(data):
    """The canonical JSON text of data and its final line break, in groups
    of 128 encoder pieces.  The encoder yields about one piece per list
    entry: for the 17 cache forms at order 8192, a write or a compare per
    piece took 94-135 ms in-process against 74-90 ms for the joined text,
    and per group 71-87 ms."""
    import json  # loaded by the JSON layouts and the cache alone
    pieces = chain(json.JSONEncoder(sort_keys=True, indent=2).iterencode(data), ["\n"])
    return iter(lambda: "".join(islice(pieces, 128)), "")  # no piece is empty


def _listing(doc, orbits, shapes=None):
    """The canonical JSON text of doc, in pieces, with its one hole ["\\u0000"]
    filled by the listing rows of the (never empty) orbits, (rep, size,
    coset) triples, one row per orbit class, built as it is written: its
    fields, its shape and, if shapes maps each shape to (multiplicity,
    series) as CountReport.shapes does, the shape's series.  A row's text is
    encoded once per (shape, coset), with holes for orbit_size and for each
    entry of rep, which each class fills in."""
    head, tail = _holes(doc)
    nl = head[head.rfind("\n"):]  # the hole's own line break and indent
    yield head
    templates, comma = {}, ""
    for rep, size, coset in orbits:
        values = tuple(sorted(rep))  # types and shapes correspond one to one
        layout = templates.get((values, coset))
        if layout is None:
            shape = counting.shape_label(values)
            row = {"coset": coset, "orbit_size": "\0", "rep": ["\0"] * 16, "shape": shape}
            row.update(shapes[shape][1].to_json() if shapes else {})
            # the key orbit_size sorts before rep, whose 16 holes share one separator
            first, mid, sep, *_, last = _holes(row, nl)
            layout = templates[values, coset] = first, mid, sep, last
        first, mid, sep, last = layout
        yield f"{comma}{first}{size}{mid}{sep.join(map(str, rep))}{last}"
        comma = "," + nl
    yield tail + "\n"


def _int(name: str, raw) -> int:
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{name} must be an integer, got {raw!r}") from None


def _series_csv(series, var="q"):
    rows = (f"{n},{c}\n" for n, c in enumerate(map(str, series.coeffs)))
    return chain([f"{var}^n,coefficient\n"], rows)


def cmd_series(args) -> tuple:
    form = qforms.named_form(args.name, k=args.k, order=args.order)
    if args.format == "json":
        return _json(form.to_json()), 0
    if args.format == "csv":
        return _series_csv(form.series), 0
    return chain(form.series.iterformat(), ["\n"]), 0


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
    shape = result.shape if result.coset else "0"
    if args.format == "json":
        doc = {"config": list(config), "coset": result.coset or "none", "shape": shape}
        return _json({**doc, **result.series.to_json()}), 0
    if args.format == "csv":
        return _series_csv(result.series, var="u"), 0
    head = [
        f"profile : {','.join(str(v) for v in config)}\n",
        f"total   : {sum(config)} (geometric genus {(sum(config) - 2) // 2})\n",
        f"coset   : {result.coset or 'none (inadmissible; series is 0)'}\n",
        f"shape   : {shape}\n",
    ]
    if result.coset:
        head.append(f"min h   : {counting.min_arith_genus(config)}\n")
    counts = (f"   {n:<9} {n + 1:<5} {c}\n" for n, c in enumerate(result.series.coeffs) if c)
    return chain(head, ["series  : "], result.series.iterformat(var="u"),
                 ["\n   n (=h-1)  h     count\n"], counts), 0


def _table_cells(report, mult_title: str):
    """The rows of both table layouts as lists of strings, each built as it
    is read, in their one order: the header, each shape's multiplicity and
    bare series by valuation, then name (vanishing shapes last), then the
    total F_g(u); a zero is an empty cell."""

    def key(shape):
        val = report.shapes[shape][1].valuation()
        return (val is None, val or 0, shape)

    rows = [(shape, *report.shapes[shape]) for shape in sorted(report.shapes, key=key)]
    rows.append((f"F_{report.genus}(u)", "", report.total))
    yield ["shape", mult_title] + [f"q^{n}" for n in range(2, report.order + 1)]
    for name, mult, series in rows:
        yield [name, str(mult)] + [str(c) if c else "" for c in series.coeffs[2:]]


def _report_table_lines(report):
    """The --table layout, one line per row as it is written; the column
    widths come from a first pass over the rows that keeps no cells."""
    widths = None
    for row in _table_cells(report, "mult"):
        widths = list(map(max, widths or [4] * len(row), map(len, row)))
    first, rest = widths[0], widths[1:]
    return ("  ".join([row[0].ljust(first), *map(str.rjust, row[1:], rest)]) + "\n"
            for row in _table_cells(report, "mult"))


def cmd_genus(args) -> tuple:
    if args.table and args.format != "text":
        raise DomainError(
            f"--table is a text layout; it cannot be combined with --format {args.format}")
    if args.format == "json" and not 1 <= args.g <= GENUS_MAX_LISTED:
        raise DomainError(f"genus must be between 1 and {GENUS_MAX_LISTED} with --format json")
    if not 1 <= args.g <= GENUS_MAX:
        raise DomainError(f"genus must be between 1 and {GENUS_MAX}")
    report = counting.genus_total(args.g, args.order)
    if args.format == "json":
        total = report.total.to_json()["coeffs"]
        doc = dict(genus=args.g, order=args.order, orbits=["\0"], total=total)
        rows = kummer.orbit_rows(2 * args.g + 2)
        return _listing(doc, kummer.unpack_rows(rows), report.shapes), 0
    if args.format == "csv":
        return (",".join(row) + "\n" for row in _table_cells(report, "multiplicity")), 0
    if args.table:
        return _report_table_lines(report), 0
    mults = report.shape_multiplicities()
    head = [
        f"genus {args.g}: {sum(mults.values())} orbit classes, "
        f"degree {2 * args.g + 2}, order {args.order}\n",
        *(f"  {mult} x {shape}\n" for shape, mult in sorted(mults.items())),
        "total: ",
    ]
    return chain(head, report.total.iterformat(var="u"), ["\n"]), 0


def cmd_orbits(args) -> tuple:
    if args.degree > 2 * GENUS_MAX_LISTED + 2:
        raise DomainError(f"degree must be <= {2 * GENUS_MAX_LISTED + 2}")
    rows = kummer.orbit_rows(args.degree)
    if args.format == "json":
        return _listing(["\0"], kummer.unpack_rows(rows)), 0
    if args.format == "csv":
        head, rep_sep, layout = "rep,orbit_size,coset,shape", " ", "{},{},{},{}\n"
    else:
        head, rep_sep = f"degree {args.degree}: {len(rows)} orbit classes", ","
        layout = "  [{}] size {:>2} {:<5} {}\n"
    lines = (layout.format(rep_sep.join(map(str, rep)), size, coset, counting.shape_label(rep))
             for rep, size, coset in kummer.unpack_rows(rows))
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
    """The recomputed form of one cache file's text, built after the parsed
    text is dropped; a ValueError says why the file is not a valid cache
    entry."""
    import json
    try:
        data = json.loads(stored)
    except ValueError as exc:
        raise ValueError(f"not JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError("not a JSON object")
    for key in ("name", "params", "order", "coeffs"):
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    if not isinstance(data["name"], str):
        raise ValueError("name must be a string")
    name, params, order = data["name"], data["params"], data["order"]
    if not (isinstance(params, list) and len(params) <= 1
            and all(type(p) is int for p in params)):
        raise ValueError("params must be a list of at most one integer")
    if type(order) is not int or not 0 <= order <= ORDER_MAX:
        raise ValueError(f"order must be an integer between 0 and {ORDER_MAX}")
    coeffs = data["coeffs"]
    if not (isinstance(coeffs, list) and set(map(type, coeffs)) <= {str}):
        raise ValueError("coeffs must be a list of strings")
    del data, coeffs  # the parsed copy, about the size of the text
    try:
        return qforms.named_form(name, k=params[0] if params else None, order=order)
    except DomainError as exc:
        raise ValueError(str(exc)) from None


def _equals_text(stored: str, pieces) -> bool:
    """Whether the pieces join to stored, compared in place one at a time."""
    end = 0
    for piece in pieces:
        if not stored.startswith(piece, end):
            return False
        end += len(piece)
    return end == len(stored)


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
                fh.writelines(_json(form.to_json()))
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
            form = _load_cached(stored)
        except (OSError, ValueError) as exc:  # also a *.json directory
            lines.append(f"INVALID {entry}: {exc}")
            continue
        if entry != form.key() + ".json":
            lines.append(f"MISMATCH {entry}: holds {form.key()}")
        elif not _equals_text(stored, _json(form.to_json())):
            import json
            stored_coeffs = json.loads(stored)["coeffs"]  # parsed again only to explain
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


_LAYOUT = {"format": ("text", "json", "csv"), "out": str}

# command: (function, {flag: int, str, a tuple of choices or bool}, required flags)
COMMANDS = {
    "series": (cmd_series, {"name": str, "k": int, "order": int, **_LAYOUT}, ("name",)),
    "fgk": (cmd_fgk, {"config": str, "order": int, **_LAYOUT}, ("config",)),
    "genus": (cmd_genus, {"g": int, "table": bool, "order": int, **_LAYOUT}, ("g",)),
    "orbits": (cmd_orbits, {"degree": int, **_LAYOUT}, ("degree",)),
    "verify": (cmd_verify, {"suite": ("all",) + SUITES, "order": int}, ()),
    "cache": (cmd_cache, {"action": ("write", "check", "clear"), "dir": str, "order": int},
              ("action",)),
}


def _usage(command: str) -> str:
    """The usage line of one command, built from its COMMANDS entry."""
    _, flags, required = COMMANDS[command]
    words = [command]
    for name, kind in flags.items():
        shown = {bool: "", int: " INT", str: f" {name.upper()}"}
        value = shown[kind] if kind in shown else f" {{{','.join(kind)}}}"
        words.append(f"--{name}{value}" if name in required else f"[--{name}{value}]")
    return f"usage: hypcount {' '.join(words)}\n"


def parse_args(argv) -> SimpleNamespace:
    """A command line walked against COMMANDS: fn, the command's function, and
    its flags, an absent one None, False or its first choice.  `--flag value`
    and `--flag=value` parse, a prefix of a flag does not; a usage error is a
    DomainError.  With -h or --help, fn gives the command's usage, or all."""
    if "-h" in argv or "--help" in argv:
        usage = "".join(map(_usage, [argv[0]] if argv[0] in COMMANDS else COMMANDS))
        return SimpleNamespace(fn=lambda _: (usage, 0))
    if not argv or argv[0] not in COMMANDS:
        raise DomainError(f"the command must be one of {', '.join(COMMANDS)}")
    command, tokens = argv[0], iter(argv[1:])
    fn, flags, required = COMMANDS[command]
    args = SimpleNamespace(fn=fn, **{
        name: kind[0] if isinstance(kind, tuple) else False if kind is bool else None
        for name, kind in flags.items() if name not in required})
    for token in tokens:
        flag, eq, value = token.partition("=")
        kind = flags.get(flag[2:]) if flag.startswith("--") else None
        if kind is None or kind is bool and eq:
            raise DomainError(f"unrecognized argument {token} for {command}")
        if kind is not bool and not eq:
            value = next(tokens, "--")  # a next flag is no value either
        if value.startswith("--"):
            raise DomainError(f"{flag} needs a value")
        value = _int(flag, value) if kind is int else value
        if isinstance(kind, tuple) and value not in kind:
            raise DomainError(f"{flag} must be one of {', '.join(kind)}, got {value!r}")
        setattr(args, flag[2:], True if kind is bool else value)
    for name in required:
        if not hasattr(args, name):
            raise DomainError(f"{command} needs --{name}")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if hasattr(args, "order"):  # every command but orbits
            if args.order is None:
                args.order = _int("HYPCOUNT_ORDER", os.environ.get("HYPCOUNT_ORDER", DEFAULT_ORDER))
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
