"""The four benchmark workloads: seeded `hypcount` command lists and the
checks on their outputs.

A workload is a list of CLI calls (each runs in a fresh child process) and
a check that turns the pass's results into one verdict per command:

* ``ok``: exit code and output are right;
* ``known``: the command hit the known `--table` crash of the seed commit
  (`TypeError` in `CountReport.table_rows`); it counts in `fail_ratio` but
  is not an unexpected failure;
* anything else: the reason the command failed.

Why each workload exists is written down in NOTES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass, field

OK = "ok"
KNOWN = "known"

PINS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


@dataclass(frozen=True)
class Command:
    argv: tuple

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Result:
    rc: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_kb: int
    scale: float = 1.0  # to reference-speed seconds (run.PROBE_REF_S / probe time)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_pins() -> dict:
    with open(PINS_FILE) as fh:
        return json.load(fh)


def _cmd(text: str) -> Command:
    return Command(tuple(text.split()))


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

EPS0 = (0, 4, 8, 12)
EPS1 = (1, 2, 3, 4, 8, 12)


def admissible_supports() -> list:
    """The 64 admissible odd supports, as sorted point tuples: eps0 or eps1
    plus a Pi_3 member (empty, whole, or an affine 3-plane of F_2^4)."""
    pi3 = {0, 0xFFFF}
    for f in range(1, 16):
        for a in (0, 1):
            pi3.add(sum(1 << v for v in range(16) if bin(f & v).count("1") % 2 == a))
    out = set()
    for eps in (EPS0, EPS1):
        base = sum(1 << v for v in eps)
        for eta in pi3:
            mask = base ^ eta
            out.add(tuple(v for v in range(16) if mask >> v & 1))
    return sorted(out)


def seeded_profile(rng: random.Random) -> tuple:
    """An admissible multiplicity profile of degree at most 16: 1 on an
    admissible support plus 2 on up to two random points."""
    support = rng.choice([s for s in admissible_supports() if len(s) <= 12])
    config = [1 if v in support else 0 for v in range(16)]
    for _ in range(rng.randint(0, 2)):
        config[rng.randrange(16)] += 2
    if sum(config) < 4:
        config[rng.randrange(16)] += 2
    return tuple(config)


def translate(config: tuple, t: int) -> tuple:
    return tuple(config[v ^ t] for v in range(16))


# ---------------------------------------------------------------------------
# output parsers for the genus layouts
# ---------------------------------------------------------------------------


def genus_key(argv) -> tuple:
    """(g, order) of a genus command."""
    g = int(argv[argv.index("--g") + 1])
    order = int(argv[argv.index("--order") + 1]) if "--order" in argv else 32
    return g, order


def layout(argv) -> str:
    if "--table" in argv:
        return "table"
    if "--format" in argv:
        return argv[argv.index("--format") + 1]
    return "text"


def total_from_json(out: str, order: int) -> list:
    return [int(c) for c in json.loads(out)["total"]]


def total_from_table(out: str, order: int) -> list:
    """The F_g(u) row of the table layout.  Columns are right-aligned under
    headers q^2..q^order and empty cells are zero; exponents 0 and 1 are not
    shown (None)."""
    lines = out.splitlines()
    header, row = lines[0], next(l for l in lines if l.startswith("F_"))
    total = [None, None] + [0] * (order - 1)
    prev_end = header.index(" mult") + len(" mult")
    for m in re.finditer(r"q\^(\d+)", header):
        cell = row[prev_end:m.end()].strip()
        total[int(m.group(1))] = int(cell) if cell else 0
        prev_end = m.end()
    return total


def total_from_text(out: str, order: int) -> list:
    """The `total:` line of the text layout, e.g. ``3u^2 - u^5 + 7``."""
    line = next(l for l in out.splitlines() if l.startswith("total: "))
    expr = line[len("total: "):]
    total = [0] * (order + 1)
    if expr == "0":
        return total
    if expr.startswith("-"):
        expr = "- " + expr[1:]
    else:
        expr = "+ " + expr
    tokens = expr.split()
    for sign, term in zip(tokens[::2], tokens[1::2]):
        m = re.fullmatch(r"(\d*)(u(?:\^(\d+))?)?", term)
        if m is None or not (m.group(1) or m.group(2)):
            raise ValueError(f"cannot parse term {term!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        exp = int(m.group(3) or 1) if m.group(2) else 0
        total[exp] = -coeff if sign == "-" else coeff
    return total


TOTAL_PARSERS = {"table": total_from_table, "json": total_from_json, "text": total_from_text}


def agree(a: list, b: list) -> bool:
    """Totals agree on every exponent both layouts show."""
    return len(a) == len(b) and all(x == y for x, y in zip(a, b) if None not in (x, y))


def is_known_crash(res: Result) -> bool:
    err = res.stderr.decode(errors="replace")
    return res.rc == 1 and "TypeError" in err and "table_rows" in err


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

GENUS_FIXED = [
    "genus --g 3 --table",
    "genus --g 3 --format json",
    "genus --g 3",
    "genus --g 3 --order 12 --table",
    "genus --g 3 --order 12 --format json",
    "genus --g 3 --order 11 --format json",
    "genus --g 4 --table",
    "genus --g 4 --format json",
    "genus --g 4",
    "genus --g 5",
    "genus --g 6 --order 16",
]
# Exit 1 with TypeError in CountReport.table_rows at the seed commit: a shape
# series is zero below the order, so its valuation() is None.
GENUS_KNOWN_CRASH = [
    "genus --g 5 --table",
    "genus --g 3 --order 11 --table",
]
GENUS_PROFILES = 3

ORBITS_FIXED = [
    "orbits --degree 8 --format json",
    "orbits --degree 10 --format csv",
    "orbits --degree 12 --format json",
    "genus --g 5 --format json",
]

FORMS_ORDER = 1024
FORMS_WRITE = f"cache --action write --dir forms --order {FORMS_ORDER}"
FORMS_CHECK = "cache --action check --dir forms"
# Two seeded k; each queries A_k and C_(6-k), a pair whose build cost is
# about the same for every k, so the seed changes inputs but not the load.
FORMS_PAIRS = 2

VERIFY_CMD = "verify --suite all"
VERIFY_KNOWN_FAIL = "counting:table-total-row"
VERIFY_CHECKS = 42


@dataclass
class Workload:
    name: str
    commands: list
    pairs: list = field(default_factory=list)  # (fgk profile, its translate)

    def check(self, results: dict, pass_dir: str, pins: dict) -> dict:
        """Verdict per command key for one pass."""
        verdicts = {}
        for key, res in results.items():
            pin = pins["stdout"].get(key)
            if pin is None:
                continue
            rc, digest = pin
            if res.rc != rc:
                verdicts[key] = f"exit code {res.rc}, expected {rc}"
            elif sha256(res.stdout) != digest:
                verdicts[key] = "stdout differs from the pinned digest"
        extra = CHECKS[self.name](self, results, pass_dir, pins)
        for key, verdict in extra.items():
            verdicts.setdefault(key, verdict)
        return {key: verdicts.get(key, OK) for key in results}


def _check_genus(wl, results, pass_dir, pins):
    verdicts = {}
    totals = {}  # (g, order) -> [(key, total)]
    for key, res in results.items():
        argv = key.split()
        if argv[0] != "genus":
            continue
        if key in GENUS_KNOWN_CRASH and res.rc != 0:
            verdicts[key] = KNOWN if is_known_crash(res) else f"exit code {res.rc}"
            continue
        if res.rc != 0:
            verdicts[key] = f"exit code {res.rc}"
            continue
        try:
            total = TOTAL_PARSERS[layout(argv)](res.stdout.decode(), genus_key(argv)[1])
        except (ValueError, KeyError, IndexError, StopIteration) as exc:
            verdicts[key] = f"unreadable total: {exc!r}"
            continue
        totals.setdefault(genus_key(argv), []).append((key, total))
    for group in totals.values():
        ref_key, ref = group[0]
        for key, total in group[1:]:
            if not agree(ref, total):
                verdicts[key] = f"total differs from {ref_key!r}"
    for key in GENUS_KNOWN_CRASH:
        fixed = key in results and results[key].rc == 0
        if fixed and len(totals.get(genus_key(key.split()), ())) < 2:
            verdicts.setdefault(key, "no other layout at the same (g, order)")
    for base, moved in wl.pairs:
        verdicts.update(_check_fgk_pair(results, base, moved))
    return verdicts


def _check_fgk_pair(results, base, moved):
    data = {}
    for key in (base, moved):
        res = results[key]
        try:
            data[key] = json.loads(res.stdout) if res.rc == 0 else None
        except ValueError:
            data[key] = None
        want = [int(v) for v in key.split()[2].split(",")]
        if data[key] is None or data[key].get("config") != want:
            return {key: "fgk did not report its profile"}
    a, b = ({k: v for k, v in data[key].items() if k != "config"} for key in (base, moved))
    return {} if a == b else {moved: f"translate of {base!r} gives other coefficients"}


def _check_orbits(wl, results, pass_dir, pins):
    verdicts = {}
    try:
        listing = json.loads(results["orbits --degree 12 --format json"].stdout)
        report = json.loads(results["genus --g 5 --format json"].stdout)
    except ValueError:
        return {"genus --g 5 --format json": "output is not JSON"}
    fields = ("rep", "orbit_size", "coset", "shape")
    if [[o[f] for f in fields] for o in listing] != [
        [o[f] for f in fields] for o in report["orbits"]
    ]:
        verdicts["genus --g 5 --format json"] = "orbits differ from `orbits --degree 12`"
    return verdicts


def forms_dir_digest(cache_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(cache_dir)):
        with open(os.path.join(cache_dir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def _check_forms(wl, results, pass_dir, pins):
    verdicts = {}
    cache_dir = os.path.join(pass_dir, "forms")
    if not os.path.isdir(cache_dir) or forms_dir_digest(cache_dir) != pins["forms_dir"]:
        verdicts[FORMS_WRITE] = "cache files differ from the pinned digest"
    if not results[FORMS_CHECK].stdout.rstrip().endswith(b", 0 mismatched"):
        verdicts[FORMS_CHECK] = "cache check reports mismatches"
    for key, res in results.items():
        argv = key.split()
        if argv[0] != "series":
            continue
        name, k = argv[argv.index("--name") + 1], argv[argv.index("--k") + 1]
        path = os.path.join(cache_dir, f"{name}_{k}_o{FORMS_ORDER}.json")
        try:
            with open(path, "rb") as fh:
                cached = fh.read()
        except OSError:
            cached = None
        if res.rc != 0 or res.stdout != cached:
            verdicts[key] = f"differs from cache file {os.path.basename(path)}"
    return verdicts


def _check_verify(wl, results, pass_dir, pins):
    res = results[VERIFY_CMD]
    statuses = re.findall(r"^\[(PASS|FAIL)\] (\S+)", res.stdout.decode(), re.M)
    fails = [name for status, name in statuses if status == "FAIL"]
    if res.rc != 1:
        return {VERIFY_CMD: f"exit code {res.rc}, expected 1"}
    if len(statuses) != VERIFY_CHECKS or fails != [VERIFY_KNOWN_FAIL]:
        return {VERIFY_CMD: f"{len(statuses)} checks, failing {fails}"}
    return {}


CHECKS = {
    "genus": _check_genus,
    "orbits": _check_orbits,
    "forms": _check_forms,
    "verify": _check_verify,
}
NAMES = tuple(CHECKS)


def build(name: str, seed: int) -> Workload:
    """The workload's command list for one seed, in run order."""
    rng = random.Random(f"{name}:{seed}")
    pairs = []
    if name == "genus":
        commands = [_cmd(c) for c in GENUS_FIXED + GENUS_KNOWN_CRASH]
        rng.shuffle(commands)
        seen = set()
        while len(pairs) < GENUS_PROFILES:
            config = seeded_profile(rng)
            moved = translate(config, rng.randrange(1, 16))
            if config == moved or config in seen or moved in seen:
                continue
            seen |= {config, moved}
            pair = [Command(("fgk", "--config", ",".join(map(str, c)), "--format", "json"))
                    for c in (config, moved)]
            pairs.append((pair[0].key, pair[1].key))
            at = rng.randrange(len(commands) + 1)
            commands[at:at] = pair
    elif name == "orbits":
        commands = [_cmd(c) for c in ORBITS_FIXED]
        rng.shuffle(commands)
    elif name == "forms":
        ks = rng.sample(range(1, 6), FORMS_PAIRS)
        rest = [_cmd(FORMS_CHECK)] + [
            _cmd(f"series --name {fam} --k {k if fam == 'A' else 6 - k} --order {FORMS_ORDER} --format json")
            for k in ks
            for fam in ("A", "C")
        ]
        rng.shuffle(rest)
        commands = [_cmd(FORMS_WRITE)] + rest  # the check and queries read the written files
    elif name == "verify":
        commands = [_cmd(VERIFY_CMD)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, commands, pairs)


def pinned_commands() -> list:
    """Commands whose stdout is pinned: the fixed, unseeded ones."""
    return [_cmd(c) for c in GENUS_FIXED + ORBITS_FIXED + [FORMS_WRITE, FORMS_CHECK]]
