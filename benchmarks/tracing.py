"""Per-layer tracing of one `hypcount` CLI call, installed from outside.

The package is not edited: `Tracer.install()` rebinds the public functions
of each layer module (and every other module global or `verify.CHECKS`
entry that refers to them) to wrappers that open a span per call, and sets
`Series.__mul__`/`__rmul__`/`invert`/`__pow__` on the class.  Wrappers pass
arguments and results through untouched and re-export `cache_info` and
`cache_clear` of `lru_cache` builders, so stdout and cache statistics are
the same as in an untraced run.

Spans are aggregated online per name (calls, inclusive time, self time).
Self time is a span's duration minus the durations of its direct child
spans; wrapped calls nest properly because the CLI is single-threaded.

Run as a script it is the traced child:

    python benchmarks/tracing.py STATS_JSON -- <hypcount cli arguments>

It behaves like `python -m hypcount.cli <arguments>` (same stdout, stderr
and exit code) and also writes the span aggregates to STATS_JSON.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter, defaultdict
from fractions import Fraction

LAYERS = ("cli", "verify", "counting", "kummer", "trig", "qforms", "numtheory", "fps")

# Per-profile primitives inside the orbit and admissibility scans: a
# per-call wrapper would cost more than they do.  Their time counts in the
# caller's span; orbit work is counted from translation_orbits' results.
UNWRAPPED = {
    "kummer": {"orbit_rep", "orbit_of", "translate_config", "in_Pi3", "odd_support", "mask_size"},
}

# Names of verify.CHECKS entries at the commit that defined this benchmark;
# each gets a `verify.check_s.<name>` metric.
CHECK_NAMES = (
    "ring-axioms", "invert-roundtrip", "qderiv-derivation", "compose-nesting",
    "denom-roundtrip", "macmahon-A-cross", "macmahon-C-cross", "A1-divisor-series",
    "C1-from-A1", "pochhammer-split", "legendre-fourth-power", "theta-sixteenth",
    "gottsche-operator", "eisenstein-remark", "yau-zaslow-prefix",
    "sigma-halving", "sigma-multiplicative", "odd-split-egf", "cheb-structure",
    "cheb-odd-sine", "cheb-even-exact", "andrews-rose-H", "andrews-rose-G",
    "block-parity", "lattice-sum-blocks", "sine-substitution", "h-ode",
    "pi3-structure", "pi-chain", "coset-structure", "orbit-partition",
    "pairing-laws", "two-route", "ord-law", "parity-separation",
    "genus1-pipeline", "genus2-pipeline", "gottsche-reconcile",
    "smooth-genus-bound", "table-shape-rows", "table-combination",
    "table-total-row",
)

# Span groups behind the per-layer self-time metrics.
SPAN_GROUPS = {
    "fps.mul": ("fps.mul",),
    "fps.invert": ("fps.invert",),
    "qforms.direct": ("qforms.macmahon_A_direct", "qforms.macmahon_C_direct"),
    "qforms.recursive": ("qforms.macmahon_A_recursive", "qforms.macmahon_C_recursive"),
    "qforms.products": (
        "qforms.pochhammer", "qforms.delta_inv_times_q",
        "qforms.legendre_series", "qforms.theta2_fourth",
    ),
    "trig.theta_block": ("trig.theta_block", "trig.theta_block_q"),
    "trig.lattice_sum": ("trig.theta_block_from_lattice_sum",),
    "trig.andrews_rose": ("trig.andrews_rose_H", "trig.andrews_rose_G"),
    "trig.sine_substitute": ("trig.sine_substitute", "trig.sine_substitute_combinatorial"),
    "kummer.translation_orbits": ("kummer.translation_orbits",),
    "counting.genus_total": ("counting.genus_total",),
    "counting.f_gk": ("counting.f_gk",),
    "counting.f_gk_via_potential": ("counting.f_gk_via_potential",),
    "cli": ("cli.main",),
}

# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "fps.mul.calls": "count",
    "fps.mul.self_s": "s",
    "fps.mul.coeff_pairs": "count",
    "fps.invert.calls": "count",
    "fps.invert.self_s": "s",
    "fps.pow.calls": "count",
    "fps.series_built": "count",
    "fps.max_coeff_bits": "bits",
    "fps.fraction_share": "ratio",
    "qforms.direct.self_s": "s",
    "qforms.recursive.self_s": "s",
    "qforms.products.self_s": "s",
    "qforms.named_form.calls": "count",
    "qforms.cache_hit_ratio": "ratio",
    "trig.theta_block.self_s": "s",
    "trig.lattice_sum.self_s": "s",
    "trig.andrews_rose.self_s": "s",
    "trig.sine_substitute.self_s": "s",
    "trig.cache_hit_ratio": "ratio",
    "numtheory.self_s": "s",
    "kummer.translation_orbits.calls": "count",
    "kummer.translation_orbits.self_s": "s",
    "kummer.profiles_scanned": "count",
    "kummer.orbit_classes": "count",
    "kummer.class_yield": "ratio",
    "kummer.admissible.calls": "count",
    "counting.genus_total.self_s": "s",
    "counting.f_gk.calls": "count",
    "counting.f_gk.self_s": "s",
    "counting.f_gk_via_potential.calls": "count",
    "counting.f_gk_via_potential.self_s": "s",
    "counting.distinct_shapes": "count",
    "counting.shape_reuse": "ratio",
    **{f"verify.check_s.{name}": "s" for name in CHECK_NAMES},
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class SpanRecorder:
    """Online aggregation of properly nested spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []  # [name, start, time covered by direct children]
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def spans(self) -> dict:
        return {
            name: [self.calls[name], self.total[name], self.self_time[name]]
            for name in self.calls
        }


def _is_cached(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info")


class Tracer:
    """Installs span wrappers on the hypcount layers and collects counts."""

    def __init__(self, recorder: SpanRecorder | None = None):
        self.rec = recorder or SpanRecorder()
        self.counters = Counter()
        self.max_coeff_bits = 0
        self.shapes: set = set()
        self._undo = []  # (setattr target, attribute or index, original)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, observe=None):
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit()
            if observe is not None:
                observe(args, result)
            return result

        if _is_cached(fn):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _observe_series(self, series) -> None:
        bits = self.max_coeff_bits
        fractions = 0
        for c in series.coeffs:
            if type(c) is int:
                b = c.bit_length()
            else:
                fractions += 1
                b = max(c.numerator.bit_length(), c.denominator.bit_length())
            if b > bits:
                bits = b
        self.max_coeff_bits = bits
        self.counters["fps.coeffs_seen"] += len(series.coeffs)
        self.counters["fps.fractions_seen"] += fractions

    def _observe_mul(self, args, result) -> None:
        n = result.order
        scalar = isinstance(args[1], (int, Fraction))
        self.counters["fps.mul.coeff_pairs"] += n + 1 if scalar else (n + 1) * (n + 2) // 2
        self._observe_series(result)

    def _observe_series_result(self, args, result) -> None:
        self._observe_series(result)

    def _observe_orbits(self, args, result) -> None:
        self.counters["kummer.profiles_scanned"] += sum(o.size for o in result)
        self.counters["kummer.orbit_classes"] += len(result)

    def _observe_fgk(self, args, result) -> None:
        self.shapes.add(result.shape if result.coset else "0")

    # -- installation --------------------------------------------------------

    def _set(self, target, key, value) -> None:
        if isinstance(target, list):
            self._undo.append((target, key, target[key]))
            target[key] = value
        else:
            self._undo.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"hypcount.{layer}") for layer in LAYERS}
        package = [m for n, m in sorted(sys.modules.items()) if n.startswith("hypcount")]
        verify = mods["verify"]
        check_fns = {entry[3] for entry in verify.CHECKS}
        observers = {
            "kummer.translation_orbits": self._observe_orbits,
            "counting.f_gk": self._observe_fgk,
        }
        replaced = {}
        for layer in LAYERS:
            if layer in ("cli", "fps"):
                continue
            mod = mods[layer]
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or name in UNWRAPPED.get(layer, ()):
                    continue
                if not (_is_cached(obj) or isinstance(obj, types.FunctionType)):
                    continue
                if obj in check_fns or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                span = f"{layer}.{name}"
                replaced[id(obj)] = (obj, self._span(span, obj, observers.get(span)))
        # rebind every module-level reference, including `from .x import y`
        for mod in package:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])
        for i, (suite, name, source, fn) in enumerate(verify.CHECKS):
            wrapped = self._span(f"verify.check.{name}", fn)
            self._set(verify.CHECKS, i, (suite, name, source, wrapped))
        self._set(mods["cli"], "main", self._span("cli.main", mods["cli"].main))

        series = mods["fps"].Series
        mul = self._span("fps.mul", series.__mul__, self._observe_mul)
        self._set(series, "__mul__", mul)
        self._set(series, "__rmul__", mul)
        self._set(series, "invert", self._span(
            "fps.invert", series.invert, self._observe_series_result))
        self._set(series, "__pow__", self._span(
            "fps.pow", series.__pow__, self._observe_series_result))
        init = series.__init__
        counters = self.counters

        @functools.wraps(init)
        def counted_init(self_, *args, **kwargs):
            counters["fps.series_built"] += 1
            init(self_, *args, **kwargs)

        self._set(series, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, list):
                target[key] = original
            else:
                setattr(target, key, original)

    # -- results -------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-ready record of one traced call."""
        caches = {}
        for layer in ("qforms", "trig"):
            mod = sys.modules[f"hypcount.{layer}"]
            hits = misses = 0
            for obj in vars(mod).values():
                if _is_cached(obj):
                    info = obj.cache_info()
                    hits += info.hits
                    misses += info.misses
            caches[layer] = [hits, misses]
        counters = dict(self.counters)
        counters["fps.max_coeff_bits"] = self.max_coeff_bits
        counters["counting.distinct_shapes"] = len(self.shapes)
        return {"spans": self.rec.spans(), "counters": counters, "caches": caches}


def merge_stats(records) -> dict:
    """Sum the records of the commands of one pass (max for bit sizes)."""
    spans: dict = {}
    counters: Counter = Counter()
    caches = {"qforms": [0, 0], "trig": [0, 0]}
    bits = 0
    for rec in records:
        for name, (calls, total, self_s) in rec["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, value in rec["counters"].items():
            if name == "fps.max_coeff_bits":
                bits = max(bits, value)
            else:
                counters[name] += value
        for layer, (hits, misses) in rec["caches"].items():
            caches[layer][0] += hits
            caches[layer][1] += misses
    counters["fps.max_coeff_bits"] = bits
    return {"spans": spans, "counters": dict(counters), "caches": caches}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(merged: dict, out_bytes: int, overhead_ratio: float) -> dict:
    """Every per-layer metric (name -> value) from one pass's merged stats."""
    spans, counters, caches = merged["spans"], merged["counters"], merged["caches"]

    def calls(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(group):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in SPAN_GROUPS[group])

    out = {
        "fps.mul.calls": calls("fps.mul"),
        "fps.mul.self_s": self_s("fps.mul"),
        "fps.mul.coeff_pairs": counters.get("fps.mul.coeff_pairs", 0),
        "fps.invert.calls": calls("fps.invert"),
        "fps.invert.self_s": self_s("fps.invert"),
        "fps.pow.calls": calls("fps.pow"),
        "fps.series_built": counters.get("fps.series_built", 0),
        "fps.max_coeff_bits": counters.get("fps.max_coeff_bits", 0),
        "fps.fraction_share": _ratio(
            counters.get("fps.fractions_seen", 0), counters.get("fps.coeffs_seen", 0)
        ),
        "qforms.direct.self_s": self_s("qforms.direct"),
        "qforms.recursive.self_s": self_s("qforms.recursive"),
        "qforms.products.self_s": self_s("qforms.products"),
        "qforms.named_form.calls": calls("qforms.named_form"),
        "qforms.cache_hit_ratio": _ratio(caches["qforms"][0], sum(caches["qforms"])),
        "trig.theta_block.self_s": self_s("trig.theta_block"),
        "trig.lattice_sum.self_s": self_s("trig.lattice_sum"),
        "trig.andrews_rose.self_s": self_s("trig.andrews_rose"),
        "trig.sine_substitute.self_s": self_s("trig.sine_substitute"),
        "trig.cache_hit_ratio": _ratio(caches["trig"][0], sum(caches["trig"])),
        "numtheory.self_s": sum(v[2] for n, v in spans.items() if n.startswith("numtheory.")),
        "kummer.translation_orbits.calls": calls("kummer.translation_orbits"),
        "kummer.translation_orbits.self_s": self_s("kummer.translation_orbits"),
        "kummer.profiles_scanned": counters.get("kummer.profiles_scanned", 0),
        "kummer.orbit_classes": counters.get("kummer.orbit_classes", 0),
        "kummer.class_yield": _ratio(
            counters.get("kummer.orbit_classes", 0), counters.get("kummer.profiles_scanned", 0)
        ),
        "kummer.admissible.calls": calls("kummer.admissible"),
        "counting.genus_total.self_s": self_s("counting.genus_total"),
        "counting.f_gk.calls": calls("counting.f_gk"),
        "counting.f_gk.self_s": self_s("counting.f_gk"),
        "counting.f_gk_via_potential.calls": calls("counting.f_gk_via_potential"),
        "counting.f_gk_via_potential.self_s": self_s("counting.f_gk_via_potential"),
        "counting.distinct_shapes": counters.get("counting.distinct_shapes", 0),
        "counting.shape_reuse": _ratio(
            calls("counting.f_gk"), counters.get("counting.distinct_shapes", 0)
        ),
        "cli.self_s": self_s("cli"),
        "cli.out_bytes": out_bytes,
        "trace.overhead_ratio": overhead_ratio,
    }
    for name in CHECK_NAMES:
        out[f"verify.check_s.{name}"] = spans.get(f"verify.check.{name}", (0, 0.0, 0.0))[1]
    return {name: out[name] for name in LAYER_METRICS}


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py STATS_JSON -- <hypcount cli arguments>", file=sys.stderr)
        return 2
    stats_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["hypcount.cli"]
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(stats_path, "w") as fh:
            json.dump(tracer.stats(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
