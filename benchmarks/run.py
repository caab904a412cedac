"""Benchmark of the `hypcount` command line.

    python3 benchmarks/run.py --workload genus --seed 1 --seconds 10 --trace 0

Each workload is a seeded list of real CLI calls (see workloads.py).  Every
call runs in a fresh `python -m hypcount.cli` child, one at a time, because
every CLI call starts with cold caches.  After an untimed warm-up pass the
benchmark repeats passes over the list until `--seconds` have elapsed and
checks every output.

With `--trace 0` it reports the end-to-end metrics (medians over passes);
with `--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (tracing.py).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs the four workloads in turn.

Run it from anywhere; it reads the package from `src/` next to this
directory and writes only below `.bench_work/` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads
from workloads import KNOWN, OK, Result, sha256

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 15
# About the CPU time of spawner.probe_work while a command runs on an
# unloaded core of the 2-vCPU x86-64 VM the benchmark was defined on.  Times
# are reported in seconds at that speed (see NOTES.md).
PROBE_REF_S = 0.0008

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Runner:
    """Runs one child at a time through spawner.py, which takes each child's
    own rusage from os.wait4 (RUSAGE_CHILDREN keeps a running maximum) and
    times its speed probe while the child runs; `Result.scale` converts the
    child's times to reference-speed seconds.  Use as a context manager:
    leaving it stops the spawner."""

    def __init__(self):
        env = {k: v for k, v in os.environ.items() if not k.startswith(("HYPCOUNT_", "PYTHON"))}
        env["PYTHONPATH"] = SRC
        env["PYTHONHASHSEED"] = "0"
        self._spawner = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._spawner.stdin.close()
        self._spawner.wait()
        self._spawner.stdout.close()

    def run(self, argv, cwd: str) -> Result:
        out_path = os.path.join(cwd, ".stdout")
        err_path = os.path.join(cwd, ".stderr")
        request = {"argv": list(argv), "cwd": cwd, "stdout": out_path, "stderr": err_path}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        line = self._spawner.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended")
        reply = json.loads(line)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return Result(reply["rc"], stdout, stderr, reply["wall_s"], reply["cpu_s"],
                      reply["rss_kb"], PROBE_REF_S / reply["probe_s"])

    def cli(self, args, cwd: str, stats_path: str | None = None) -> Result:
        if stats_path is None:
            argv = [sys.executable, "-m", "hypcount.cli", *args]
        else:
            argv = [sys.executable, os.path.join(BENCH_DIR, "tracing.py"), stats_path, "--", *args]
        return self.run(argv, cwd)


class Pass:
    """One pass over a workload's command list."""

    def __init__(self, wl, runner: Runner, pins: dict, traced: bool):
        pass_dir = tempfile.mkdtemp(dir=WORK_ROOT)
        stats_path = os.path.join(pass_dir, ".trace") if traced else None
        stats = []

        def call(cmd):
            if traced and os.path.exists(stats_path):
                os.remove(stats_path)
            res = runner.cli(cmd.argv, pass_dir, stats_path)
            if traced:
                with open(stats_path) as fh:
                    stats.append(json.load(fh))
            return res

        try:
            self.results = {cmd.key: call(cmd) for cmd in wl.commands}
            self.verdicts = wl.check(self.results, pass_dir, pins)
        finally:
            shutil.rmtree(pass_dir)
        res = self.results.values()
        self.raw_wall_s = sum(r.wall_s for r in res)
        self.wall_s = sum(r.wall_s * r.scale for r in res)
        self.cpu_s = sum(r.cpu_s * r.scale for r in res)
        self.peak_rss_mb = max(r.rss_kb for r in res) / 1024
        self.out_bytes = sum(len(r.stdout) for r in res)
        self.digests = {key: sha256(r.stdout) for key, r in self.results.items()}
        self.stats = tracing.merge_stats(stats) if traced else None


def tally(verdicts) -> tuple:
    """(attempted, known crashes, unexpected failures) of command verdicts."""
    verdicts = list(verdicts)
    known = verdicts.count(KNOWN)
    return len(verdicts), known, len(verdicts) - known - verdicts.count(OK)


def median_summary(values) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    n = len(values)
    text = f"median {statistics.median(values):.4f}"
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is not None:
        q = statistics.quantiles(values, n=1000, method="inclusive")[int(best * 10) - 1]
        text += f", p{best:g} {q:.4f}"
    else:
        text += ", no percentile has 10 samples beyond it"
    return text + f", n={n}"


def setup_times(runner: Runner) -> list:
    """Wall time of a cold `import hypcount.cli` in fresh interpreters,
    in reference-speed seconds."""
    cwd = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        results = [runner.run([sys.executable, "-c", "import hypcount.cli"], cwd)
                   for _ in range(SETUP_REPEATS)]
    finally:
        shutil.rmtree(cwd)
    for res in results:
        if res.rc != 0:
            raise RuntimeError(f"import hypcount.cli failed: {res.stderr.decode()}")
    return [res.wall_s * res.scale for res in results]


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def source_digest() -> str:
    parts = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "hypcount")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                parts.append(os.path.relpath(path, SRC).encode() + b"\0" + fh.read())
    return sha256(b"\0".join(parts))[:16]


def run_workload(runner: Runner, name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.build(name, seed)
    pins = workloads.load_pins()
    Pass(wl, runner, pins, traced=False)  # warm-up: bytecode, file cache
    setup = [] if trace else setup_times(runner)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(Pass(wl, runner, pins, traced=False))
        if trace:
            traced.append(Pass(wl, runner, pins, traced=True))
        if time.perf_counter() - start >= seconds:
            break

    # every pass, traced or not, must print the same bytes per command
    reference = plain[0].digests
    for p in plain[1:] + traced:
        for key, digest in p.digests.items():
            if digest != reference[key] and p.verdicts[key] in (OK, KNOWN):
                p.verdicts[key] = "stdout differs between passes"
    attempted, known, failed = tally(v for p in plain + traced for v in p.verdicts.values())
    reasons = sorted({f"{k}: {v}" for p in plain + traced for k, v in p.verdicts.items()
                      if v not in (OK, KNOWN)})

    print(f"workload {name}  seed {seed}  passes {len(plain)} untraced"
          f"{f', {len(traced)} traced' if trace else ''}  commands/pass {len(wl.commands)}")
    print(f"python {platform.python_version()}  {platform.platform()}  nproc {os.cpu_count()}"
          f"  commit {commit()}  src {source_digest()}")
    for reason in reasons:
        print(f"FAILED {reason}")
    print(f"fail_ratio {(known + failed) / attempted:.4f} ratio"
          f"  ({known} known --table crashes + {failed} unexpected failures of {attempted} commands)")

    if trace:
        overhead = statistics.median(p.wall_s for p in traced) / statistics.median(
            p.wall_s for p in plain)
        per_pass = [tracing.layer_metrics(p.stats, p.out_bytes, overhead) for p in traced]
        metrics = {
            m: {"value": statistics.median(d[m] for d in per_pass), "unit": unit}
            for m, unit in tracing.LAYER_METRICS.items()
        }
        for m, v in metrics.items():
            print(f"{m} {v['value']:.6g} {v['unit']}  (median of {len(per_pass)} traced passes)")
    else:
        samples = {
            "wall_s": [p.wall_s for p in plain],
            "cpu_s": [p.cpu_s for p in plain],
            "setup_s": setup,
            "peak_rss_mb": [p.peak_rss_mb for p in plain],
        }
        metrics = {
            m: {"value": statistics.median(samples[m]), "unit": unit}
            for m, unit in END_TO_END.items()
        }
        for m, values in samples.items():
            print(f"{m} {metrics[m]['value']:.6f} {END_TO_END[m]}  ({median_summary(values)})")
        per_command = [r.wall_s for p in plain for r in p.results.values()]
        print(f"unscaled pass wall s  ({median_summary([p.raw_wall_s for p in plain])})")
        print(f"unscaled command wall s  ({median_summary(per_command)})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hypcount", "cli.py")):
        print(f"error: no hypcount sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    with Runner() as runner:
        reports = {name: run_workload(runner, name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    if len(reports) == 1:
        result = reports[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{n}.{m}": v for n, r in reports.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
