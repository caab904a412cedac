"""Tests of the benchmark itself; nothing here asserts a timing.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import spawner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import KNOWN, OK, Command, Workload  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    # root [0,10] -> a [1,4] -> a1 [2,3]; root -> b [5,9] -> c [5.5,6.5], c [7,8]
    ticks = iter([0, 1, 2, 3, 4, 5, 5.5, 6.5, 7, 8, 9, 10])
    rec = tracing.SpanRecorder(clock=lambda: next(ticks))
    rec.enter("root")
    rec.enter("a")
    rec.enter("a1")
    rec.exit()
    rec.exit()
    rec.enter("b")
    for _ in range(2):
        rec.enter("c")
        rec.exit()
    rec.exit()
    rec.exit()
    spans = rec.spans()
    assert spans["root"] == [1, 10, 3]
    assert spans["a"] == [1, 3, 2]
    assert spans["a1"] == [1, 1, 1]
    assert spans["b"] == [1, 4, 2]
    assert spans["c"] == [2, 2, 2]
    assert sum(s[2] for s in spans.values()) == spans["root"][1]


def test_probe_cost_during_a_command():
    probe = spawner.Probe()
    probe.samples = [(t / 10, 0.001 if 10 <= t <= 30 else 0.002) for t in range(50)]
    assert probe.cost_during(1.0, 3.0) == 0.001  # 21 samples inside
    assert probe.cost_during(4.02, 4.03) == 0.002  # nearest five
    assert probe.cost_during(0.95, 1.05) == 0.001  # 1 inside, 2 + 2 nearest at 0.001


def _lru_caches():
    import hypcount

    out = {}
    for modname in ("qforms", "trig", "counting", "numtheory", "kummer"):
        mod = getattr(hypcount, modname)
        for name, obj in vars(mod).items():
            if tracing._is_cached(obj):
                out[f"{modname}.{name}"] = obj
    return out


def _workload_calls():
    from hypcount import counting, qforms, trig, verify

    results, ok = verify.run_suite(["counting"], 16)
    return [
        counting.genus_total(3, 12).to_json(),
        qforms.named_form("A", k=3, order=48).to_json(),
        counting.f_gk_via_potential((3, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0), 16),
        trig.andrews_rose_G(12, 4),
        [(r.name, r.ok, r.detail) for r in results],
        ok,
    ]


def _cold_run():
    for fn in _lru_caches().values():
        fn.cache_clear()
    values = _workload_calls()
    return values, {name: fn.cache_info() for name, fn in _lru_caches().items()}


def test_wrappers_are_transparent():
    from hypcount import cli, fps, kummer, qforms, verify

    plain_values, plain_info = _cold_run()
    before = (qforms.macmahon_A_recursive, list(verify.CHECKS), fps.Series.__mul__, cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qforms.macmahon_A_recursive is not before[0]
        assert kummer.orbit_rep.__module__ == "hypcount.kummer"  # left unwrapped
        traced_values, traced_info = _cold_run()
        assert qforms.macmahon_A_recursive.cache_info() == traced_info["qforms.macmahon_A_recursive"]
    finally:
        tracer.uninstall()
    assert traced_values == plain_values
    assert traced_info == plain_info
    assert (qforms.macmahon_A_recursive, list(verify.CHECKS), fps.Series.__mul__, cli.main) == before
    stats = tracer.stats()
    assert stats["spans"]["counting.f_gk"][0] > 0
    assert stats["spans"]["verify.check.genus1-pipeline"][0] == 1
    assert stats["counters"]["kummer.orbit_classes"] > 0


@pytest.mark.parametrize("args", ["genus --g 3 --order 12 --table", "genus --g 3 --order 11 --table"])
def test_traced_child_prints_what_the_cli_prints(args, tmp_path):
    with run.Runner() as runner:
        plain = runner.cli(args.split(), str(tmp_path))
        traced = runner.cli(args.split(), str(tmp_path), str(tmp_path / "stats.json"))
    assert (traced.rc, traced.stdout) == (plain.rc, plain.stdout)
    assert traced.stderr.splitlines()[-1:] == plain.stderr.splitlines()[-1:]
    stats = json.loads((tmp_path / "stats.json").read_text())
    metrics = tracing.layer_metrics(tracing.merge_stats([stats]), len(traced.stdout), 1.0)
    assert list(metrics) == list(tracing.LAYER_METRICS)
    assert metrics["kummer.orbit_classes"] == 59
    assert metrics["counting.f_gk.calls"] == 59


def _genus_pass(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_ROOT", str(tmp_path))
    wl = Workload("genus", [Command(tuple(c.split())) for c in (
        "genus --g 3 --order 12 --table",
        "genus --g 3 --order 12 --format json",
        "genus --g 3 --order 11 --table",
    )])
    config = (3, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0)
    for c in (config, workloads.translate(config, 5)):
        wl.commands.append(Command(("fgk", "--config", ",".join(map(str, c)), "--format", "json")))
    wl.pairs.append((wl.commands[-2].key, wl.commands[-1].key))
    with run.Runner() as runner:
        return wl, run.Pass(wl, runner, workloads.load_pins(), traced=False)


def _fail_ratio(verdicts):
    attempted, known, failed = run.tally(verdicts)
    return (known + failed) / attempted, failed


def test_corrupted_outputs_raise_fail_ratio(tmp_path, monkeypatch):
    wl, p = _genus_pass(tmp_path, monkeypatch)
    assert list(p.verdicts.values()) == [OK, OK, KNOWN, OK, OK]
    assert _fail_ratio(p.verdicts.values()) == (1 / 5, 0)
    pins = workloads.load_pins()
    table, js, _, fgk, moved = (c.key for c in wl.commands)

    # a changed total breaks the table/JSON agreement and the pinned digest
    data = json.loads(p.results[js].stdout)
    data["total"][6] = str(int(data["total"][6]) + 1)
    p.results[js].stdout = json.dumps(data).encode()
    verdicts = wl.check(p.results, str(tmp_path), pins)
    assert verdicts[js] != OK
    ratio, failed = _fail_ratio(verdicts.values())
    assert failed == 1 and ratio > 1 / 5

    # a translate with other coefficients breaks the fgk pair
    data = json.loads(p.results[moved].stdout)
    data["coeffs"][-1] = "99"
    p.results[moved].stdout = json.dumps(data).encode()
    assert wl.check(p.results, str(tmp_path), pins)[moved] != OK


def test_verify_check_pins_the_known_failure():
    lines = [f"[PASS] suite:check-{i}  detail  (source)" for i in range(41)]
    good = lines + ["[FAIL] counting:table-total-row  detail  (Table 1)", "41/42 checks passed"]
    bad = lines[:-1] + ["[FAIL] suite:check-40  x  (s)"] + good[-2:]
    wl = workloads.build("verify", 0)

    def verdict(stdout, rc=1):
        res = workloads.Result(rc, "\n".join(stdout).encode(), b"", 0.0, 0.0, 0)
        return wl.check({workloads.VERIFY_CMD: res}, "", {"stdout": {}})[workloads.VERIFY_CMD]

    assert verdict(good) == OK
    assert verdict(bad) != OK
    assert verdict(good, rc=0) != OK


def test_layout_parsers():
    text = "total: -u^2 + 3u^4 - 12u^5 + 7\n"
    assert workloads.total_from_text(text, 5) == [7, 0, -1, 0, 3, -12]
    rows = [("shape", "mult", "q^2", "q^3", "q^4"), ("E^2", "3", "1", "", "12"),
            ("F_3(u)", "", "3", "", "100")]
    table = "".join(r[0].ljust(6) + "  " + "  ".join(c.rjust(4) for c in r[1:]) + "\n" for r in rows)
    assert workloads.total_from_table(table, 4) == [None, None, 3, 0, 100]
    assert workloads.agree([None, None, 3, 0, 100], [0, 0, 3, 0, 100])
    assert not workloads.agree([None, None, 3, 0, 100], [0, 0, 3, 1, 100])


def test_seeded_inputs():
    from hypcount import kummer

    for name in workloads.NAMES:
        assert workloads.build(name, 7) == workloads.build(name, 7)
    genus = workloads.build("genus", 7)
    assert genus != workloads.build("genus", 8)
    keys = [c.key for c in genus.commands]
    assert len(keys) == len(set(keys))
    assert len(genus.pairs) == workloads.GENUS_PROFILES
    for key in (k for pair in genus.pairs for k in pair):
        config = [int(v) for v in key.split()[2].split(",")]
        assert kummer.admissible(kummer.odd_support(config)) is not None
    forms = workloads.build("forms", 7)
    assert forms.commands[0].key == workloads.FORMS_WRITE
    assert len(workloads.admissible_supports()) == 64


def test_benchmark_json_names_what_the_benchmark_reports():
    from hypcount import verify

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert list(tracing.CHECK_NAMES) == [entry[1] for entry in verify.CHECKS]
    assert spec["paths"] == ["benchmarks"]


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for name in os.listdir(BENCH_DIR):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(BENCH_DIR, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "genus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
