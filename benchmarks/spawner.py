"""Launcher of the measured children: one CPU, a small memory footprint and
a speed probe.

Linux carries the parent's RSS high-water mark into a child's `ru_maxrss`
across fork (or vfork) and exec.  The benchmark process grows as it checks
outputs, so it does not start the measured children itself: it starts this
process first and sends it one JSON request per line,
`{"argv": [...], "cwd": ..., "stdout": path, "stderr": path}`.  For each
request it runs the child to completion and answers with one JSON line:
exit code, wall time from spawn to reap, the child's CPU time and maximum
RSS from `os.wait4`, and `probe_s`, the median CPU time of the speed probe
while the child ran.  Children inherit this process's environment.

The speed probe is a thread that runs a fixed piece of work (`probe_work`)
every PROBE_PERIOD_S on the same CPU as the children and records its CPU
time.  On a shared host the CPU's speed changes while a command runs; the
benchmark scales each child's times by the probe's (see NOTES.md).
"""

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

TIMEOUT_S = 120
PROBE_PERIOD_S = 0.03
PROBE_MIN_SAMPLES = 5

_PERMS = [tuple(v ^ t for v in range(16)) for t in range(16)]
_CONFIGS = [tuple((i >> (v % 5)) & 3 for v in range(16)) for i in range(24)]
_FACTOR = [(i * 7919) % 1000003 for i in range(32)]


def probe_work() -> int:
    """Fixed work in the style of the package's hot paths: lex-least
    translates of multiplicity profiles, a dict of tuples, and an integer
    convolution.  Never change it; its CPU time is the benchmark's unit."""
    reps = {}
    for config in _CONFIGS:
        rep = min(tuple(config[p[v]] for v in range(16)) for p in _PERMS)
        reps[rep] = reps.get(rep, 0) + 1
    out = [0] * 64
    for i, x in enumerate(_FACTOR):
        for j, y in enumerate(_FACTOR):
            out[i + j] += x * y
    return len(reps) + out[23] % 7


class Probe(threading.Thread):
    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []  # (perf_counter at the end, CPU seconds of one probe_work)
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(PROBE_PERIOD_S):
            start = time.thread_time()
            probe_work()
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def cost_during(self, start: float, end: float) -> float:
        """Median probe CPU time in [start, end]; with fewer than
        PROBE_MIN_SAMPLES samples inside, the samples nearest to it."""
        samples = self.samples[-4000:]
        inside = [cpu for t, cpu in samples if start <= t <= end]
        if len(inside) < PROBE_MIN_SAMPLES:
            nearest = sorted(samples, key=lambda s: max(start - s[0], s[0] - end, 0.0))
            inside = [cpu for _, cpu in nearest[:PROBE_MIN_SAMPLES]]
        return statistics.median(inside)


def main() -> None:
    # One CPU for the probe and every child: the CPUs of a shared host
    # change speed independently.  Threads and children inherit it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = Probe()
    probe.start()
    while len(probe.samples) < PROBE_MIN_SAMPLES:
        time.sleep(PROBE_PERIOD_S)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=req["cwd"])
            killer = threading.Timer(TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"rc": proc.returncode, "wall_s": end - start,
                 "cpu_s": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss,
                 "probe_s": probe.cost_during(start, end)}
        print(json.dumps(reply), flush=True)
    probe.done.set()
    probe.join()


if __name__ == "__main__":
    main()
