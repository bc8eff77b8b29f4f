"""A helper process of the benchmark's own: it calibrates host speed and
starts the cli workload's polymon processes.

The speed of a shared host drifts by up to 30% within seconds, which no
affordable run length averages out.  On request the helper times a fixed
pure-Python loop over the benchmark's reference arithmetic.  It never
imports polymon and shares nothing with the process under test but the
machine, so a change to polymon's heap, GC load or imports cannot move the
calibration.

The helper and the benchmark process are pinned to one CPU: the vCPUs of a
shared host drift apart in speed, and a calibration run on another CPU
than the operations does not track their speed.

Child processes inherit their parent's peak resident memory at exec, so
polymon processes started from the benchmark process would report that
process's peak, not their own.  Started from the small helper, the largest
one's peak shows in the helper's RUSAGE_CHILDREN.

Run directly, this file is the helper: one JSON request a line on stdin,
one JSON answer a line on stdout.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from time import perf_counter

# Typical time of one calibration on 2 vCPUs with Python 3.11.7; scaled
# times are given at the speed of a host where it takes this long.
CALIBRATION_S = 0.0053
PAIRS_PER_CALL = 500


def pairs():
    """A fixed working set of nonzero element pairs over three letters,
    sizes 0-8, a few hundred kilobytes."""
    rng = random.Random(0)

    def element():
        s = rng.randint(0, 8)
        w = tuple(rng.randrange(3) for _ in range(s))
        k = rng.randint(0, s)
        return w[:k], w[k:]

    return [(element(), element()) for _ in range(4000)]


def calibrate(work, i, ref):
    """Seconds the i-th slice of ``work`` takes to multiply and render."""
    start = PAIRS_PER_CALL * i % len(work)
    seen = {}
    t0 = perf_counter()
    for x, y in work[start:start + PAIRS_PER_CALL]:
        seen[x] = ref.mul(x, y)
        ref.text(x)
    return perf_counter() - t0


class Helper:
    """The benchmark's side of the helper process."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self.cpus = os.sched_getaffinity(0)
        cpu = {min(self.cpus)}
        os.sched_setaffinity(0, cpu)
        os.sched_setaffinity(self.proc.pid, cpu)

    def _ask(self, *request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("benchmark helper process ended early")
        return json.loads(line)

    def calibrate(self):
        """Seconds one calibration takes right now."""
        return self._ask("calibrate")

    def run(self, cmd, cwd, env):
        """Run one process to its end; returns (exit status, stdout, stderr)."""
        return tuple(self._ask("run", cmd, cwd, env))

    def children_peak_rss_mb(self):
        """Peak resident memory of the largest process run so far, in MiB."""
        return self._ask("rss")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.sched_setaffinity(0, self.cpus)
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=150)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def main():
    import reference as ref

    work = pairs()
    calls = 0
    for line in sys.stdin:
        kind, *args = json.loads(line)
        if kind == "calibrate":
            answer = calibrate(work, calls, ref)
            calls += 1
        elif kind == "run":
            cmd, cwd, env = args
            try:
                r = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
                answer = [r.returncode, r.stdout, r.stderr]
            except subprocess.TimeoutExpired:
                answer = [None, "", "timed out after 120 s"]
        else:
            answer = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        print(json.dumps(answer), flush=True)


if __name__ == "__main__":
    main()
