"""polymon benchmark runner.

Run from the root of a polymon checkout:

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 20 --trace 0

A single process runs one workload as a closed loop: one client, the next
operation starts when the previous one returns, no threads.  A helper
process (``helper.py``) times the host's speed, by which every time is
scaled, and starts the cli workload's polymon processes.  Set-up imports
polymon from ./src, builds the seeded deck of operations and warms up; it
runs several times and ``setup_s`` is the median.  The timed phase then
runs whole passes over the deck until ``--seconds`` have gone by,
checking every answer; a failed check or an exception counts as a failed
operation and never stops the run.  Each operation's latency is the
median of its repeats over the passes; ``latency_p50_ms`` and
``latency_tail_ms`` are percentiles over the deck's operations, and
``ops_per_s`` counts operations per second spent inside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a
third of the time untraced and the rest with a span around every call
into polymon, and reports the per-layer metrics derived from the spans,
including the tracing overhead.  The last line of stdout is one JSON
object; the input summary, the answer digest and the spans go to
perfbench/_out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
from array import array
from time import perf_counter

import tracing
import workloads
from helper import CALIBRATION_S, Helper

SETUPS = 5
SPAN_OPS_WRITTEN = 2000
HERE = os.path.dirname(os.path.abspath(__file__))

# Operation time between two calibrations.
CALIBRATE_EVERY_S = 0.05


def load_polymon(src):
    """Import polymon afresh from ``src``, never from anywhere else."""
    for name in [m for m in sys.modules if m == "polymon" or m.startswith("polymon.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    polymon = importlib.import_module("polymon")
    if os.path.dirname(os.path.dirname(os.path.abspath(polymon.__file__))) != src:
        raise ImportError(f"polymon imported from {polymon.__file__}, not from {src}")
    return polymon


def setup(name, seed, root, helper):
    """Import, build the deck, warm up; returns the workload and the
    polymon module it was built with."""
    src = os.path.join(root, "src")
    polymon = load_polymon(src)
    wl = workloads.WORKLOADS[name](polymon, seed, (root, src, os.path.join(HERE, "_out"), helper))
    wl.warm(tracing.bind(polymon, wl.extra))
    return wl, polymon


def input_digest(wl):
    """Digest of the deck: the inputs polymon sees."""
    return hashlib.sha256(repr(workloads.canon([vars(item) for item in wl.deck])).encode()).hexdigest()


def run_passes(wl, calls, seconds, helper, tracer=None, digest=None, failures=None):
    """Whole passes over the deck until ``seconds`` have gone by.  Returns
    the per-operation latencies unscaled and scaled, the failed count and
    the calibration times; the first pass's answers feed ``digest``."""
    latencies = array("d")  # compact: the benchmark's own memory counts in peak_rss_mb
    failed = 0
    cal, marks = [helper.calibrate()], [0]
    busy = 0.0
    end = perf_counter() + seconds
    first = True
    while first or perf_counter() < end:
        for i, item in enumerate(wl.deck):
            if tracer:
                tracer.begin_op(len(latencies))
            t0 = perf_counter()
            try:
                out = wl.op(calls, item)
                ok = True
            except Exception as err:
                out, ok = repr(err), False
            t1 = perf_counter()
            latencies.append(t1 - t0)
            busy += t1 - t0
            if ok:
                try:
                    ok = wl.check(item, out)
                except Exception as err:
                    ok, out = False, repr(err)
            if tracer:
                tracer.end_op(t1, not ok)
            if not ok:
                failed += 1
                if failures is not None and len(failures) < 5:
                    failures.append(f"deck item {i}: {str(out)[:300]}")
            if first and digest is not None:
                digest.update(repr(workloads.canon(out)).encode())
            if busy >= CALIBRATE_EVERY_S:
                cal.append(helper.calibrate())
                marks.append(len(latencies))
                busy = 0.0
        first = False
    cal.append(helper.calibrate())
    marks.append(len(latencies))
    return latencies, scale(latencies, cal, marks), failed, cal


def scale(times, cal, marks):
    """``times`` at the speed of a host where the calibration takes
    CALIBRATION_S.  times[marks[k]:marks[k + 1]] ran between calibrations k
    and k + 1 and are scaled by their mean.  (The median of more
    calibrations around them tracked the host worse: its speed changes
    within a fraction of a second.)"""
    scaled = array("d")
    for k in range(len(cal) - 1):
        factor = 2 * CALIBRATION_S / (cal[k] + cal[k + 1])
        scaled.extend(t * factor for t in times[marks[k]:marks[k + 1]])
    return scaled


def percentile(sorted_values, pct):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "polymon", "__init__.py")):
        print("perfbench: no polymon sources under ./src; run from the root of a polymon checkout", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    with Helper() as helper:
        metrics, details, attempted, failed, wl = measure(args, root, helper)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(HERE, "_out", f"{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "inputs": wl.summary, "input_digest": input_digest(wl), **details, **result}, fh, indent=1)
    for failure in details["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(f"inputs: {json.dumps(wl.summary)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"rss_start_mb = {details['rss_start_mb']:.6g} MB, "
              f"rss_after_setup_mb = {details['rss_after_setup_mb']:.6g} MB")
    print(json.dumps(result))
    return 0


def measure(args, root, helper):
    """Set up SETUPS times, then run the timed phase.  Returns the metrics,
    the details for the results file, the attempted and failed counts and
    the workload."""
    rss_start = rss_mb()
    setups, setup_cal = [], [helper.calibrate()]
    for _ in range(SETUPS):
        wl = polymon = None  # never two decks alive at once
        gc.collect()
        t0 = perf_counter()
        wl, polymon = setup(args.workload, args.seed, root, helper)
        setups.append(perf_counter() - t0)
        setup_cal.append(helper.calibrate())
    rss_after_setup = rss_mb()
    gc.collect()
    gc.freeze()

    digest = hashlib.sha256()
    failures = []
    calls = tracing.bind(polymon, wl.extra)
    details = {"setup_runs_s": setups, "failures": failures}
    if args.trace:
        _, untraced, failed, _ = run_passes(wl, calls, args.seconds / 3, helper, digest=digest,
                                            failures=failures)
        tracer = tracing.Tracer()
        traced_calls = tracing.bind(polymon, wl.extra, tracer)
        _, traced, failed_traced, _ = run_passes(wl, traced_calls, args.seconds * 2 / 3, helper, tracer,
                                                 failures=failures)
        wl.probes(traced_calls)
        attempted, failed = len(untraced) + len(traced), failed + failed_traced
        overhead = statistics.fmean(traced) / statistics.fmean(untraced)
        metrics = tracing.layer_metrics(tracer, overhead)
        tracer.write(os.path.join(HERE, "_out", f"spans-{args.workload}.tsv"), SPAN_OPS_WRITTEN)
        return metrics, {**details, "answer_digest": digest.hexdigest()}, attempted, failed, wl

    latencies, scaled, failed, cal = run_passes(wl, calls, args.seconds, helper, digest=digest,
                                                failures=failures)
    attempted = len(latencies)
    at_speed = summary(wl, scaled, scale(setups, setup_cal, range(SETUPS + 1)))
    metrics = {
        "ops_per_s": (at_speed["ops_per_s"], "1/s"),
        "latency_p50_ms": (at_speed["latency_p50_ms"], "ms"),
        "latency_tail_ms": (at_speed["latency_tail_ms"], "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        # The process doing the work: this one, or for cli the largest
        # polymon process.
        "peak_rss_mb": (helper.children_peak_rss_mb() if args.workload == "cli" else rss_mb(), "MB"),
        "setup_s": (at_speed["setup_s"], "s"),
    }
    details.update({
        "answer_digest": digest.hexdigest(), "tail_percentile": wl.tail_pct, "samples": attempted,
        "passes": attempted // len(wl.deck),
        "operations_beyond_tail": len(wl.deck) - max(1, math.ceil(wl.tail_pct / 100 * len(wl.deck))),
        "unscaled": summary(wl, latencies, setups), "calibrations": len(cal),
        "calibration_mean_s": statistics.fmean(cal), "rss_start_mb": rss_start,
        "rss_after_setup_mb": rss_after_setup})
    return metrics, details, attempted, failed, wl


def summary(wl, times, setup_times):
    """The timed end-to-end figures from per-operation times.  The deck
    repeats whole; each operation's latency is the median of its repeats,
    which a stall on one pass does not move."""
    n = len(wl.deck)
    per_op = sorted(statistics.median(times[j::n]) for j in range(n))
    return {"ops_per_s": len(times) / sum(times), "latency_p50_ms": statistics.median(per_op) * 1e3,
            "latency_tail_ms": percentile(per_op, wl.tail_pct) * 1e3, "setup_s": statistics.median(setup_times)}


if __name__ == "__main__":
    sys.exit(main())
