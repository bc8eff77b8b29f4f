"""Tests of the benchmark itself.  From the repository root:

    python -m pytest perfbench -q

Each ``run.py`` call here uses ``--seconds 0``, which runs one whole pass
over the deck.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from helper import Helper  # noqa: E402


@functools.lru_cache(maxsize=None)
def bench(name, seed, trace):
    """Run the benchmark for one pass; returns (last stdout line, results file)."""
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                        "--seconds", "0", "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True,
                       timeout=300)
    assert r.returncode == 0, r.stderr
    with open(os.path.join(HERE, "_out", f"{name}-trace{trace}.json")) as fh:
        record = json.load(fh)
    return json.loads(r.stdout.strip().splitlines()[-1]), record


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec, {m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs_and_answers(name):
    first, first_record = bench(name, 11, 0)
    bench.cache_clear()
    second, second_record = bench(name, 11, 0)
    assert first["failed"] == second["failed"] == 0
    assert first_record["input_digest"] == second_record["input_digest"]
    assert first_record["answer_digest"] == second_record["answer_digest"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_different_seed_gives_different_inputs(name):
    with Helper() as helper:
        digests = {run.input_digest(run.setup(name, seed, ROOT, helper)[0]) for seed in (1, 2)}
    assert len(digests) == 2


def test_workload_names_match_benchmark_json():
    spec, _, _ = declared()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name,trace", [("algebra", 0), ("algebra", 1), ("cli", 1)])
def test_printed_metrics_are_declared_with_units(name, trace):
    _, end_to_end, per_layer = declared()
    result, _ = bench(name, 5, trace)
    want = per_layer if trace else end_to_end
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_cli_probes_show_known_tracebacks():
    result, _ = bench("cli", 5, 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["failed"] == 0
    assert metrics["cli.startup.calls"] == metrics["cli.interpreter.calls"] == 3
    assert metrics["cli.traceback_count"] == metrics["cli.eval.failed"] + metrics["cli.export-dot.failed"]


def test_planted_wrong_answers_are_counted_as_failed():
    wl, polymon = run.setup("algebra", 3, ROOT, None)
    wl.deck = wl.deck[:20]
    calls = tracing.bind(polymon, wl.extra)
    for item in wl.deck:
        out = wl.op(calls, item)
        assert wl.check(item, out)
        product = out[0]
        corrupted = polymon.one(product.alphabet) if product.is_zero else polymon.zero(product.alphabet)
        assert not wl.check(item, (corrupted, *out[1:]))

    def wrong(x, y):
        p = x * y
        if x.size == 0:
            raise ArithmeticError("planted")
        return polymon.one(p.alphabet) if p.is_zero else polymon.zero(p.alphabet)

    calls.mul = wrong
    failures = []
    with Helper() as helper:
        latencies, _, failed, _ = run.run_passes(wl, calls, 0, helper, failures=failures)
    assert failed == len(latencies) == len(wl.deck)
    assert failures


def test_planted_slowdown_keeps_its_ratio_after_scaling():
    """A slowdown that grows the heap and the GC load of the process under
    test must come through the speed scaling whole: the calibration runs
    in the helper process, which that state cannot reach.  Short runs of
    the plain and the slowed operation alternate, so host drift hits both
    alike."""
    pairs = [((tuple(range(i % 5)), (1, 2)), ((2, 1), (0,) * (i % 4))) for i in range(200)]
    kept = []

    def plain(_, item):
        return [ref.mul(x, y) for x, y in pairs]

    def slowed(calls, item):
        kept.append([[i] for i in range(2000)])  # retained: the heap and every full collection grow
        return plain(calls, item)

    wl = SimpleNamespace(deck=[None], check=lambda item, out: True)
    speed = {plain: ([], []), slowed: ([], [])}
    with Helper() as helper:
        for _ in range(4):
            for op, (unscaled, scaled) in speed.items():
                wl.op = op
                times, at_speed, failed, _ = run.run_passes(wl, None, 0.25, helper)
                assert failed == 0
                unscaled.append(len(times) / sum(times))
                scaled.append(len(at_speed) / sum(at_speed))
    ratio = {k: statistics.median(speed[slowed][k]) / statistics.median(speed[plain][k]) for k in (0, 1)}
    assert ratio[0] < 0.8  # the slowdown is real
    assert abs(ratio[1] / ratio[0] - 1) < 0.15


def test_refuses_to_run_without_polymon_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "algebra", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert r.returncode != 0
    assert r.stdout == ""
