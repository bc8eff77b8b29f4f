"""Spans around the benchmark's calls into polymon, and the per-layer
metrics derived from them.

The layers are polymon's modules.  ``bind`` returns the table of callables
an operation uses: the library functions themselves in an untraced run, or
wrappers that record one span per call in a traced run.  Spans are held in
memory as parallel arrays and written out when the run ends.
"""

from __future__ import annotations

import re
import statistics
from array import array
from time import perf_counter
from types import SimpleNamespace


def _count(out, args):
    return len(out), 0, False


def _reduce(out, args):
    return out.is_zero, 0, False


def _collapse(out, args):
    return out is not None, out.depth if out is not None else 0, False


def _shrink(out, args):
    before = len(args[1].excluded)
    return len(out.excluded) - before, before, False


def _hashed(out, args):
    return len(args[1]), 0, False


_TOKEN = re.compile(r"g\d+|\^-1|\S")


def _tokens(out, args):
    return len(_TOKEN.findall(args[0])), 0, False


def _cli(out, args):
    code, _, err = out
    traceback = "Traceback" in err
    clean = code in (0, 1, 2) and not traceback
    return traceback, clean, not clean


# callable name -> (span name, measure); a measure maps (result, args) to
# (value, base, failed), summed per span name into the metrics below.
LAYERS = {
    "element": ("core.element", None),
    "mul": ("core.mul", None),
    "index": ("core.hash", _hashed),
    "mul_oracle": ("rewriting.mul_oracle", None),
    "reduce": ("rewriting.reduce", _reduce),
    "collapse_witness": ("rewriting.collapse_witness", _collapse),
    "verify_derivation": ("rewriting.verify_derivation", None),
    "solve_axb": ("green.solve_axb", _count),
    "ball": ("green.ball", _count),
    "act": ("green.act", None),
    "rclass_key": ("green.rclass", None),
    "rclass_witness": ("green.rclass", None),
    "cofinite": ("topology.cofinite", None),
    "shrink_neighborhood": ("topology.shrink_neighborhood", _shrink),
    "certify_translations": ("topology.certify_translations", _count),
    "parse": ("parsing.parse", _tokens),
    "evaluate": ("parsing.evaluate", None),
}

CLI_KINDS = ("eval", "solve", "ball", "collapse", "continuity", "act", "downset", "export-dot",
             "startup", "interpreter")

SPAN_NAMES = sorted({name for name, _ in LAYERS.values()} | {f"cli.{k}" for k in CLI_KINDS})


class Tracer:
    """Spans in memory: name, start, end, parent span, operation id, and
    the measure's (value, base, failed).  Operation spans are named "op"
    and parent every call made inside them."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self.value = array("d")
        self.base = array("d")
        self._op = -1
        self._op_span = -1

    def add(self, name, start, end, value=0, base=0, failed=False):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(self._op_span)
        self.op.append(self._op)
        self.failed.append(bool(failed))
        self.value.append(float(value))
        self.base.append(float(base))
        return len(self.start) - 1

    def begin_op(self, op_id):
        self._op = op_id
        self._op_span = -1
        self._op_span = self.add("op", perf_counter(), 0.0)

    def end_op(self, end, failed):
        span = self._op_span
        self.end[span] = end
        self.failed[span] = bool(failed)
        self._op = self._op_span = -1

    def wrap(self, name, fn, measure):
        def call(*args):
            t0 = perf_counter()
            try:
                out = fn(*args)
            except Exception:
                self.add(name(args) if callable(name) else name, t0, perf_counter(), failed=True)
                raise
            t1 = perf_counter()
            value, base, failed = measure(out, args) if measure else (0, 0, False)
            self.add(name(args) if callable(name) else name, t0, t1, value, base, failed)
            return out
        return call

    def totals(self):
        """Per span name: calls, failed, busy seconds, value and base sums,
        durations.  Calls carry no child spans, so busy time is self time."""
        out = {}
        for i in range(len(self.start)):
            t = out.setdefault(self.names[self.name[i]],
                               {"calls": 0, "failed": 0, "busy": 0.0, "value": 0.0, "base": 0.0, "durations": []})
            d = self.end[i] - self.start[i]
            t["calls"] += 1
            t["failed"] += self.failed[i]
            t["busy"] += d
            t["value"] += self.value[i]
            t["base"] += self.base[i]
            t["durations"].append(d)
        return out

    def write(self, path, max_ops):
        """Spans of the first ``max_ops`` operations (and every span made
        outside an operation) as tab-separated text, times in seconds."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart\tend\tparent\top\tfailed\tvalue\tbase\n")
            for i in range(len(self.start)):
                if self.op[i] >= max_ops:
                    continue
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                         f"{self.parent[i]}\t{self.op[i]}\t{self.failed[i]}\t{self.value[i]:g}\t{self.base[i]:g}\n")


def bind(polymon, extra, tracer=None):
    """The callables an operation uses.  ``extra`` supplies the ones that
    are not polymon functions (``mul``, ``index``, ``cli``)."""
    calls = {}
    for attr, (name, measure) in LAYERS.items():
        fn = extra[attr] if attr in extra else getattr(polymon, attr)
        calls[attr] = tracer.wrap(name, fn, measure) if tracer else fn
    if "cli" in extra:
        run = extra["cli"]
        calls["cli"] = tracer.wrap(lambda args: f"cli.{args[0]}", run, _cli) if tracer else run
    return SimpleNamespace(**calls)


def layer_metrics(tracer, overhead_ratio):
    """Every per-layer metric by name, as (value, unit); a span never
    called gives 0."""
    tot = tracer.totals()
    empty = {"calls": 0, "failed": 0, "busy": 0.0, "value": 0.0, "base": 0.0, "durations": []}

    def t(name):
        return tot.get(name, empty)

    def per(num, den):
        return num / den if den else 0.0

    def mean_us(name):
        return per(t(name)["busy"], t(name)["calls"]) * 1e6

    def p50_ms(name):
        d = t(name)["durations"]
        return statistics.median(d) * 1e3 if d else 0.0

    m = {
        "core.mul.busy_s": (t("core.mul")["busy"], "s"),
        "core.mul.mean_us": (mean_us("core.mul"), "us"),
        "core.element.mean_us": (mean_us("core.element"), "us"),
        "core.hash.mean_us": (per(t("core.hash")["busy"], t("core.hash")["value"]) * 1e6, "us"),
        "rewriting.mul_oracle.mean_us": (mean_us("rewriting.mul_oracle"), "us"),
        "rewriting.reduce.busy_s": (t("rewriting.reduce")["busy"], "s"),
        "rewriting.reduce.zero_ratio": (per(t("rewriting.reduce")["value"], t("rewriting.reduce")["calls"]), "ratio"),
        "rewriting.collapse_witness.busy_s": (t("rewriting.collapse_witness")["busy"], "s"),
        "rewriting.collapse_witness.found_ratio": (
            per(t("rewriting.collapse_witness")["value"], t("rewriting.collapse_witness")["calls"]), "ratio"),
        "rewriting.collapse_witness.depth_sum": (t("rewriting.collapse_witness")["base"], "count"),
        "rewriting.verify_derivation.busy_s": (t("rewriting.verify_derivation")["busy"], "s"),
        "green.solve_axb.busy_s": (t("green.solve_axb")["busy"], "s"),
        "green.solve_axb.solutions": (t("green.solve_axb")["value"], "count"),
        "green.ball.busy_s": (t("green.ball")["busy"], "s"),
        "green.ball.elements": (t("green.ball")["value"], "count"),
        "green.act.mean_us": (mean_us("green.act"), "us"),
        "green.rclass.mean_us": (mean_us("green.rclass"), "us"),
        "topology.shrink_neighborhood.busy_s": (t("topology.shrink_neighborhood")["busy"], "s"),
        "topology.shrink_neighborhood.dropped_per_excluded": (
            per(t("topology.shrink_neighborhood")["value"], t("topology.shrink_neighborhood")["base"]), "ratio"),
        "topology.certify_translations.busy_s": (t("topology.certify_translations")["busy"], "s"),
        "topology.certify_translations.counterexamples": (t("topology.certify_translations")["value"], "count"),
        "parsing.parse.busy_s": (t("parsing.parse")["busy"], "s"),
        "parsing.parse.tokens_per_s": (per(t("parsing.parse")["value"], t("parsing.parse")["busy"]), "1/s"),
        "parsing.evaluate.busy_s": (t("parsing.evaluate")["busy"], "s"),
    }
    for kind in ("eval", "solve", "ball", "collapse", "continuity", "export-dot"):
        m[f"cli.{kind}.latency_p50_ms"] = (p50_ms(f"cli.{kind}"), "ms")
    m["cli.startup_ms"] = (p50_ms("cli.startup"), "ms")
    m["cli.interpreter_ms"] = (p50_ms("cli.interpreter"), "ms")
    cli = [t(f"cli.{k}") for k in CLI_KINDS]
    m["cli.exit_ok_ratio"] = (per(sum(c["base"] for c in cli), sum(c["calls"] for c in cli)), "ratio")
    m["cli.traceback_count"] = (sum(c["value"] for c in cli), "count")
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (t(name)["calls"], "count")
        m[f"{name}.failed"] = (t(name)["failed"], "count")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m
