"""Spans around the library's public callables, and the per-layer metrics they give.

Wrappers are installed only around a traced op and removed after it, so an
untraced op runs the library exactly as shipped.  Each wrapper is attached
where its caller looks the name up: ``pipelines`` binds ``solve_pair``,
``solve``, ``invariance_check`` and ``parse_curve`` at import time, so those
names are wrapped there as well as in their home modules.  ``expr.evaluate``
recurses through its module global and is left unwrapped (a span per AST
node); its cost shows as self time of the spans that call it.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np

import workloads  # noqa: F401  (puts this checkout's src/ on sys.path)

from interlace import curve, dichotomy, expr, field, integrate, pipelines, registry, report, sat, series

ROOT_SPAN = "op"


class Tracer:
    """Spans kept in memory: name, start, end, parent span and op id.

    Spans are stored in the order they open, so the descendants of span i
    are exactly the spans i+1 .. last[i].
    """

    def __init__(self):
        self.names = []  # span name by name id
        self._ids = {}
        self.name, self.parent, self.op, self.start, self.end, self.last = [], [], [], [], [], []
        self.outer = []  # no ancestor has the same name (recursion counted once in totals)
        self.counts = []  # per op: counts reported by the wrappers' notes
        self._stack = []
        self._active = Counter()
        self._pending = []

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(len(self.counts) - 1)
        self.outer.append(not self._active[nid])
        self.end.append(0.0)
        self.last.append(i)
        self._stack.append(i)
        self._active[nid] += 1
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self.last[i] = len(self.start) - 1
        self._stack.pop()
        self._active[self.name[i]] -= 1

    def run_op(self, fn):
        """Run one op under a root span; notes are evaluated after it ends."""
        self.counts.append(Counter())
        root = self.open(ROOT_SPAN)
        try:
            return fn()
        finally:
            self.close(root)
            for note, i, args, result in self._pending:
                note(self, i, args, result)
            self._pending.clear()

    def count_in(self, i, name):
        """Number of spans called ``name`` below span i."""
        nid = self._ids.get(name)
        return sum(1 for j in range(i + 1, self.last[i] + 1) if self.name[j] == nid)

    def add(self, key, value):
        self.counts[-1][key] += value

    def maximum(self, key, value):
        self.counts[-1][key] = max(self.counts[-1][key], value)

    def wrap(self, span_name, fn, note=None):
        def traced(*args, **kwargs):
            i = self.open(span_name if isinstance(span_name, str) else span_name(*args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if note is not None:
                self._pending.append((note, i, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def roots(self):
        return [i for i, p in enumerate(self.parent) if p == -1]

    def op_summary(self, root):
        """Calls, outermost total time and self time per span name, for one op."""
        child_s = defaultdict(float)
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        span_range = range(root + 1, self.last[root] + 1)
        for i in span_range:
            child_s[self.parent[i]] += self.end[i] - self.start[i]
        for i in span_range:
            name = self.names[self.name[i]]
            d = self.end[i] - self.start[i]
            calls[name] += 1
            if self.outer[i]:
                total[name] += d
            self_s[name] += d - child_s[i]
        op_s = self.end[root] - self.start[root]
        return {
            "calls": calls, "total": total, "self": self_s,
            "counts": self.counts[self.op[root]], "op_s": op_s,
            "covered_share": child_s[root] / op_s, "spans": len(span_range),
        }

    def dump(self, path):
        """Write every span out as compressed arrays (times relative to the first span)."""
        t0 = self.start[0] if self.start else 0.0
        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32), op=np.array(self.op, dtype=np.int32),
            start=np.array(self.start) - t0, end=np.array(self.end) - t0,
        )


# -- notes: counts read from the wrapped calls' arguments and results -----------


def _note_solve(t, i, args, result):
    traj = result[0] if isinstance(result, tuple) else result
    t.add("integrate.steps", traj.meta["n_steps"])
    t.add("integrate.rejected", traj.meta["n_rejected"])
    t.maximum("integrate.max_error_ratio", traj.meta["max_error_ratio"])
    if isinstance(result, tuple):
        rhs = t.count_in(i, "field.rhs")
        share = t.count_in(i, "field.gap_mp") / (2 * rhs) if rhs else 0.0
        t.add(f"field.gap_mp_share.{args[0].system.provenance}", share)


def _note_winding(t, i, args, result):
    t.add("dichotomy.winding.refined", len(result.xs) - len(args[0].xs))


def _note_census(t, i, args, result):
    t.add("dichotomy.census.crossings", sum(len(e.crossings) for e in result))
    t.add("dichotomy.census.dense_calls", t.count_in(i, "integrate.dense"))


def _note_curve(t, i, args, result):
    bits = [
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for s in result.components for c in s.coeffs if isinstance(c, Fraction)
    ]
    t.maximum("series.coeff_bits_max", max(bits, default=0))


def _note_relations(t, i, args, result):
    t.add("sat.monomial_count", result.monomial_count)
    t.add("sat.kernel_rank", result.monomial_count - len(result.basis))


def _entry_span(entry, *rest):
    return f"pipelines.run_entry.{entry.name}"


def _patches():
    ts = series.TruncatedSeries
    return [
        (integrate, "solve_pair", "integrate.solve_pair", _note_solve),
        (pipelines, "solve_pair", "integrate.solve_pair", _note_solve),
        (pipelines, "solve", "integrate.solve", _note_solve),
        (integrate.Trajectory, "__call__", "integrate.dense", None),
        (field.DifferenceSystem, "rhs", "field.rhs", None),
        (field.ReducedSystem, "rhs", "field.rhs", None),
        (expr, "evaluate_mp", "field.gap_mp", None),
        (field, "invariance_check", "field.invariance_check", None),
        (pipelines, "invariance_check", "field.invariance_check", None),
        (dichotomy, "contact_order", "dichotomy.contact_order", None),
        (dichotomy, "winding", "dichotomy.winding", _note_winding),
        (dichotomy, "sign_census", "dichotomy.sign_census", _note_census),
        (dichotomy, "classify", "dichotomy.classify", None),
        (ts, "__mul__", "series.mul", None),
        (ts, "__rmul__", "series.mul", None),
        (series, "compose", "series.compose", None),
        (series, "divide", "series.divide", None),
        (series, "exp_series", "series.exp_series", None),
        (registry, "exp_series", "series.exp_series", None),
        (expr, "substitute_series", "expr.substitute_series", None),
        (curve, "parse_curve", "curve.parse_curve", _note_curve),
        (pipelines, "parse_curve", "curve.parse_curve", _note_curve),
        (sat, "relation_search", "sat.relation_search", _note_relations),
        (report, "write_json", "report", None),
        (report, "theta_plot", "report", None),
        (report, "contact_plot", "report", None),
        (pipelines, "run_entry", _entry_span, None),
    ]


@contextlib.contextmanager
def instrument(tracer):
    """Install the span wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, span_name, note in _patches():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(span_name, original, note))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics ------------------------------------------------------------


def _span(kind, name):
    return lambda s: s[kind][name]


def _count(key):
    return lambda s: s["counts"][key]


def _accept_ratio(s):
    steps, rejected = s["counts"]["integrate.steps"], s["counts"]["integrate.rejected"]
    return steps / (steps + rejected) if steps else 0.0


ENTRY_NAMES = sorted(registry.ENTRIES)

# name -> (unit, value from one op's summary)
LAYER_METRICS = {
    "integrate.solve_pair.self_s": ("s", _span("self", "integrate.solve_pair")),
    "integrate.dense.calls": ("count", _span("calls", "integrate.dense")),
    "integrate.dense.s": ("s", _span("total", "integrate.dense")),
    "integrate.steps": ("count", _count("integrate.steps")),
    "integrate.rejected": ("count", _count("integrate.rejected")),
    "integrate.accept_ratio": ("ratio", _accept_ratio),
    "integrate.max_error_ratio": ("ratio", _count("integrate.max_error_ratio")),
    "field.rhs.calls": ("count", _span("calls", "field.rhs")),
    "field.rhs.s": ("s", _span("total", "field.rhs")),
    "field.gap_mp.calls": ("count", _span("calls", "field.gap_mp")),
    "field.gap_mp.s": ("s", _span("total", "field.gap_mp")),
    "field.gap_mp_share.euler_pair": ("ratio", _count("field.gap_mp_share.euler_pair")),
    "field.gap_mp_share.rotating": ("ratio", _count("field.gap_mp_share.rotating")),
    "field.invariance_check.self_s": ("s", _span("self", "field.invariance_check")),
    "dichotomy.sign_census.self_s": ("s", _span("self", "dichotomy.sign_census")),
    "dichotomy.census.dense_calls": ("count", _count("dichotomy.census.dense_calls")),
    "dichotomy.census.crossings": ("count", _count("dichotomy.census.crossings")),
    "dichotomy.winding.s": ("s", _span("total", "dichotomy.winding")),
    "dichotomy.winding.refined": ("count", _count("dichotomy.winding.refined")),
    "dichotomy.contact_order.s": ("s", _span("total", "dichotomy.contact_order")),
    "dichotomy.classify.s": ("s", _span("total", "dichotomy.classify")),
    "series.mul.calls": ("count", _span("calls", "series.mul")),
    "series.mul.self_s": ("s", _span("self", "series.mul")),
    "series.compose.calls": ("count", _span("calls", "series.compose")),
    "series.compose.self_s": ("s", _span("self", "series.compose")),
    "series.divide.s": ("s", _span("total", "series.divide")),
    "series.exp_series.s": ("s", _span("total", "series.exp_series")),
    "series.coeff_bits_max": ("count", _count("series.coeff_bits_max")),
    "expr.substitute_series.self_s": ("s", _span("self", "expr.substitute_series")),
    "curve.parse_curve.s": ("s", _span("total", "curve.parse_curve")),
    "sat.relation_search.self_s": ("s", _span("self", "sat.relation_search")),
    "sat.monomial_count": ("count", _count("sat.monomial_count")),
    "sat.kernel_rank": ("count", _count("sat.kernel_rank")),
    "report.s": ("s", _span("total", "report")),
    "report.bytes": ("count", _count("report.bytes")),
    **{
        f"pipelines.run_entry.{e}.s": ("s", _span("total", f"pipelines.run_entry.{e}"))
        for e in ENTRY_NAMES
    },
    "trace.covered_share": ("ratio", lambda s: s["covered_share"]),
    "trace.spans_per_op": ("count", lambda s: s["spans"]),
}

# Counts must repeat exactly between two runs at the same seed.
COUNT_METRICS = (
    "integrate.steps", "integrate.rejected", "integrate.dense.calls",
    "field.rhs.calls", "field.gap_mp.calls",
    "dichotomy.census.dense_calls", "dichotomy.census.crossings", "dichotomy.winding.refined",
    "series.mul.calls", "series.compose.calls", "series.coeff_bits_max",
    "sat.monomial_count", "sat.kernel_rank",
    "report.bytes",
)


def op_metrics(tracer):
    """Per-layer metric values for each traced op, in op order."""
    out = []
    for root in tracer.roots():
        s = tracer.op_summary(root)
        out.append({name: fn(s) for name, (_, fn) in LAYER_METRICS.items()})
    return out


def layer_metrics(per_op):
    """Median over the traced ops of each per-layer metric."""
    return {name: statistics.median(op[name] for op in per_op) for name in LAYER_METRICS}
