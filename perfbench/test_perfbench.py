"""Checks of the benchmark itself, run with:  python3 -m pytest perfbench

Every count metric repeats exactly between two traced ops at the same seed,
and every span fires on the workloads the layer mapping names and stays at
zero on the others.
"""

import functools
import shutil

import pytest

import spans
from run import OUT, run_op
from workloads import WORKLOADS

NUMERIC = {"suite", "pair_tight"}
SERIES = {"suite", "relations_deg5"}

# metric-name prefix -> workloads on which it must be nonzero; zero on all others
FIRES = {
    "integrate.": NUMERIC,
    "field.rhs.": NUMERIC,
    "field.gap_mp.": NUMERIC,
    "field.gap_mp_share.euler_pair": NUMERIC,
    "field.gap_mp_share.rotating": set(),
    "field.invariance_check.": {"suite"},
    "dichotomy.": NUMERIC,
    "dichotomy.winding.refined": set(),
    "series.mul.": SERIES,
    "series.compose.": SERIES,
    "series.coeff_bits_max": SERIES,
    "series.divide.": {"suite"},
    "series.exp_series.": {"suite"},
    "expr.": SERIES,
    "curve.": SERIES,
    "sat.": {"suite", "relations_deg5"},
    "report.": {"suite"},
    "pipelines.": {"suite"},
}


@functools.cache
def traced_metrics(workload, run):
    """Per-layer metrics of one traced op at seed 0; ``run`` tells two runs apart."""
    w = WORKLOADS[workload]
    inputs = w.make_inputs(0)
    tracer = spans.Tracer()
    scratch = OUT / "tmp" / f"test-{workload}-{run}"
    try:
        result = run_op(w, inputs, scratch, tracer)
        assert w.check(inputs, result) == []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return spans.op_metrics(tracer)[0]


def _fires(metric):
    prefix = max((p for p in FIRES if metric.startswith(p)), key=len, default=None)
    return None if prefix is None else FIRES[prefix]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly(workload):
    first, second = traced_metrics(workload, 0), traced_metrics(workload, 1)
    for name in spans.COUNT_METRICS:
        assert first[name] == second[name], name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_spans_fire_where_mapped(workload):
    metrics = traced_metrics(workload, 0)
    for name, value in metrics.items():
        fires = _fires(name)
        if fires is None:
            continue
        if workload in fires:
            assert value > 0, f"{name} is zero on {workload}"
        else:
            assert value == 0, f"{name} is {value} on {workload}, predicted zero"


def test_top_level_spans_cover_the_op():
    for workload in WORKLOADS:
        assert traced_metrics(workload, 0)["trace.covered_share"] > 0.95, workload
