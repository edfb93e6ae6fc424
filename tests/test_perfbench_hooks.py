"""The benchmark's span wrappers hook library names that exist, and still see the work.

``perfbench/spans.py`` replaces each hooked name through ``vars(owner)[attr]``,
so deleting or renaming one breaks every traced benchmark run; these tests
catch that without running the benchmark.  A traced op must also keep
reaching the wrapped names: the integration kernel inlines the stock
right-hand side, and calls ``rhs`` once per stage only where the class
attribute is something else, such as the span's wrapper.
"""

import cProfile
import importlib
import pstats
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans"), importlib.import_module("workloads")


def test_every_span_hook_names_an_existing_attribute(monkeypatch):
    spans, _ = _perfbench(monkeypatch)
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in spans._patches()
        if attr not in vars(owner)
    ]
    assert missing == []


def test_a_traced_pair_op_counts_every_right_hand_side(monkeypatch, tmp_path):
    spans, workloads = _perfbench(monkeypatch)
    pair = workloads.WORKLOADS["pair_tight"]
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        result = tracer.run_op(lambda: pair.run(pair.make_inputs(0), tmp_path))
    assert pair.check(pair.make_inputs(0), result) == []
    (metrics,) = spans.op_metrics(tracer)
    assert metrics["field.rhs.calls"] == 61628
    assert metrics["integrate.steps"] == 10170
    assert metrics["integrate.rejected"] == 101


def test_a_profile_keeps_each_generated_function_apart(monkeypatch, tmp_path):
    _, workloads = _perfbench(monkeypatch)
    pair = workloads.WORKLOADS["pair_tight"]
    inputs = pair.make_inputs(0)
    profile = cProfile.Profile()
    profile.runcall(pair.run, inputs, tmp_path)
    calls = {name: stats[1] for (_, _, name), stats in pstats.Stats(profile).stats.items()}
    assert calls["dopri5 euler_pair"] == calls["dopri5 rotating"] == 1
    for text in ("z1", "z2", "y1 - x"):
        assert calls[f"census {text}"] > 0, text
    assert "_compiled" not in calls
