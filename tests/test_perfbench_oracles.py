"""Each benchmark workload's op passes its own oracle at seed 0.

The benchmark counts an op whose result fails ``Workload.check`` as failed,
so a library change that breaks a workload's closed-form answer shows up
here, in about a second, instead of only in a full benchmark run.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
NAMES = ("suite", "pair_tight", "relations_deg5")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads").WORKLOADS


def test_every_workload_is_checked(workloads):
    assert sorted(workloads) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_workload_op_passes_its_oracle(workloads, name, tmp_path):
    workload = workloads[name]
    inputs = workload.make_inputs(0)
    result = workload.run(inputs, tmp_path / "op")
    assert workload.check(inputs, result) == []
