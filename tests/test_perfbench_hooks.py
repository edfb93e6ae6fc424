"""The benchmark's span wrappers hook library names that exist.

``perfbench/spans.py`` replaces each hooked name through ``vars(owner)[attr]``,
so deleting or renaming one breaks every traced benchmark run; this test
catches that without running the benchmark.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_span_hook_names_an_existing_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in spans._patches()
        if attr not in vars(owner)
    ]
    assert missing == []
