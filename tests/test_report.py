"""Artifact writers: the same bytes as the writers they replaced, on any input."""

import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from interlace import report

import _report_reference as reference

STAMP = "2020-01-01T00:00:00+00:00"

EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0, -1.0, 1e308]
floats = st.one_of(st.sampled_from(EDGES), st.floats())
positive = st.one_of(st.sampled_from([1e-300, 0.25, 1.0, math.inf, math.nan]),
                     st.floats(min_value=1e-300, max_value=1e300))
json_leaves = st.one_of(st.none(), st.booleans(), st.integers(), floats, st.text(max_size=8))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=20,
)


@pytest.fixture(autouse=True)
def _fixed_stamps(monkeypatch):
    monkeypatch.setattr(report, "timestamp", lambda: STAMP)
    monkeypatch.setattr(reference, "timestamp", lambda: STAMP)


def _outcome(write):
    """The bytes ``write(path)`` leaves in a fresh directory, or its error type."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sub" / "artifact"
        try:
            write(path)
        except Exception as err:  # noqa: BLE001 - the error type is the outcome
            return type(err)
        return path.read_bytes()


@given(st.dictionaries(st.text(max_size=6), json_values, max_size=5))
@example({"a": (1, None, True), "b": {"c": [math.nan, -math.inf, -0.0]}, "d": False})
@settings(max_examples=200, deadline=None)
def test_json_matches_the_reference(payload):
    want = _outcome(lambda path: reference.write_json(path, payload))
    assert _outcome(lambda path: report.write_json(path, payload)) == want


def test_json_has_one_layout():
    got = _outcome(lambda path: report.write_json(path, {"b": (1.5, None), "a": True}))
    assert got == (
        b'{\n  "a": true,\n  "b": [\n    1.5,\n    null\n  ],\n'
        b'  "generated_at": "' + STAMP.encode() + b'"\n}\n'
    )


@given(st.integers(1, 4).flatmap(
    lambda dim: st.lists(st.tuples(*[floats] * (1 + dim)), max_size=20)
    .map(lambda rows: (dim, [list(c) for c in zip(*rows)] or [[]] * (1 + dim)))
))
@settings(max_examples=200, deadline=None)
def test_csv_matches_the_reference(case):
    dim, columns = case
    traj = SimpleNamespace(dimension=dim, xs=columns[0], cols=tuple(columns[1:]))

    def old(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            reference.write_csv(traj, fh)

    assert _outcome(lambda path: report.write_csv(path, columns)) == _outcome(old)


@given(st.lists(st.tuples(st.one_of(positive, floats), floats), max_size=12))
@example([(0.5, math.nan), (0.25, math.inf)])  # a line with no finite point
@example([(0.5, 1.0), (0.5, 1.0)])  # equal min and max on both axes
@example([(0.0, 1.0)])
@settings(max_examples=200, deadline=None)
def test_theta_plot_matches_the_reference(samples):
    result = SimpleNamespace(xs=[x for x, _ in samples], thetas=[t for _, t in samples])
    want = _outcome(lambda path: reference.theta_plot(result, path))
    assert _outcome(lambda path: report.theta_plot(result, path)) == want


probes = st.builds(
    SimpleNamespace,
    x=st.one_of(positive, st.sampled_from([0.0, -1.0])),
    norm=st.one_of(positive, st.sampled_from([0.0, -0.0, -1.0])),
    k_hat=floats,
    coincident=st.booleans(),
)


@given(
    st.lists(st.tuples(positive, floats, floats), max_size=12),
    st.lists(probes, max_size=4),
)
@example([(0.5, 0.0, 0.0), (0.25, math.nan, 1.0)],
         [SimpleNamespace(x=0.5, norm=1.0, k_hat=2.0, coincident=True),
          SimpleNamespace(x=0.5, norm=0.0, k_hat=2.0, coincident=False),
          SimpleNamespace(x=0.5, norm=1e-3, k_hat=math.inf, coincident=False)])
@example([(0.5, 1.0, 0.0)], [SimpleNamespace(x=0.5, norm=1.0, k_hat=0.0, coincident=False)])
@settings(max_examples=200, deadline=None)
def test_contact_plot_matches_the_reference(knots, probe_list):
    eps = SimpleNamespace(xs=[x for x, _, _ in knots],
                          cols=([a for _, a, _ in knots], [b for _, _, b in knots]))
    contact = SimpleNamespace(probes=probe_list)
    want = _outcome(lambda path: reference.contact_plot(eps, contact, path))
    assert _outcome(lambda path: report.contact_plot(eps, contact, path)) == want


def _result(fn, *args):
    try:
        return fn(*args)
    except Exception as err:  # noqa: BLE001 - one point beyond 2**53 leaves a zero span
        return type(err)


points = st.lists(st.tuples(floats, floats), max_size=6)
colors = st.sampled_from([report.BLUE, report.RED])


@given(
    st.lists(st.tuples(points, colors, st.sampled_from([1.5, 1.0])), max_size=3),
    st.lists(st.tuples(floats, floats, st.text(max_size=4)), max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_svg_matches_the_canvas(lines, markers):
    canvas = reference.SvgCanvas("title", "x label", "y label")
    for pts, color, width in lines:
        canvas.add_line([x for x, _ in pts], [y for _, y in pts], color, width)
    for x, y, label in markers:
        canvas.add_marker(x, y, label)
    got = _result(report._svg, "title", "x label", "y label", lines, markers)
    assert got == _result(canvas.render)
