"""Artifact writers: the same bytes as the writers they replaced, on any input."""

import enum
import math
import re
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


class _Int(int):
    def __repr__(self):
        return "an int"


class _Float(float):
    def __repr__(self):
        return "a float"


class _Str(str):
    def __repr__(self):
        return "a str"


class _Level(enum.IntEnum):
    LOW = 1


finite = st.floats(allow_nan=False, allow_infinity=False)
subclassed = st.one_of(st.integers().map(_Int), floats.map(_Float), st.text(max_size=4).map(_Str),
                       st.just(_Level.LOW))


@st.composite
def long_lists(draw):
    """Hundreds of finite floats, with at most one other item in the middle."""
    items = draw(st.lists(finite, min_size=1, max_size=8)) * draw(st.integers(25, 60))
    odd = draw(st.one_of(st.none(), st.sampled_from([math.nan, math.inf, -math.inf, True, 7]),
                         subclassed))
    if odd is not None:
        items.insert(len(items) // 2, odd)
    return tuple(items) if draw(st.booleans()) else items


def _circular():
    items, table = [1.0], {"a": 1.0}
    items.append(items)
    table["b"] = [table]
    return {"items": items}, {"table": table}


@given(st.dictionaries(st.one_of(st.text(max_size=6), st.text(max_size=4).map(_Str)),
                       st.one_of(long_lists(), subclassed, st.lists(subclassed, max_size=4)),
                       max_size=4))
@example({"a": [0.5] * 150 + [math.nan] + [1.5] * 150, "b": [2.5] * 200 + [-math.inf] + [3.5]})
@example({"a": (0.5, True, 1.5), "b": [0.25, 3, -0.0], "c": [1.0, False]})
@example({"a": [_Float(0.1), _Float(math.inf)], "b": _Int(-3), _Str("c"): _Str("\u00e9"),
          "d": [_Level.LOW, 2.5], "e": [_Float(0.5)] * 3})
@example({"a": {_Int(2): 1.0}, "b": {_Float(0.5): None}, "c": {True: 1, None: 2, -0.0: 3}})
@example({"a": {1: 1.0, "b": 2.0}})  # keys that do not sort
@example({"a": {(1, 2): 1.0}})  # a key json rejects
@example({"a": [1.0, object()]})  # a value json rejects
@example(_circular()[0])
@example(_circular()[1])
@settings(max_examples=100, deadline=None)
def test_json_of_long_lists_and_subclasses_matches_the_reference(payload):
    want = _outcome(lambda path: reference.write_json(path, payload))
    assert _outcome(lambda path: report.write_json(path, payload)) == want


@pytest.mark.parametrize("payload", [*_circular(), {"a": object()}, {"a": {(1,): 2}}],
                         ids=["list", "dict", "value", "key"])
def test_json_errors_match_the_reference(payload, tmp_path):
    with pytest.raises((TypeError, ValueError)) as want:
        reference.write_json(tmp_path / "want.json", payload)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        report.write_json(tmp_path / "got.json", payload)
    assert not (tmp_path / "got.json").exists()


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


@given(st.integers(1, 4).flatmap(
    lambda dim: st.lists(st.tuples(*[floats] * (1 + dim)), min_size=1, max_size=6)),
    st.integers(400, 1000))
@example([(0.1, math.nan, -0.0)], 3000)
@settings(max_examples=25, deadline=None)
def test_csv_of_thousands_of_rows_matches_the_reference(pattern, repeats):
    columns = [list(c) for c in zip(*pattern * repeats)]
    traj = SimpleNamespace(dimension=len(columns) - 1, xs=columns[0], cols=tuple(columns[1:]))

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
# each point finite, though x + y overflows; a span that overflows
@example([([(1e308, 1e308), (1.7e308, -1e308)], report.BLUE, 1.5)], [])
@example([([(-1.7e308, 1.0), (1.7e308, 2.0)], report.BLUE, 1.5)], [(0.0, 1.5, "k")])
@settings(max_examples=200, deadline=None)
def test_svg_matches_the_canvas(lines, markers):
    canvas = reference.SvgCanvas("title", "x label", "y label")
    for pts, color, width in lines:
        canvas.add_line([x for x, _ in pts], [y for _, y in pts], color, width)
    for x, y, label in markers:
        canvas.add_marker(x, y, label)
    columns = [([x for x, _ in pts], [y for _, y in pts], color, width) for pts, color, width in lines]
    got = _result(report._svg, "title", "x label", "y label", columns, markers)
    assert got == _result(canvas.render)
