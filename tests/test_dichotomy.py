"""Contact order, winding, census: closed-form oracle checks and invariances."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interlace.dichotomy import (
    Thresholds,
    VERDICT_COINCIDENT,
    VERDICT_HARDY,
    VERDICT_INCONCLUSIVE,
    VERDICT_INTERLACED,
    WindingResult,
    build_pair_report,
    classify,
    contact_order,
    sign_census,
    _monotone_tail,
    winding,
)
from interlace.errors import BlowUpError, ZeroEpsilonError
from interlace.expr import compile_expr, parse_expr
from interlace.field import ReducedSystem
from interlace.integrate import IVP, Trajectory, solve_pair
from interlace.registry import ENTRIES

import _pair_reference
from _expr_reference import evaluate


def rotating_system(a, b):
    # gap field (a*z + b*z_perp)/x^2 with z_perp = (-z2, z1)
    f1 = f"({a}*y1 - {b}*y2)/x^2" if b else f"{a}*y1/x^2"
    f2 = f"({a}*y2 + {b}*y1)/x^2" if b else f"{a}*y2/x^2"
    return ReducedSystem.from_text(f1, f2)


def synthetic_eps(fn1, fn2, d1, d2, xs):
    xs = [float(x) for x in xs]
    cols = [[fn1(x) for x in xs], [fn2(x) for x in xs]]
    dcols = [[d1(x) for x in xs], [d2(x) for x in xs]]
    return Trajectory(xs, cols, dcols)


# -- contact order -------------------------------------------------------------


def test_pure_power_gap_has_constant_contact_order():
    # the gap (c1, c2) x^3 has Euclidean norm x^3
    for c1, c2 in ((1.0, 0.0), (0.6, 0.8)):
        eps = synthetic_eps(
            lambda x: c1 * x**3, lambda x: c2 * x**3,
            lambda x: 3 * c1 * x**2, lambda x: 3 * c2 * x**2,
            np.geomspace(0.5, 0.01, 40),
        )
        rep = contact_order(eps, [0.3, 0.1, 0.03])
        assert all(p.k_hat == pytest.approx(3.0, abs=1e-12) for p in rep.probes)
        assert not rep.flat_evidence  # constant, not increasing


def test_constant_gap_contact_order_decays_to_zero():
    eps = synthetic_eps(
        lambda x: 0.5, lambda x: 0.0, lambda x: 0.0, lambda x: 0.0,
        np.geomspace(0.5, 0.001, 30),
    )
    rep = contact_order(eps, [0.1, 0.01, 0.001])
    ks = [p.k_hat for p in rep.probes]
    assert ks[0] > ks[1] > ks[2] > 0
    assert ks[2] < 0.11


def test_flat_gap_flags_flat_contact_evidence():
    sys_ = ReducedSystem.from_text("(y1-x)/x^2", "(y2-2*x)/(2*x^2)")
    _, eps = solve_pair(IVP(sys_, 0.5, 0.02, (1.0, 2.0)), (0.1, 0.0))
    rep = contact_order(eps, [0.1, 0.05, 0.02])
    ks = [p.k_hat for p in rep.probes]
    assert ks[0] == pytest.approx(4.4743558552260145, rel=1e-2)
    assert ks[1] == pytest.approx(6.7771693993562545, rel=1e-2)
    assert ks[2] == pytest.approx(12.858458404563688, rel=1e-2)
    assert ks[0] < ks[1] < ks[2]
    assert rep.flat_evidence


def test_contact_order_depends_only_on_probe_values():
    # the same gap function on two different grids gives identical orders
    # (cubic Hermite reproduces the cubic exactly on any grid)
    def make(xs):
        return synthetic_eps(
            lambda x: x**3, lambda x: 0.0, lambda x: 3 * x**2, lambda x: 0.0, xs
        )

    probes = [0.3, 0.09, 0.04]
    coarse = contact_order(make(np.geomspace(0.5, 0.01, 12)), probes)
    fine = contact_order(make(np.linspace(0.5, 0.01, 400)), probes)
    for a, b in zip(coarse.probes, fine.probes):
        assert a.k_hat == pytest.approx(b.k_hat, rel=1e-12)


def test_exactly_zero_gap_reports_coincidence():
    eps = synthetic_eps(
        lambda x: 0.0, lambda x: 0.0, lambda x: 0.0, lambda x: 0.0,
        [0.5, 0.3, 0.1],
    )
    rep = contact_order(eps, [0.3, 0.1])
    assert all(p.coincident for p in rep.probes)
    assert classify(rep, None, ()) == VERDICT_COINCIDENT


# -- winding ---------------------------------------------------------------------


def test_rotating_gap_angle_matches_quadrature():
    # theta(x) = theta0 - b (1/x - 1/x0): over [0.1, 1] that is -9 rad
    _, eps = solve_pair(IVP(rotating_system(0, 1), 1.0, 0.1, (0.0, 0.0)), (1.0, 0.0))
    w = winding(eps)
    assert w.total_angle == pytest.approx(-9.0, rel=1e-6)
    assert w.total_turns == pytest.approx(-9.0 / (2 * math.pi), rel=1e-6)


def test_radial_gap_does_not_turn():
    _, eps = solve_pair(IVP(rotating_system(0.1, 0), 1.0, 0.1, (0.0, 0.0)), (1.0, 0.0))
    w = winding(eps)
    assert abs(w.total_turns) < 1e-9


def test_unwrapped_angle_stable_under_denser_sampling():
    _, eps = solve_pair(IVP(rotating_system(0, 1), 1.0, 0.1, (0.0, 0.0)), (1.0, 0.0))
    coarse = winding(eps, max_increment=math.pi / 2)
    fine = winding(eps, max_increment=math.pi / 8)
    assert fine.total_angle == pytest.approx(coarse.total_angle, abs=1e-9)
    assert len(fine.xs) >= len(coarse.xs)


def test_turn_count_invariant_under_gap_rescaling():
    _, eps = solve_pair(IVP(rotating_system(0, 1), 1.0, 0.1, (0.0, 0.0)), (1.0, 0.0))
    scaled = Trajectory(eps.xs, [[7.25 * v for v in c] for c in eps.cols],
                        [[7.25 * v for v in c] for c in eps.dcols], eps.meta)
    assert winding(scaled).total_turns == pytest.approx(
        winding(eps).total_turns, abs=1e-12
    )


def test_vanishing_gap_inside_grid_is_an_error():
    eps = synthetic_eps(
        lambda x: x - 0.25, lambda x: 0.0, lambda x: 1.0, lambda x: 0.0,
        [0.5, 0.25, 0.1],
    )
    with pytest.raises(ZeroEpsilonError):
        winding(eps)


# -- sign census ------------------------------------------------------------------


def euler_pair_trajectories():
    sys_ = ReducedSystem.from_text("(y1-x)/x^2", "(y2-2*x)/(2*x^2)")
    return solve_pair(IVP(sys_, 0.5, 0.02, (1.0, 2.0)), (0.1, 0.0))


def test_one_signed_gap_census():
    gamma, eps = euler_pair_trajectories()
    entries = sign_census(["z1"], gamma, eps)
    assert entries[0].sign_changes == 0
    assert entries[0].final_sign == +1


def test_constant_expression_census():
    gamma, eps = euler_pair_trajectories()
    entries = sign_census(["1"], gamma, eps)
    assert entries[0].sign_changes == 0
    assert entries[0].final_sign == +1


def test_spiral_census_counts_halfturn_crossings():
    gamma, eps = solve_pair(
        IVP(rotating_system(0, 1), 1.0, 0.01, (0.0, 0.0)), (1.0, 0.0)
    )
    entries = sign_census(["z1"], gamma, eps)
    # theta sweeps 99 rad from theta0 = 0: cos crosses zero 32 times
    assert entries[0].sign_changes == 32
    w = winding(eps)
    assert abs(entries[0].sign_changes - math.floor(abs(w.total_angle) / math.pi)) <= 1


def test_census_crossings_match_angle_lattice():
    gamma, eps = solve_pair(
        IVP(rotating_system(0, 1), 1.0, 0.05, (0.0, 0.0)), (1.0, 0.0)
    )
    entries = sign_census(["z1"], gamma, eps)
    # z1 = r cos(theta) vanishes at theta = -(pi/2 + k pi); crossing locations
    # invert to x = 1/(1/x0 + pi/2 + k pi)
    want = []
    k = 0
    while True:
        theta = math.pi / 2 + k * math.pi
        x = 1.0 / (1.0 + theta)
        if x < 0.05:
            break
        want.append(x)
        k += 1
    got = sorted(entries[0].crossings, reverse=True)
    assert len(got) == len(want)
    for g, w_ in zip(got, want):
        assert g == pytest.approx(w_, rel=1e-5)


def test_census_knot_samples_equal_dense_output_samples():
    # sampling the stored knots gives exactly the values (and so the counts
    # and crossings) that sampling dense output at the knots gives
    gamma, eps = solve_pair(
        IVP(rotating_system(0.1, 1), 1.0, 0.01, (0.0, 0.0)), (1.0, 0.0)
    )
    assert [gamma(x) for x in gamma.xs] == list(zip(*gamma.cols))
    assert [eps(x) for x in eps.xs] == list(zip(*eps.cols))
    names = ("x", "y1", "y2", "z1", "z2")
    for text in ("z1", "z1*x - z2/10"):
        tree = parse_expr(text, names)
        f = compile_expr(tree, names)
        dense = [evaluate(tree, dict(zip(names, (x, *gamma(x), *eps(x))))) for x in gamma.xs]
        knots = [f(*row) for row in zip(gamma.xs, *gamma.cols, *eps.cols)]
        assert dense == knots
        entry = sign_census([text], gamma, eps)[0]
        want = sum(1 for a, b in zip(dense, dense[1:]) if a * b < 0)
        assert entry.sign_changes == len(entry.crossings) == want


def test_census_window_and_grid_checks():
    gamma, eps = euler_pair_trajectories()
    full = sign_census(["x^2"], gamma, eps)[0]
    windowed = sign_census(["x^2"], gamma, eps, window=(0.02, 0.2))[0]
    assert windowed.decay_exponent == pytest.approx(2.0, abs=1e-6)
    assert full.decay_exponent == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(ValueError):
        sign_census(["z1"], gamma, eps, window=(0.6, 0.7))
    other = Trajectory(eps.xs[::2], [c[::2] for c in eps.cols], [c[::2] for c in eps.dcols])
    with pytest.raises(ValueError):
        sign_census(["z1"], gamma, other)


def test_one_signed_power_law_gets_decay_exponent():
    gamma, eps = euler_pair_trajectories()
    entries = sign_census(["x^2"], gamma, eps)
    assert entries[0].decay_exponent == pytest.approx(2.0, abs=1e-6)


def test_decay_exponent_of_an_exact_power_law():
    # y1 = 3 x^2.5 at every knot: log|y1| is affine in log x with slope 2.5
    xs = [0.9 * 0.97**k for k in range(400)]
    col = [3.0 * x**2.5 for x in xs]
    pair = Trajectory(xs, [col] * 4, [col] * 4)
    entry, = sign_census(["y1"], pair.slice([0, 1]), pair.slice([2, 3]))
    assert entry.sign_changes == 0
    assert entry.decay_exponent == pytest.approx(2.5, rel=1e-13, abs=0)


@pytest.mark.parametrize("max_samples", [2, 3, 4, 7, 10, 64, 101, 257])
def test_winding_samples_match_numpy_linspace(max_samples):
    # the indices of the numpy code it replaced, np.linspace(0, n - 1, m).round().astype(int)
    for n in range(max_samples + 1, 3 * max_samples + 1):
        result = WindingResult(tuple(map(float, range(n))), (0.0,) * n, 0.0)
        want = np.linspace(0, n - 1, max_samples).round().astype(int).tolist()
        assert result.to_json_dict(max_samples)["x"] == want, n


def test_winding_samples_at_the_smallest_counts():
    result = WindingResult((0.5, 0.4, 0.3), (0.0, 1.0, 2.0), 0.0)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_samples must be at least 1"):
            result.to_json_dict(bad)
    # np.linspace(0, 2, 1) is [0.0]: one sample is the first, two are the ends
    assert result.to_json_dict(1)["x"] == [0.5] and result.to_json_dict(1)["theta"] == [0.0]
    assert result.to_json_dict(2)["x"] == [0.5, 0.3] and result.to_json_dict(2)["theta"] == [0.0, 2.0]
    for n in (2, 3, 10):
        ramp = WindingResult(tuple(map(float, range(n))), (0.0,) * n, 0.0)
        assert ramp.to_json_dict(1)["x"] == np.linspace(0, n - 1, 1).round().astype(int).tolist()


def test_default_winding_samples_match_numpy_linspace():
    for n in (4097, 4098, 5000, 8191, 8192, 10000, 12288):
        result = WindingResult(tuple(map(float, range(n))), (0.0,) * n, 0.0)
        want = np.linspace(0, n - 1, 4096).round().astype(int).tolist()
        assert result.to_json_dict()["x"] == want, n


# -- classification -----------------------------------------------------------------


def test_spiral_classifies_as_interlaced():
    gamma, eps = solve_pair(
        IVP(rotating_system(0.1, 1), 1.0, 0.01, (0.0, 0.0)), (1.0, 0.0)
    )
    report = build_pair_report(gamma, eps, (0.5, 0.1, 0.02), ("z1",))
    assert report.verdict == VERDICT_INTERLACED


def test_flat_one_signed_pair_classifies_as_hardy_candidate():
    gamma, eps = euler_pair_trajectories()
    report = build_pair_report(gamma, eps, (0.1, 0.05, 0.02), ("z1", "z2", "y1-x"))
    assert report.verdict == VERDICT_HARDY


def test_short_spiral_is_inconclusive():
    # 1.2 turns: above the Hardy bound, below the interlacement threshold
    _, eps = solve_pair(
        IVP(rotating_system(0, 1), 1.0, 1.0 / (1.0 + 1.2 * 2 * math.pi), (0.0, 0.0)),
        (1.0, 0.0),
    )
    gamma = eps  # census plays no role here
    report = build_pair_report(gamma, eps, (0.5, 0.2), ("z1",))
    assert abs(report.winding.total_turns) == pytest.approx(1.2, rel=1e-3)
    assert report.verdict == VERDICT_INCONCLUSIVE


def test_classification_is_deterministic():
    gamma, eps = euler_pair_trajectories()
    r1 = build_pair_report(gamma, eps, (0.1, 0.05, 0.02), ("z1",))
    r2 = build_pair_report(gamma, eps, (0.1, 0.05, 0.02), ("z1",))
    assert r1.to_json_dict() == r2.to_json_dict()


def test_thresholds_recorded_in_report():
    gamma, eps = euler_pair_trajectories()
    th = Thresholds(turn_threshold=4.0)
    report = build_pair_report(gamma, eps, (0.1, 0.05), ("z1",), th)
    assert report.thresholds.turn_threshold == 4.0
    assert report.to_json_dict()["thresholds"]["turn_threshold"] == 4.0


@pytest.mark.parametrize("name", ["euler_pair", "rotating"])
def test_pair_results_hold_python_floats(name):
    c = ENTRIES[name].config
    ivp = IVP(ReducedSystem.from_text(c.f1, c.f2), c.x_start, c.x_end, tuple(c.y0),
              rtol=c.rtol, atol=c.atol, max_steps=c.max_steps)
    gamma, eps = solve_pair(ivp, tuple(c.eps0))
    report = build_pair_report(gamma, eps, c.probes, c.census)
    crossings = [x for entry in report.census for x in entry.crossings]
    if name == "rotating":
        assert len(crossings) == 32
    values = crossings + list(report.winding.xs) + list(report.winding.thetas)
    values += [v for p in report.contact.probes for v in (p.x, p.norm)]
    assert [type(v) for v in values if type(v) is not float] == []


# -- the column-wise census, winding and tail test against the row-wise code --------


_CENSUS = ["z1", "z2", "y1 - x", "z1*z2 + y2", "y1/x", "1/z1", "(z1 - 1/4)*(z1 + 1/4)"]


def _knot_value(rng):
    # exact zeros and repeated values half of the time
    if rng.random() < 0.5:
        return rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -2.0])
    return rng.uniform(-10.0, 10.0)


def _slope(rng):
    # large slopes make the cubic between two knots cross zero twice, or swing
    # the gap by more than a quarter turn, so the winding has to refine
    return 0.0 if rng.random() < 0.5 else rng.uniform(-200.0, 200.0)


@st.composite
def _pairs(draw):
    """A (gamma, eps) pair on one decreasing grid, census expressions and windows.

    The grid size, the shape of the gap and the windows are drawn; the knot
    values come from a drawn seed, which keeps 300-knot grids cheap to draw.
    """
    n = draw(st.integers(2, 300))
    rng = random.Random(draw(st.integers(0, 2**32)))
    xs = [draw(st.floats(0.1, 1.0))]
    for _ in range(n - 1):
        xs.append(xs[-1] * rng.uniform(0.5, 0.999999))
    cols = [[_knot_value(rng) for _ in xs] for _ in range(4)]
    dcols = [[_slope(rng) for _ in xs] for _ in range(4)]
    cols[2] = [v if v != 0.0 or w != 0.0 else 1.0 for v, w in zip(cols[2], cols[3])]
    if draw(st.booleans()):  # a spiral theta = b log x, monotone in x
        b = draw(st.floats(-4.0, 4.0))
        theta = [b * math.log(x) for x in xs]
        cols[2:] = [list(map(math.cos, theta)), list(map(math.sin, theta))]
        dcols[2:] = [[-b / x * math.sin(t) for x, t in zip(xs, theta)],
                     [b / x * math.cos(t) for x, t in zip(xs, theta)]]
    if draw(st.integers(0, 3)) == 0:  # a gap vanishing exactly at one knot
        k = draw(st.integers(0, n - 1))
        cols[2][k] = cols[3][k] = 0.0
    gamma = Trajectory(xs, cols[:2], dcols[:2])
    eps = Trajectory(xs, cols[2:], dcols[2:])
    exprs = draw(st.lists(st.sampled_from(_CENSUS), min_size=1, max_size=3))
    bound = st.one_of(st.sampled_from(xs), st.floats(xs[-1] / 2, 1.5))
    window = draw(st.sampled_from(["none", "knots", "bounds", "between"]))
    if window == "none":
        window = None
    elif window == "knots":
        window = tuple(sorted(draw(st.lists(st.sampled_from(xs), min_size=2, max_size=2))))
    elif window == "bounds":
        window = draw(st.tuples(bound, bound))
    else:  # strictly between two knots: no sample
        i = draw(st.integers(0, n - 2))
        mid = 0.5 * (xs[i] + xs[i + 1])
        window = (mid, mid)
    tail = draw(st.tuples(bound, bound))
    return gamma, eps, exprs, window, tail


def _outcome(fn, *args):
    """``repr`` of the JSON form of the result, or the error's type and text."""
    try:
        result = fn(*args)
    except Exception as err:  # noqa: BLE001 -- the errors themselves are compared
        return type(err), str(err)
    if isinstance(result, list):
        return repr([entry.to_json_dict() for entry in result])
    return repr(result.to_json_dict(max_samples=10**6)), result


class _Hung(Exception):
    """The row-wise winding spent its dense-output budget."""


class _Budgeted(Trajectory):
    def __call__(self, x):
        self.budget -= 1
        if self.budget < 0:
            raise _Hung
        return super().__call__(x)


def _budgeted(traj, budget):
    """``traj`` whose dense output raises _Hung after ``budget`` calls."""
    part = traj.slice(range(len(traj.cols)))
    part.__class__, part.budget = _Budgeted, budget
    return part


_UNRESOLVED = "cannot resolve the angle near x = "


@given(_pairs())
@settings(max_examples=400, deadline=None)
def test_census_winding_and_tail_match_the_row_wise_code(case):
    gamma, eps, exprs, window, tail = case
    got = _outcome(sign_census, exprs, gamma, eps, window)
    assert got == _outcome(_pair_reference.sign_census, exprs, gamma, eps, window)
    got = _outcome(winding, eps)
    want = _outcome(_pair_reference.winding, _budgeted(eps, 2000))
    if want[0] is _Hung:
        # a gap curve through the origin between two samples: the row-wise
        # code halves an interval of two adjacent floats without end
        assert got[0] is ZeroEpsilonError and got[1].startswith(_UNRESOLVED)
        return
    assert got[0] == want[0]
    if isinstance(got[1], WindingResult):
        for lo, hi in (tail, (eps.xs[-1], 10 * eps.xs[-1]), (eps.xs[-1], eps.xs[0])):
            assert _monotone_tail(got[1], lo, hi) == _pair_reference._monotone_tail(want[1], lo, hi)
    else:
        assert got == want


def test_census_overflow_names_the_expression_and_the_knot():
    gamma, eps = euler_pair_trajectories()
    with pytest.raises(BlowUpError) as err:
        sign_census(["z1", "z1^-400"], gamma, eps)
    # z1 starts at 0.1, and 0.1^-400 is beyond the float range at the first knot
    assert err.value.last_x == 0.5
    assert str(err.value) == (
        "census expression 'z1^-400' overflows the float range (last x = 0.5)")


def test_census_overflow_at_a_bisection_midpoint():
    # z1 is 2 and -1.5 at the knots, so z1^-601 is finite and changes sign
    # there; the first midpoint has z1 = 0.25 and 0.25^-601 overflows
    xs = [1.0, 0.5]
    gamma = Trajectory(xs, [[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])
    eps = Trajectory(xs, [[2.0, -1.5], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])
    assert eps(0.75)[0] == 0.25
    with pytest.raises(BlowUpError) as err:
        sign_census(["z1^-601"], gamma, eps)
    assert err.value.last_x == 0.75
    assert "census expression 'z1^-601' overflows" in str(err.value)


def test_an_interval_too_short_to_halve_is_an_error():
    # a quarter turn between two adjacent floats: their midpoint rounds to
    # the left knot, so halving never shortens the interval
    eps = Trajectory([1.0, 0.9999999999999999], [[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]])
    assert 0.5 * (eps.xs[0] + eps.xs[1]) == eps.xs[0]
    with pytest.raises(ZeroEpsilonError, match=_UNRESOLVED):
        winding(eps)
