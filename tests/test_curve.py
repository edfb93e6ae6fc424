"""Formal curves: directions, blow-up strict transforms, deviation probes."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interlace.curve import (
    FormalCurve,
    PuiseuxCurve,
    asymptotic_deviation,
    iterated_tangents,
    leading_direction,
    parse_curve,
    spherical_blowup_step,
)
from interlace.errors import (
    DegenerateCurveError,
    DomainError,
    OrderExceededError,
    UnknownIdentifierError,
)
from interlace.integrate import Trajectory
from interlace.series import EXACT, TruncatedSeries, euler_series, float_mode


def C(*component_coeff_lists, order=8, branch=+1):
    comps = tuple(
        TruncatedSeries.from_coeffs(cs, order, EXACT, "t")
        for cs in component_coeff_lists
    )
    curve = FormalCurve(comps)
    return curve.reparameterized(-1) if branch < 0 else curve


# -- leading directions ------------------------------------------------------


def test_monomial_curve_leading_direction():
    assert leading_direction(C([0, 1], [0, 0, 1], [0, 0, 0, 1])) == (1, 0, 0)


def test_euler_curve_leading_direction():
    curve = parse_curve("t, E(t), E(2*t)", 8)
    assert leading_direction(curve) == (1, 1, 2)


def test_line_leading_direction():
    a, b = F(5, 3), F(-7, 2)
    assert leading_direction(C([0, 1], [0, a], [0, b])) == (1, a, b)


def test_zero_curve_rejected():
    with pytest.raises(DegenerateCurveError):
        C([0], [0], [0])


def test_direction_flips_on_negative_half_branch():
    plus = C([0, 1], [0, 0, 1], [0, 0, 0, 1], branch=+1)
    minus = C([0, 1], [0, 0, 1], [0, 0, 0, 1], branch=-1)
    assert leading_direction(plus) == (1, 0, 0)
    assert leading_direction(minus) == (-1, 0, 0)  # odd leading power flips


@given(st.integers(1, 7), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_direction_invariant_under_positive_reparameterization(num, den):
    lam = F(num, den)
    curve = parse_curve("t, E(t), E(2*t)", 8)
    d0 = leading_direction(curve)
    d1 = leading_direction(curve.reparameterized(lam))
    ratios = {F(a) / F(b) for a, b in zip(d1, d0) if b != 0}
    assert len(ratios) == 1 and ratios.pop() > 0


def _negated_odd_coefficients(components):
    """Reference for t -> -t: odd coefficients negated one by one.

    This is ``FormalCurve.effective_components`` on the negative half-branch
    from before the half-branch became ``reparameterized(-1)``, verbatim.
    """
    return tuple(
        TruncatedSeries(
            tuple(c if i % 2 == 0 else -c for i, c in enumerate(s.coeffs)),
            s.mode,
            s.var,
        )
        for s in components
    )


_RATIONALS = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@st.composite
def _curve_coefficients(draw):
    """Two to four coefficient lists with a zero constant term, one nonzero."""
    order = draw(st.integers(1, 9))
    lists = draw(st.lists(
        st.lists(_RATIONALS, min_size=order, max_size=order).map(lambda cs: [0, *cs]),
        min_size=2, max_size=4,
    ))
    if all(c == 0 for cs in lists for c in cs):
        lists[0][1] = F(1)
    return order, lists


@given(_curve_coefficients())
@settings(max_examples=200, deadline=None)
def test_negative_half_branch_matches_coefficient_negation_exactly(data):
    order, lists = data
    curve = FormalCurve(tuple(
        TruncatedSeries.from_coeffs(cs, order, EXACT, "t") for cs in lists
    ))
    got = curve.reparameterized(-1).components
    want = _negated_odd_coefficients(curve.components)
    assert got == want
    assert all(type(c) is F for s in got for c in s.coeffs)


@given(_curve_coefficients(), st.sampled_from([64, 96, 128, 200]))
@settings(max_examples=200, deadline=None)
def test_negative_half_branch_keeps_big_float_precision(data, precision):
    order, lists = data
    mode = float_mode(precision)
    curve = FormalCurve(tuple(
        TruncatedSeries.from_coeffs(cs, order, mode, "t") for cs in lists
    ))
    got = curve.reparameterized(-1).components
    with mode.context():
        want = _negated_odd_coefficients(curve.components)
    assert [[c._mpf_ for c in s.coeffs] for s in got] == [
        [c._mpf_ for c in s.coeffs] for s in want
    ]


def test_reparameterization_factor_must_be_nonzero():
    with pytest.raises(ValueError, match="nonzero"):
        C([0, 1], [0, 0, 1]).reparameterized(0)


# -- blow-up steps -------------------------------------------------------------


def test_line_blows_down_to_axis():
    a, b = F(2), F(-3)
    step = spherical_blowup_step(C([0, 1], [0, a], [0, b]))
    assert step.direction == (1, a, b)
    assert step.chart_index == 0
    assert step.transformed_curve.components[1].is_zero()
    assert step.transformed_curve.components[2].is_zero()


def test_monomial_curve_strict_transform():
    step = spherical_blowup_step(C([0, 1], [0, 0, 1], [0, 0, 0, 1]))
    assert step.direction == (1, 0, 0)
    got = step.transformed_curve
    assert got.components[0] == TruncatedSeries.from_coeffs([0, 1], 7, EXACT, "t")
    assert got.components[1] == TruncatedSeries.from_coeffs([0, 1], 7, EXACT, "t")
    assert got.components[2] == TruncatedSeries.from_coeffs([0, 0, 1], 7, EXACT, "t")


def test_two_step_direction_sequence():
    trail = iterated_tangents(C([0, 1], [0, 0, 1], [0]), 2)
    assert [s.direction for s in trail] == [(1, 0, 0), (1, 1, 0)]


def test_three_step_cusp_sequence_matches_hand_oracle():
    trail = iterated_tangents(C([0, 1], [0, 0, 1], [0, 0, 0, 1]), 3)
    assert [s.direction for s in trail] == [(1, 0, 0), (1, 1, 0), (1, 0, 1)]


def test_line_direction_sequence_stabilizes():
    # a line through the origin maps to its tangent axis after one step, so
    # the sequence is constant from there on; an axis line is constant outright
    trail = iterated_tangents(C([0, 1], [0, 2], [0, 3], order=6), 4)
    assert trail[0].direction == (1, 2, 3)
    assert [s.direction for s in trail[1:]] == [(1, 0, 0)] * 3
    axis = iterated_tangents(C([0, 1], [0], [0], order=6), 4)
    assert [s.direction for s in axis] == [(1, 0, 0)] * 4


def test_each_step_consumes_pivot_valuation_order():
    curve = C([0, 1], [0, 0, 1], [0, 0, 0, 1], order=5)
    step = spherical_blowup_step(curve)
    assert step.transformed_curve.order == 4


def test_blowup_runs_out_of_coefficients_loudly():
    with pytest.raises(OrderExceededError):
        iterated_tangents(C([0, 1], [0, 0, 1], [0], order=2), 2)


def test_directions_agree_with_numeric_spherical_lift():
    # sample the convergent curve near t = 0, normalize to the sphere, apply
    # the directional-chart transform numerically, and compare the limiting
    # direction at every stage with the symbolic answer
    coeff_sets = [
        ([0, 1], [0, 0, 1], [0, 0, 0, 1]),
        ([0, 2], [0, 1, 3], [0, 0, 5]),
        ([0, 0, 1], [0, 0, 0, 2], [0, 0, 3]),
    ]
    for coeffs in coeff_sets:
        curve = C(*coeffs, order=9)
        trail = iterated_tangents(curve, 2)

        def poly(cs):
            return lambda tv: sum(float(c) * tv**i for i, c in enumerate(cs))

        funcs = [poly(cs) for cs in coeffs]
        for step in trail:
            tv = 1e-4
            pts = np.array([f(tv) for f in funcs])
            unit = pts / np.linalg.norm(pts)
            assert np.allclose(unit, np.array(step.unit_direction()), atol=1e-3)
            pivot = step.chart_index
            center = [float(a) / float(step.direction[pivot]) for a in step.direction]

            def transformed(j, fs=funcs, pivot=pivot, center=center):
                if j == pivot:
                    return fs[pivot]
                return lambda s: fs[j](s) / fs[pivot](s) - center[j]

            funcs = [transformed(j) for j in range(3)]


# -- curve DSL --------------------------------------------------------------------


def test_dsl_accepts_either_parameter_name():
    by_t = parse_curve("t, E(t), E(2*t)", 6)
    by_x = parse_curve("x, E(x), E(2*x)", 6)
    assert [s.coeffs for s in by_t.components] == [s.coeffs for s in by_x.components]


def test_dsl_rejects_mixed_parameters():
    with pytest.raises(ValueError):
        parse_curve("t, E(x)", 6)


def test_dsl_rejects_unknown_identifiers():
    with pytest.raises(UnknownIdentifierError):
        parse_curve("t, y1", 6)


def test_dsl_rejects_single_component():
    with pytest.raises(DegenerateCurveError):
        parse_curve("t", 6)


def test_dsl_componentwise_example():
    got = parse_curve("t, E(t)+t^5, E(2*t)", 6)
    e = euler_series(6, var="t")
    t5 = TruncatedSeries.from_coeffs([0, 0, 0, 0, 0, 1], 6, EXACT, "t")
    assert got.components[1] == e + t5


# -- Puiseux interpretation and deviation probes -------------------------------------


def test_puiseux_interpretation_reads_ramification():
    p = C([0, 0, 1], [0, 1], [0, 0, 5], order=6).to_puiseux()
    assert p.nu == 2
    assert len(p.theta) == 2
    with pytest.raises(ValueError):
        C([0, 2], [0, 1], [0, 1]).to_puiseux()


def _trajectory_from(fn, dfn, xs, width=2):
    zeros = [[0.0] * len(xs)] * (width - 1)
    return Trajectory(xs, [[fn(x) for x in xs], *zeros], [[dfn(x) for x in xs], *zeros])


def test_trajectory_equal_to_short_jet_has_order_beyond_it():
    # trajectory IS J_4 theta; measured against J_9 the gap is the t^5 term
    theta = euler_series(9, var="t")
    jet4 = theta.truncated(4)
    xs = [0.1, 0.05, 0.02]
    traj = _trajectory_from(
        lambda x: float(jet4.eval(F(x))),
        lambda x: 1.0,
        xs,
    )
    curve = PuiseuxCurve(1, (theta, TruncatedSeries.zero(9, EXACT, "t")))
    rep = asymptotic_deviation(traj, curve, 9, xs)
    assert all(s > 4 for s in rep.slopes)
    assert all(p.deviation > 0 for p in rep.probes)


def test_curve_shifted_by_parameter_reads_order_one():
    theta = euler_series(9, var="t")
    shifted = theta + TruncatedSeries.identity(9, var="t")
    xs = [0.1, 0.05, 0.02]
    traj = _trajectory_from(lambda x: float(theta.eval(F(x))), lambda x: 1.0, xs)
    curve = PuiseuxCurve(1, (shifted, TruncatedSeries.zero(9, EXACT, "t")))
    rep = asymptotic_deviation(traj, curve, 9, xs)
    for p in rep.probes:
        assert abs(p.empirical_order - 1.0) < 0.25
    for s in rep.slopes:
        assert abs(s - 1.0) < 0.1


def test_probe_outside_domain_rejected():
    theta = euler_series(5, var="t")
    traj = _trajectory_from(lambda x: x, lambda x: 1.0, [0.1, 0.05])
    curve = PuiseuxCurve(1, (theta, TruncatedSeries.zero(5, EXACT, "t")))
    with pytest.raises(DomainError):
        asymptotic_deviation(traj, curve, 4, [0.2])
