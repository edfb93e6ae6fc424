"""Vector fields: invariance multiplier, chart reduction, difference systems."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from interlace.curve import parse_curve
from interlace.errors import EvaluationSingularityError, NonAdaptedChartError
from interlace.expr import (
    BinOp,
    Var,
    compile_expr,
    evaluate_mp,
    parse_expr,
    rename_vars,
    to_text,
)
from interlace.field import (
    DIFFERENCE_VARS,
    ReducedSystem,
    VectorField3,
    chart_reduce,
    difference_system,
    invariance_check,
)
from interlace.integrate import IVP, solve_pair
from interlace.series import TruncatedSeries, float_mode

from _expr_reference import evaluate
from test_expr import XYZ, _expr_strategy

XI1 = VectorField3.from_text("xi1", "2*x^2", "2*(y-x)", "z-2*x")
RADIAL = VectorField3.from_text("radial", "x", "y", "z")


def test_euler_center_curve_is_invariant_with_quadratic_multiplier():
    curve = parse_curve("t, E(t), E(2*t)", 31)
    rep = invariance_check(XI1, curve, 30)
    assert rep.invariant
    assert all(r.is_zero() for r in rep.residuals)
    want = TruncatedSeries.from_coeffs([0, 0, 2], rep.multiplier.order, var="t")
    assert rep.multiplier == want


def test_radial_field_fixes_the_diagonal_line():
    curve = parse_curve("t, t, t", 12)
    rep = invariance_check(RADIAL, curve, 10)
    assert rep.invariant
    assert rep.multiplier == TruncatedSeries.identity(rep.multiplier.order, var="t")


def test_perturbed_curve_fails_with_low_order_residual():
    curve = parse_curve("t, E(t)+t^5, E(2*t)", 31)
    rep = invariance_check(XI1, curve, 30)
    assert not rep.invariant
    assert rep.residual_val() <= 6


def test_mirrored_and_shifted_argument_curves():
    xi2 = VectorField3.from_text("xi2", "x^2", "y-x", "-(z+x)")
    rep = invariance_check(xi2, parse_curve("t, E(t), E(-t)", 25), 24)
    assert rep.invariant
    xi3 = VectorField3.from_text(
        "xi3", "x^2", "y-x", "(1+2*x)/(1+x)^2*z - x*(1+2*x)/(1+x)"
    )
    rep = invariance_check(xi3, parse_curve("t, E(t), E(t+t^2)", 25), 24)
    assert rep.invariant


def test_exponential_component_curves():
    xi4 = VectorField3.from_text("xi4", "x^2", "y-x", "y*z")
    for mu in (1, 2):
        curve = parse_curve(f"t, E(t), {mu}*t*exp(E(t))", 25)
        rep = invariance_check(xi4, curve, 24)
        assert rep.invariant


def test_invariance_is_stable_under_positive_reparameterization():
    curve = parse_curve("t, E(t), E(2*t)", 21)
    lam = F(3, 2)
    rep = invariance_check(XI1, curve.reparameterized(lam), 20)
    assert rep.invariant
    # chain rule: xi(C(lam t)) = h(lam t) C'(lam t) = (h(lam t)/lam) d/dt C(lam t)
    base = invariance_check(XI1, curve, 20).multiplier
    n = rep.multiplier.order
    expect = tuple(lam**i / lam * base.coeffs[i] for i in range(n + 1))
    assert rep.multiplier.coeffs == expect

    bad = parse_curve("t, E(t)+t^5, E(2*t)", 21)
    assert not invariance_check(XI1, bad.reparameterized(lam), 20).invariant


def test_float_mode_invariance_uses_scaled_residual():
    mode = float_mode(128)
    curve = parse_curve("t, E(t), E(2*t)", 21, mode)
    rep = invariance_check(XI1, curve, 20)
    assert rep.invariant
    assert rep.max_residual <= 1e-30 * rep.scale


def test_constant_third_component_is_tolerated():
    # one vanishing derivative is fine as long as some component moves
    field = VectorField3.from_text("flat_z", "x", "y", "0")
    curve = parse_curve("t, t, 0", 8)
    rep = invariance_check(field, curve, 6)
    assert rep.invariant


def test_chart_reduction_examples():
    r4 = chart_reduce(VectorField3.from_text("xi4", "x^2", "y-x", "y*z"))
    assert to_text(r4.f1) == "(y1 - x)/x^2"
    assert to_text(r4.f2) == "y1*y2/x^2"
    r1 = chart_reduce(XI1)
    assert to_text(r1.f1) == "2*(y1 - x)/(2*x^2)"
    assert to_text(r1.f2) == "(y2 - 2*x)/(2*x^2)"
    # quotient trees evaluate to the expected values
    env = {"x": 0.25, "y1": 0.5, "y2": 0.125}
    assert evaluate(r1.f1, env) == pytest.approx((0.5 - 0.25) / 0.25**2)


def test_chart_reduction_needs_nonzero_first_component():
    with pytest.raises(NonAdaptedChartError):
        chart_reduce(VectorField3.from_text("bad", "0", "y", "z"))
    with pytest.raises(NonAdaptedChartError):
        chart_reduce(VectorField3.from_text("hidden", "2*(3-3)", "y", "z"))


def test_difference_system_is_exact_at_zero_gap():
    r = chart_reduce(VectorField3.from_text("xi4", "x^2", "y-x", "y*z"))
    d = difference_system(r)
    rng = random.Random(7)
    for _ in range(100):
        x = rng.uniform(0.05, 2.0)
        y1, y2 = rng.uniform(-3, 3), rng.uniform(-3, 3)
        assert d.rhs(x, (y1, y2, 0.0, 0.0))[2:] == (0.0, 0.0)


def test_difference_system_linear_case_reduces_to_gap_over_x_squared():
    r = chart_reduce(XI1)
    d = difference_system(r)
    rng = random.Random(11)
    for _ in range(50):
        x = rng.uniform(0.05, 1.5)
        y1, y2, z1, z2 = (rng.uniform(-2, 2) for _ in range(4))
        got = d.rhs(x, (y1, y2, z1, z2))
        assert got[2] == pytest.approx(z1 / x**2, rel=1e-12, abs=1e-14)
        assert got[3] == pytest.approx(z2 / (2 * x**2), rel=1e-12, abs=1e-14)


def test_difference_matches_tree_subtraction_pointwise():
    r = chart_reduce(VectorField3.from_text("xi4", "x^2", "y-x", "y*z"))
    d = difference_system(r)
    f1 = r.f1
    rng = random.Random(3)
    for _ in range(100):
        x = rng.uniform(0.1, 2.0)
        y1, y2, z1, z2 = (rng.uniform(-1, 1) for _ in range(4))
        direct = evaluate(f1, {"x": x, "y1": y1 + z1, "y2": y2 + z2}) - evaluate(
            f1, {"x": x, "y1": y1, "y2": y2}
        )
        got = d.rhs(x, (y1, y2, z1, z2))[2]
        assert got == pytest.approx(direct, rel=1e-9, abs=1e-12)


SHIFTED = {"y1": BinOp("+", Var("y1"), Var("z1")), "y2": BinOp("+", Var("y2"), Var("z2"))}

GAP_SYSTEMS = [
    ("(y1-x)/x^2", "(y2-2*x)/(2*x^2)"),
    ("(y1/10 - y2)/x^2", "(y2/10 + y1)/x^2"),
    ("y1*y2/(x^2+y1)", "y1^2/x - 1/y2"),
    ("((1+2*x)/(1+x)^2*y2 - x*(1+2*x)/(1+x))/x^2", "(y1 - y2)^3/(x*y1)"),
]


@pytest.mark.parametrize("f1, f2", GAP_SYSTEMS)
def test_exact_gap_matches_bigfloat_literal_difference(f1, f2):
    # the literal difference f(y+z) - f(y) at 400 bits keeps 40+ digits for
    # gaps down to 1e-80.  The float64 gap is a divided difference, so its
    # error does not grow where y1 and y2 nearly agree: each system is also
    # checked at |y1 - y2| <= 3e-3, where the cubic (y1 - y2)^3 is hardest
    r = ReducedSystem.from_text(f1, f2)
    d = difference_system(r)
    literal = [BinOp("-", rename_vars(f, SHIFTED), f) for f in (r.f1, r.f2)]
    rng = random.Random(5)
    for near in (False, True):
        for _ in range(60):
            x = rng.uniform(0.05, 1.0)
            y1, y2 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            if near:
                y2 = y1 + (y2 - 1.25) * 4e-3  # |y1 - y2| <= 3e-3
            scale = 10.0 ** -rng.randint(1, 80)
            z1, z2 = (rng.choice((-1, 1)) * rng.uniform(0.1, 1.0) * scale for _ in range(2))
            got = d.rhs(x, (y1, y2, z1, z2))[2:]
            env = {"x": x, "y1": y1, "y2": y2, "z1": z1, "z2": z2}
            for g, tree in zip(got, literal):
                want = float(evaluate_mp(tree, env, prec=400))
                assert g == pytest.approx(want, rel=1e-11, abs=0.0)


_DYADIC = st.builds(F, st.integers(-16, 16), st.sampled_from([1, 2, 4, 8]))


@given(
    _expr_strategy(),
    st.tuples(_DYADIC, _DYADIC, _DYADIC),
    st.tuples(_DYADIC, _DYADIC),
    st.integers(0, 64),
)
@example(parse_expr("(y - z)^3/(x*y)", XYZ), (F(1, 2), F(1), F(1)), (F(1), F(-1)), 40)
@example(parse_expr("x/(y - z)^-2 + 3/z", XYZ), (F(1), F(2), F(1, 4)), (F(1, 2), F(0)), 5)
@settings(max_examples=200, deadline=None)
def test_gap_of_any_tree_is_the_literal_difference(tree, point, gaps, bits):
    # dyadic points are exact floats: the gap tree equals the literal
    # difference f(y+z) - f(y) exactly over Fraction, and at 400 bits
    f = rename_vars(tree, {"y": "y1", "z": "y2"})
    gap = difference_system(ReducedSystem(f, f)).f3
    literal = BinOp("-", rename_vars(f, SHIFTED), f)
    values = point + tuple(g / 2**bits for g in gaps)
    try:
        want, got = compile_expr((literal, gap), DIFFERENCE_VARS, F)(*values)
    except EvaluationSingularityError:
        assume(False)
    assert got == want
    env = {n: float(v) for n, v in zip(DIFFERENCE_VARS, values)}
    got_mp, want_mp, f_mp, f_shifted_mp = (
        evaluate_mp(t, env, prec=400) for t in (gap, literal, f, rename_vars(f, SHIFTED))
    )
    scale = max(abs(f_mp), abs(f_shifted_mp))
    assert abs(got_mp - want_mp) <= 1e-30 * max(abs(want_mp), scale)


def test_nonlinear_pair_matches_the_closed_form_gap():
    # y' = y^2/x^2 is solved by y = x/(1 + a x); two solutions with
    # y(1) = y0 and y0 + g differ by x^2 (a - b)/((1 + a x)(1 + b x)), where
    # a - b = g/(y0 (y0 + g)) needs no subtraction
    system = ReducedSystem.from_text("y1^2/x^2", "y2^2/x^2")
    y0 = 0.5

    def closed_form(x, g):
        a, b = 1 / y0 - 1, 1 / (y0 + g) - 1
        return x * x * g / (y0 * (y0 + g) * (1 + a * x) * (1 + b * x))

    for g in (1e-3, 1e-20, 1e-80, 1e-200):
        _, eps = solve_pair(IVP(system, 1.0, 0.01, (y0, y0)), (g, -g / 2))
        for x, e1, e2 in zip(eps.xs, *eps.cols):
            assert e1 == pytest.approx(closed_form(x, g), rel=1e-8, abs=0.0)
            assert e2 == pytest.approx(closed_form(x, -g / 2), rel=1e-8, abs=0.0)


def test_rhs_at_a_singular_point_names_the_whole_point_in_order():
    planar = ReducedSystem.from_text("y1/(x - y2)", "y2")
    for system, y in ((planar, (2.0, 0.5)), (difference_system(planar), (2.0, 0.5, 0.25, 0.125))):
        with pytest.raises(EvaluationSingularityError) as err:
            system.rhs(0.5, y)
        assert err.value.subexpr_text == "y1/(x - y2)"
        names = ("x", "y1", "y2", "z1", "z2")[: 1 + len(y)]
        assert err.value.point == dict(zip(names, (0.5, *y)))
        assert str(err.value).endswith(f"at {dict(zip(names, (0.5, *y)))}")


def test_difference_system_small_gap_is_cancellation_free():
    # float64 subtraction would return garbage at this gap scale
    r = chart_reduce(XI1)
    d = difference_system(r)
    z1 = 1e-22
    got = d.rhs(0.02, (0.0204, 0.041, z1, 0.0))[2]
    assert got == pytest.approx(z1 / 0.02**2, rel=1e-12)


def test_exact_invariance_with_coefficients_beyond_the_float_range():
    # a line of slope ~2^1100 through the origin: invariant under the radial
    # field, with images whose coefficients overflow a float conversion
    big = 2**1100 + 1
    curve = parse_curve(f"t, {big}*t, t", 6)
    rep = invariance_check(RADIAL, curve, 5)
    assert rep.invariant
    assert rep.max_residual == 0.0
    assert rep.scale == math.inf
    bent = invariance_check(RADIAL, parse_curve(f"t, {big}*t + t^2, t", 6), 5)
    assert not bent.invariant


def test_float_invariance_tolerance_holds_beyond_the_float_range():
    # the scaled tolerance is compared in big-float arithmetic, so a residual
    # that is large relative to a scale beyond 1e308 is still caught
    mode = float_mode(128)
    rep = invariance_check(RADIAL, parse_curve("t, 2^1100*t, t", 6, mode), 5)
    assert rep.invariant and rep.scale == math.inf
    bent = invariance_check(RADIAL, parse_curve("t, 2^1100*t + 2^1100*t^2, t", 6, mode), 5)
    assert not bent.invariant


def test_reduced_system_round_trips_through_grammar_text():
    r = chart_reduce(XI1)
    f1_text, f2_text = r.component_texts()
    assert parse_expr(f1_text, ("x", "y1", "y2")) == r.f1
    assert parse_expr(f2_text, ("x", "y1", "y2")) == r.f2
