"""Vector fields: invariance multiplier, chart reduction, difference systems."""

import math
import random
from fractions import Fraction as F

import pytest

from interlace.curve import parse_curve
from interlace.errors import NonAdaptedChartError
from interlace.expr import BinOp, Var, evaluate_mp, parse_expr, rename_vars, to_text
from interlace.field import (
    ReducedSystem,
    VectorField3,
    chart_reduce,
    difference_system,
    invariance_check,
)
from interlace.series import TruncatedSeries, float_mode

from _expr_reference import evaluate

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


GAP_SYSTEMS = [
    ("(y1-x)/x^2", "(y2-2*x)/(2*x^2)"),
    ("(y1/10 - y2)/x^2", "(y2/10 + y1)/x^2"),
    ("y1*y2/(x^2+y1)", "y1^2/x - 1/y2"),
    ("((1+2*x)/(1+x)^2*y2 - x*(1+2*x)/(1+x))/x^2", "(y1 - y2)^3/(x*y1)"),
]


@pytest.mark.parametrize("f1, f2", GAP_SYSTEMS)
def test_exact_gap_matches_bigfloat_literal_difference(f1, f2):
    # the literal difference f(y+z) - f(y) at 400 bits keeps 40+ digits for
    # gaps down to 1e-80.  The float64 quotient's error is set by how the
    # expanded numerator cancels in (x, y), not by the gap size: the cubic
    # (y1 - y2)^3 is worst here, 1.9e-10 at y1 - y2 = 3e-3
    r = ReducedSystem.from_text(f1, f2)
    d = difference_system(r)
    shifted = {"y1": BinOp("+", Var("y1"), Var("z1")), "y2": BinOp("+", Var("y2"), Var("z2"))}
    literal = [BinOp("-", rename_vars(f, shifted), f) for f in (r.f1, r.f2)]
    rng = random.Random(5)
    for _ in range(60):
        x = rng.uniform(0.05, 1.0)
        y1, y2 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        scale = 10.0 ** -rng.randint(1, 80)
        z1, z2 = (rng.choice((-1, 1)) * rng.uniform(0.1, 1.0) * scale for _ in range(2))
        got = d.rhs(x, (y1, y2, z1, z2))[2:]
        env = {"x": x, "y1": y1, "y2": y2, "z1": z1, "z2": z2}
        for g, tree in zip(got, literal):
            want = float(evaluate_mp(tree, env, prec=400))
            assert g == pytest.approx(want, rel=1e-9, abs=0.0)


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
