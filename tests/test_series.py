"""Exact series algebra: frozen oracle values, error contracts, ring laws."""

import copy
import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from interlace.errors import (
    CompositionAtUnitError,
    InterlaceError,
    ModeMismatchError,
    NonUnitDivisorError,
    NonzeroConstantTermError,
    OrderExceededError,
    OrderUnderflowError,
    UndefinedValuationError,
)
from interlace.series import (
    EXACT,
    INF,
    Poly,
    TruncatedSeries,
    compose,
    derive,
    divide,
    euler_series,
    exp_series,
    float_mode,
    q_short_check,
    shift_divide,
    tail_T,
    truncate_J,
)

from interlace.expr import BinOp, Neg, Num, Pow, Var, compile_expr, to_text
from interlace.pipelines import expr_to_poly

import _exact_reference


def S(coeffs, order=None, mode=EXACT):
    return TruncatedSeries.from_coeffs(coeffs, order, mode)


def x_series(order):
    return TruncatedSeries.identity(order)


# -- strategies ----------------------------------------------------------

small_fraction = st.builds(
    F, st.integers(-9, 9), st.integers(1, 9)
)


def series_strategy(order=8, min_val=0):
    def build(coeffs):
        return S([F(0)] * min_val + coeffs, order)

    return st.lists(small_fraction, min_size=1, max_size=order + 1 - min_val).map(build)


# -- ring operations -------------------------------------------------------


def test_addition_cancels_matching_terms():
    assert S([0, 1, 1]) + S([0, -1]) == S([0, 0, 1]).truncated(1)


def test_x_times_x_is_x_squared():
    assert x_series(3) * x_series(3) == S([0, 0, 1], 3)


def test_zero_absorbs_products():
    e = euler_series(6)
    assert (e * TruncatedSeries.zero(6)).is_zero()


def test_result_order_is_minimum_of_operand_orders():
    assert (S([1], 5) + S([1], 3)).order == 3
    assert (S([1, 1], 7) * S([1], 2)).order == 2


def test_mixed_modes_rejected():
    with pytest.raises(ModeMismatchError):
        S([1], 3) + S([1], 3, float_mode(96))


@given(series_strategy(), series_strategy(), series_strategy())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


sparse_coeffs = st.lists(st.one_of(st.just(F(0)), small_fraction), min_size=1, max_size=9)


@given(sparse_coeffs, sparse_coeffs, st.booleans())
@settings(max_examples=60, deadline=None)
def test_product_equals_dense_convolution_in_both_modes(a_coeffs, b_coeffs, exact):
    mode = EXACT if exact else float_mode(96)
    a, b = S(a_coeffs, 8, mode), S(b_coeffs, 6, mode)
    want = [mode.zero()] * 7
    for i in range(7):
        for j in range(7 - i):
            if a.coeffs[i] != 0 and b.coeffs[j] != 0:
                want[i + j] += a.coeffs[i] * b.coeffs[j]
    assert (a * b).coeffs == tuple(want)


# -- derivative -------------------------------------------------------------


def test_derivative_of_x_squared():
    assert derive(S([0, 0, 1], 3)) == S([0, 2], 2)


def test_derivative_of_euler_series():
    # termwise: sum (n+1)! x^n
    assert derive(euler_series(5)) == S([1, 2, 6, 24, 120], 4)


def test_derivative_of_constant_vanishes():
    assert derive(S([1], 4)).is_zero()


def test_derivative_needs_positive_order():
    with pytest.raises(OrderUnderflowError):
        derive(S([3], 0))


# -- composition -------------------------------------------------------------


def test_compose_euler_with_doubled_argument():
    got = compose(euler_series(4), S([0, 2], 4))
    assert got == S([0, 2, 4, 16, 96], 4)


def test_compose_with_identity_is_identity():
    e = euler_series(6)
    assert compose(e, x_series(6)) == e


def test_compose_square_with_binomial():
    got = compose(S([0, 0, 1], 4), S([0, 1, 1], 4))
    assert got == S([0, 0, 1, 2, 1], 4)


def test_compose_rejects_unit_inner_series():
    with pytest.raises(CompositionAtUnitError):
        compose(euler_series(4), S([1, 1], 4))


@given(series_strategy(), series_strategy(min_val=1), series_strategy(min_val=1))
@settings(max_examples=40, deadline=None)
def test_compose_is_associative(s, p, r):
    lhs = compose(compose(s, p), r)
    rhs = compose(s, compose(p, r))
    n = min(lhs.order, rhs.order)
    assert lhs.truncated(n) == rhs.truncated(n)


wide_fraction = st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**6))
sparse_wide = st.lists(st.one_of(st.just(F(0)), wide_fraction), min_size=1, max_size=31)
monomial_factor = st.one_of(
    st.sampled_from([F(1), F(-1), F(-2), F(2), F(-3, 7)]),
    wide_fraction.filter(lambda c: c != 0),
)


@st.composite
def inner_series_coeffs(draw):
    """Inner coefficient lists with val >= 1: one, two or many terms, or a unit."""
    kind = draw(st.sampled_from(["one", "one", "two", "many", "unit"]))
    if kind == "one":
        k = draw(st.integers(1, 7))
        return [F(0)] * k + [draw(monomial_factor)]
    if kind == "two":
        k, j = sorted(draw(st.lists(st.integers(1, 40), min_size=2, max_size=2, unique=True)))
        cs = [F(0)] * (j + 1)
        cs[k], cs[j] = draw(monomial_factor), draw(monomial_factor)
        return cs
    if kind == "many":
        return [F(0)] + draw(sparse_wide)
    return [draw(monomial_factor)] + draw(sparse_wide)


def stored_at(coeffs, order, mode, extra_bits):
    """A float series whose coefficients carry ``extra_bits`` beyond its mode.

    The values belong to the mode's context, so they round at its precision
    in every operation, as values that the mode rounded itself do.
    """
    wide = float_mode(mode.precision + extra_bits).coerce
    cs = [mode.ctx.make_mpf(wide(c)._mpf_) for c in coeffs]
    cs += [mode.zero()] * (order + 1 - len(cs))
    return TruncatedSeries(tuple(cs[: order + 1]), mode)


def outcome(fn, *args):
    """Coefficients and JSON of ``fn(*args)``, or the type and text of its error."""
    try:
        got = fn(*args)
    except InterlaceError as err:
        return type(err), str(err)
    if got.mode.exact:
        assert all(type(c) is F for c in got.coeffs)
        return got.coeffs, got.to_json_dict()
    return [c._mpf_ for c in got.coeffs], got.to_json_dict()


@given(
    sparse_wide,
    inner_series_coeffs(),
    st.integers(0, 30),
    st.integers(0, 45),
    st.one_of(st.none(), st.integers(64, 200)),
    st.sampled_from([0, 0, 40]),
)
@settings(max_examples=300, deadline=None)
def test_compose_matches_horner_reference(outer, inner, s_order, p_order, precision, extra):
    # the one-term map and the coefficient-0 Horner step against the Horner
    # loop they replaced: equal Fractions, equal bits, or the same error
    mode = EXACT if precision is None else float_mode(precision)
    if mode.exact or not extra:
        s, p = S(outer, s_order, mode), S(inner, p_order, mode)
    else:
        s, p = stored_at(outer, s_order, mode, extra), stored_at(inner, p_order, mode, extra)
    want = outcome(_exact_reference.compose, s, p)
    assert outcome(compose, s, p) == want


@pytest.mark.parametrize("precision", [None, 64, 200])
@pytest.mark.parametrize("c", [F(1), F(-1), F(-5, 3)])
@pytest.mark.parametrize("k", [1, 3])
def test_compose_with_a_monomial_matches_horner_on_the_euler_series(precision, c, k):
    mode = EXACT if precision is None else float_mode(precision)
    s = euler_series(60, mode)
    p = S([0] * k + [c], 60, mode)
    want = outcome(_exact_reference.compose, s, p)
    assert outcome(compose, s, p) == want


# -- division -----------------------------------------------------------------


def test_geometric_series_from_division():
    got = divide(S([1], 3), S([1, 1], 3))
    assert got == S([1, -1, 1, -1], 3)


def test_division_by_one_is_identity():
    e = euler_series(5)
    assert divide(e, S([1], 5)) == e


def test_division_by_non_unit_rejected():
    with pytest.raises(NonUnitDivisorError):
        divide(S([0, 0, 1], 4), S([0, 1, 1], 4))


def test_spec_rational_coefficient_expansion():
    # (1+2x)/(1+x)^2 = 1 - x^2 + 2x^3 - 3x^4 + ...
    num = S([1, 2], 5)
    den = S([1, 1], 5) * S([1, 1], 5)
    assert divide(num, den) == S([1, 0, -1, 2, -3, 4], 5)


@given(series_strategy(), series_strategy().filter(lambda u: u.coeffs[0] != 0))
@settings(max_examples=40, deadline=None)
def test_division_inverts_multiplication(a, u):
    assert divide(a * u, u) == a
    assert divide(u, u) == S([1], u.order)


def test_shift_divide_monomials():
    got = shift_divide(S([0, 0, 1], 4), S([0, 1], 4))
    assert got == S([0, 1], 3)
    with pytest.raises(NonUnitDivisorError):
        shift_divide(S([0, 1], 4), S([0, 0, 1], 4))


# -- exponential -----------------------------------------------------------------


def test_exp_of_x():
    assert exp_series(x_series(3)) == S([1, 1, F(1, 2), F(1, 6)], 3)


def test_exp_of_zero_is_one():
    assert exp_series(TruncatedSeries.zero(4)) == S([1], 4)


def test_exp_of_euler_series():
    # brute-force sum E^k/k! for E = x + x^2 + 2x^3
    e = euler_series(3)
    acc = TruncatedSeries.zero(3)
    power = S([1], 3)
    fact = 1
    for k in range(4):
        acc = acc + power.scale(F(1, fact))
        power = power * e
        fact *= k + 1
    got = exp_series(e)
    assert got == acc
    assert got == S([1, 1, F(3, 2), F(19, 6)], 3)


def test_exp_rejects_constant_term_in_exact_mode():
    with pytest.raises(NonzeroConstantTermError):
        exp_series(S([1, 1], 4))


def test_exp_allows_constant_term_in_float_mode():
    got = exp_series(S([1, 1], 4, float_mode(128)))
    assert abs(float(got.coeffs[0]) - math.e) < 1e-15


@given(series_strategy(min_val=1), series_strategy(min_val=1))
@settings(max_examples=25, deadline=None)
def test_exp_functional_equations(a, b):
    n = min(a.order, b.order)
    a, b = a.truncated(n), b.truncated(n)
    one = S([1], n)
    assert exp_series(a) * exp_series(-a) == one
    assert exp_series(a + b) == exp_series(a) * exp_series(b)


# -- truncation and tails -----------------------------------------------------------


def test_truncation_drops_high_degrees_only():
    assert truncate_J(S([0, 1, 1], 2), 1) == S([0, 1], 2)
    e = euler_series(6)
    assert truncate_J(e, 3) == S([0, 1, 1, 2], 6)
    s = S([5, 7, 11], 2)
    assert truncate_J(s, 0) == S([5], 2)


def test_tail_shifts_past_the_truncation():
    assert tail_T(S([0, 1, 1], 2), 1) == S([0, 1], 1)
    assert tail_T(euler_series(5), 3) == S([0, 6, 24], 2)


def test_tail_zero_subtracts_constant_term():
    s = S([4, 1, 2], 2)
    assert tail_T(s, 0) == S([0, 1, 2], 2)
    v = S([0, 3, 1], 2)
    assert tail_T(v, 0) == v


def test_tail_of_series_with_low_valuation_is_permitted():
    # T_k is defined for any series; indices only shift
    s = S([0, 1, 5, 7], 3)
    assert tail_T(s, 2) == S([0, 7], 1)


def test_truncation_operators_reject_excess_degree():
    with pytest.raises(OrderExceededError):
        truncate_J(S([1, 1], 1), 2)
    with pytest.raises(OrderExceededError):
        tail_T(S([1, 1], 1), 2)


@given(series_strategy(order=10), st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_reconstruction_identity(s, k):
    # J_k s + x^k T_k s = s through the tail's order
    tail = tail_T(s, k)
    shifted = TruncatedSeries(
        tuple([F(0)] * k + list(tail.coeffs)), s.mode, s.var
    )
    lhs = truncate_J(s, k).truncated(shifted.order) + shifted
    assert lhs == s.truncated(shifted.order)


@given(series_strategy(order=10), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_tail_composition_identity(s, k):
    lhs = tail_T(s, k + 1)
    rhs = tail_T(tail_T(s, 1), k)
    n = min(lhs.order, rhs.order)
    assert lhs.truncated(n) == rhs.truncated(n)


# -- Euler series ---------------------------------------------------------------------


def test_euler_series_coefficients_are_factorials():
    assert euler_series(5) == S([0, 1, 1, 2, 6, 24], 5)
    assert euler_series(1) == S([0, 1], 1)


def test_euler_series_solves_its_singular_equation():
    # x^2 E' = E - x through order 30
    e = euler_series(31)
    x_sq = S([0, 0, 1], 31)
    lhs = x_sq * derive(e)
    rhs = e - x_series(31)
    assert lhs == rhs.truncated(lhs.order)


def test_euler_recurrence():
    e = euler_series(20)
    assert e.coeffs[1] == 1
    for n in range(1, 20):
        assert e.coeffs[n + 1] == n * e.coeffs[n]


# -- q-short polynomials -----------------------------------------------------------------


def test_single_monomial_is_short_and_positive():
    rep = q_short_check(Poly.from_coeffs([0, 2]), 1)
    assert rep.is_short and rep.is_positive


def test_negated_monomial_is_short_but_not_positive():
    rep = q_short_check(Poly.from_coeffs([0, -1]), 1)
    assert rep.is_short and not rep.is_positive


def test_degree_two_with_valuation_one_is_not_short():
    rep = q_short_check(Poly.from_coeffs([0, 1, 1]), 1)
    assert not rep.is_short
    assert (rep.val, rep.deg) == (1, 2)


def test_zero_polynomial_has_no_valuation():
    with pytest.raises(UndefinedValuationError):
        q_short_check(Poly.from_coeffs([]), 1)


def test_constant_term_disqualifies_shortness():
    rep = q_short_check(Poly.from_coeffs([1, 1]), 1)
    assert not rep.is_short


def _polynomial_tree():
    """Trees in x that are polynomials: no division except by a nonzero literal."""
    rational = st.builds(F, st.integers(0, 9), st.integers(1, 9))  # as the parser builds them
    nonzero = st.builds(F, st.integers(1, 9), st.integers(1, 9))
    atoms = st.one_of(st.builds(Num, rational), st.just(Var("x")))

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Pow, children, st.integers(0, 3)),
            st.tuples(st.sampled_from("+-*"), children, children).map(lambda t: BinOp(*t)),
            st.builds(lambda a, c: BinOp("/", a, Num(c)), children, nonzero),
        )

    return st.recursive(atoms, extend, max_leaves=10)


_POINTS = st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 5)), min_size=1, max_size=4)


@given(_polynomial_tree(), _POINTS)
@settings(max_examples=200, deadline=None)
def test_poly_coefficients_agree_with_exact_evaluation(tree, points):
    p = expr_to_poly(to_text(tree))
    exact = compile_expr(tree, ("x",), F)
    for q in points:
        assert sum(c * q**i for i, c in enumerate(p.coeffs)) == exact(q)


# -- integer kernels against the Fraction loops ---------------------------------------


@st.composite
def exact_series(draw, max_order=60):
    """Exact series of order 0..max_order, dense or sparse, denominators up to 10^12.

    Each series draws its denominators from a pool of up to three, so their
    lcm stays below 10^36; the constant term is drawn, zero or negative.
    """
    n = draw(st.integers(0, max_order))
    dens = draw(st.lists(st.integers(1, 10**12), min_size=1, max_size=3))
    coefficient = st.builds(F, st.integers(-(10**12), 10**12), st.sampled_from(dens))
    if draw(st.booleans()):
        cs = draw(st.lists(coefficient, min_size=n + 1, max_size=n + 1))
    else:
        cs = [F(0)] * (n + 1)
        for i, c in draw(st.dictionaries(st.integers(0, n), coefficient, max_size=5)).items():
            cs[i] = c
    head = draw(st.sampled_from(["drawn", "zero", "negative"]))
    if head == "zero":
        cs[0] = F(0)
    elif head == "negative":
        cs[0] = -abs(cs[0]) or F(-1, dens[0])
    return S(cs, n)


@given(exact_series(), exact_series())
@settings(max_examples=150, deadline=None)
def test_integer_product_matches_fraction_loop(a, b):
    assert outcome(TruncatedSeries.__mul__, a, b) == outcome(_exact_reference.mul, a, b)


@given(exact_series(), exact_series())
@settings(max_examples=150, deadline=None)
def test_integer_division_matches_fraction_loop(a, u):
    # a drawn zero constant term in u checks the non-unit error
    assert outcome(divide, a, u) == outcome(_exact_reference.divide, a, u)


@given(exact_series(), exact_series(), st.integers(0, 4), st.booleans())
@settings(max_examples=100, deadline=None)
def test_integer_shift_division_matches_fraction_loop(a, u, v, shift_a):
    u = S([F(0)] * v + list(u.coeffs), u.order + v)
    if shift_a:  # val a >= v: a quotient exists when u's drawn head is nonzero
        a = S([F(0)] * v + list(a.coeffs), a.order + v)
    assert outcome(shift_divide, a, u) == outcome(_exact_reference.shift_divide, a, u)


@given(exact_series())
@settings(max_examples=100, deadline=None)
def test_integer_exponential_matches_fraction_loop(s):
    # a drawn nonzero constant term checks the irrational-constant error
    assert outcome(exp_series, s) == outcome(_exact_reference.exp_series, s)


@given(exact_series(max_order=40), exact_series(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_integer_horner_matches_fraction_loop(s, p, unit):
    if not unit:
        p = S((F(0),) + p.coeffs[1:], p.order)
    assert outcome(compose, s, p) == outcome(_exact_reference.compose, s, p)


def test_kernel_errors_match_fraction_loops():
    a, non_unit = S([1, 2, 3], 5), S([0, 1], 5)
    cases = [
        (divide, _exact_reference.divide, (a, non_unit)),
        (shift_divide, _exact_reference.shift_divide, (S([1, 1], 5), non_unit)),
        (exp_series, _exact_reference.exp_series, (S([F(-1, 3), 1], 5),)),
        (compose, _exact_reference.compose, (a, S([F(-2), 1, 1], 5))),
    ]
    for fn, ref, args in cases:
        got = outcome(fn, *args)
        assert issubclass(got[0], InterlaceError)
        assert got == outcome(ref, *args)


_FLOAT_KERNELS = {
    "mul": (TruncatedSeries.__mul__, _exact_reference.mul),
    "compose": (compose, _exact_reference.compose),
    "divide": (divide, _exact_reference.divide),
    "shift_divide": (shift_divide, _exact_reference.shift_divide),
    "exp_series": (exp_series, _exact_reference.exp_series),
}


@pytest.mark.parametrize("kernel", sorted(_FLOAT_KERNELS))
def test_float_kernels_are_the_fraction_loops(kernel):
    fn, ref = _FLOAT_KERNELS[kernel]
    mode = float_mode(113)
    a = S([F(-3, 7), F(1, 3), 0, F(5, 11), F(-2, 9)] * 6, 29, mode)
    b = S([0, F(2, 3), F(-1, 5), 0, F(7, 13)] * 6, 29, mode)
    args = {"mul": (a, b), "compose": (a, b), "exp_series": (a,)}.get(kernel, (b, a))
    assert outcome(fn, *args) == outcome(ref, *args)


@st.composite
def float_operand(draw, mode, extra, leads):
    """A float series of order 0-40: ``leads`` zeros, then sparse or dense coefficients."""
    order = draw(st.integers(0, 40))
    coeff = draw(st.sampled_from([st.one_of(st.just(F(0)), wide_fraction),
                                  wide_fraction.filter(bool)]))
    n = draw(st.one_of(st.just(order + 1), st.integers(1, order + 1)))
    coeffs = [F(0)] * draw(st.sampled_from(leads)) + draw(st.lists(coeff, min_size=n, max_size=n))
    return stored_at(coeffs[: order + 1], order, mode, extra)


@st.composite
def float_kernel_operands(draw):
    """(a, b) in one mode: a mostly a unit (a divisor), b mostly not (an inner series)."""
    mode = float_mode(draw(st.sampled_from([64, 113, 200])))
    extra = draw(st.sampled_from([0, 40]))  # coefficients stored beyond the mode's bits
    return (draw(float_operand(mode, extra, [0, 0, 0, 1])),
            draw(float_operand(mode, extra, [1, 1, 2, 0])))


@pytest.mark.parametrize("kernel", sorted(_FLOAT_KERNELS))
@given(float_kernel_operands())
@settings(max_examples=150, deadline=None)
def test_float_kernels_match_the_reference_loops_bit_for_bit(kernel, operands):
    # equal _mpf_ bits, or the same error, at any precision, order and density
    fn, ref = _FLOAT_KERNELS[kernel]
    a, b = operands
    args = {"mul": (a, b), "compose": (a, b), "exp_series": (a,)}.get(kernel, (b, a))
    assert outcome(fn, *args) == outcome(ref, *args)


# -- the termwise sum and difference, and the Poly product, against their old loops ------


@st.composite
def termwise_operands(draw):
    """(a, b) in one mode: b a series of its own order, a Poly or a scalar."""
    precision = draw(st.sampled_from([None, 64, 113, 200]))
    mode = EXACT if precision is None else float_mode(precision)
    extra = draw(st.sampled_from([0, 40]))  # float coefficients stored beyond the mode

    def series():
        order = draw(st.integers(0, 40))
        n = draw(st.one_of(st.sampled_from([0, 1, order + 1]), st.integers(0, order + 1)))
        coeffs = draw(st.lists(st.one_of(st.just(F(0)), wide_fraction), min_size=n, max_size=n))
        return S(coeffs, order) if mode.exact else stored_at(coeffs, order, mode, extra)

    kind = draw(st.sampled_from(["series", "poly", "int", "fraction"]))
    if kind == "series":
        return series(), series()
    if kind == "poly":
        return series(), Poly.from_coeffs(draw(st.lists(wide_fraction, max_size=45)))
    return series(), draw(st.integers(-(10**30), 10**30) if kind == "int" else wide_fraction)


@pytest.mark.parametrize("op", ["add", "sub"])
@given(termwise_operands())
@settings(max_examples=200, deadline=None)
def test_sum_and_difference_match_the_reference_loops(op, operands):
    # exact values, or equal _mpf_ bits, at unequal orders and with promotion
    fn = {"add": TruncatedSeries.__add__, "sub": TruncatedSeries.__sub__}[op]
    assert outcome(fn, *operands) == outcome(getattr(_exact_reference, op), *operands)


# zero and constant polynomials are the empty and one-term coefficient lists
poly_coeffs = st.one_of(st.lists(wide_fraction, max_size=1),
                        st.lists(st.one_of(st.just(F(0)), wide_fraction), max_size=30))


@given(poly_coeffs, poly_coeffs)
@settings(max_examples=300, deadline=None)
def test_poly_product_matches_the_fraction_loop(a, b):
    p, q = Poly.from_coeffs(a), Poly.from_coeffs(b)
    got = p * q
    assert got == _exact_reference.poly_mul(p, q) and all(type(c) is F for c in got.coeffs)


# -- closed forms beyond the suite's orders ----------------------------------------------


_ORACLE_SERIES = [
    euler_series(80),
    S([0, F(3, 7), F(-5, 12), 0, F(10**12 - 1, 10**12), F(-1, 6)], 80),
    S([0] + [F((-1) ** i * i, 2 * i + 1) for i in range(1, 81)], 80),
]


@pytest.mark.parametrize("s", _ORACLE_SERIES, ids=["euler", "sparse", "dense"])
def test_exp_of_minus_s_inverts_exp_of_s(s):
    assert exp_series(s) * exp_series(-s) == S([1], 80)


@pytest.mark.parametrize("u", [S([1], 80) + _ORACLE_SERIES[0], S([F(-2, 3)], 80) + _ORACLE_SERIES[2]])
@pytest.mark.parametrize("a", _ORACLE_SERIES, ids=["euler", "sparse", "dense"])
def test_quotient_times_divisor_is_the_dividend(a, u):
    assert divide(a, u) * u == a


def test_euler_series_at_x_plus_x_squared_solves_its_equation():
    # x^2 E' = E - x gives p^2 F' = (F - p) p' for F = E(p)
    p = S([0, 1, 1], 80)
    f = compose(euler_series(80), p)
    p79 = p.truncated(79)
    assert p79 * p79 * derive(f) == (f - p) * derive(p)
    assert f.coeffs[:5] == (0, 1, 2, 4, 13)  # p + p^2 + 2p^3 + 6p^4


def test_exp_of_x_has_inverse_factorial_coefficients():
    got = exp_series(x_series(80))
    assert got.coeffs == tuple(F(1, math.factorial(n)) for n in range(81))


# -- valuation & misc ---------------------------------------------------------------------


def test_zero_series_valuation_is_the_sentinel():
    assert TruncatedSeries.zero(4).val() == INF
    assert S([0, 0, 3], 4).val() == 2


def test_series_json_round_trip():
    e = euler_series(4)
    again = TruncatedSeries.from_json_dict(e.to_json_dict())
    assert again == e
    f = S([1, F(1, 3)], 3, float_mode(96))
    back = TruncatedSeries.from_json_dict(f.to_json_dict())
    assert back.mode == f.mode
    assert abs(float(back.coeffs[1]) - 1 / 3) < 1e-25


# -- float-mode values carry their precision ---------------------------------------------


@pytest.mark.parametrize("precision", [64, 200])
def test_float_series_survive_pickle_and_deepcopy_in_their_context(precision):
    mode = float_mode(precision)
    s = exp_series(euler_series(12, mode) + 1)  # e^1 scales every coefficient
    for again in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert again == s
        assert [c._mpf_ for c in again.coeffs] == [c._mpf_ for c in s.coeffs]
        assert {type(c) for c in again.coeffs} == {mode.ctx.mpf}


def test_float_values_round_at_their_own_precision():
    import mpmath

    lo, hi = float_mode(64), float_mode(200)
    assert lo.ctx is float_mode(64).ctx and lo.ctx is not hi.ctx
    with mpmath.workprec(20):  # the global working precision plays no part
        third = {m.precision: m.one() / 3 for m in (lo, hi)}
        mixed = third[64] + third[200]  # rounds at its left operand's precision
    assert [third[p]._mpf_[3] for p in (64, 200)] == [64, 200]  # mantissa bit counts
    assert type(mixed) is lo.ctx.mpf and mixed._mpf_[3] <= 64
