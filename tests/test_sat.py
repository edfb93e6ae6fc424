"""Tail test curves and the exact relation search."""

import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from interlace import sat
from interlace.curve import FormalCurve, parse_curve
from interlace.errors import ExactnessRequiredError, OrderExceededError
from interlace.registry import ENTRIES
from interlace.sat import (
    Relation,
    SatCurveSpec,
    build_sat_curve,
    monomial_exponents,
    relation_search,
    verify_tail_identities,
)
from interlace.series import (
    Poly,
    TruncatedSeries,
    compose,
    euler_series,
    float_mode,
    tail_T,
)

import _exact_reference


def P(*coeffs):
    return Poly.from_coeffs(coeffs)


small_fraction = st.builds(F, st.integers(-6, 6), st.integers(1, 6))


def test_identity_polynomial_with_zero_tail_reproduces_the_series():
    e = euler_series(10)
    curve = build_sat_curve(SatCurveSpec((e,), (P(0, 1),), k=0, q=1))
    assert len(curve.components) == 2
    assert curve.components[0] == TruncatedSeries.identity(10)
    assert curve.components[1] == e


def test_tail_components_grouped_by_polynomial():
    e = euler_series(8)
    curve = build_sat_curve(SatCurveSpec((e,), (P(0, 1), P(0, 2)), k=1, q=1))
    t1e = tail_T(e, 1)  # x + 2x^2 + 6x^3 + ...
    order = curve.components[1].order
    assert curve.components[1] == t1e.truncated(order)
    assert curve.components[2] == compose(t1e.truncated(order), P(0, 2))
    assert t1e.coeffs[1:4] == (F(1), F(2), F(6))


def test_two_series_interleave_inner():
    a = TruncatedSeries.from_coeffs([0, 1], 6)
    b = TruncatedSeries.from_coeffs([0, 0, 1], 6)
    curve = build_sat_curve(SatCurveSpec((a, b), (P(0, 1), P(0, 3)), k=0, q=1))
    # layout: (x, a(P1), b(P1), a(P2), b(P2))
    assert len(curve.components) == 5
    assert curve.components[1] == a
    assert curve.components[3] == compose(a, P(0, 3))


def test_not_positive_polynomial_is_a_warning_not_an_error():
    spec = SatCurveSpec((euler_series(8),), (P(0, -1),), k=0, q=1)
    warnings = spec.warnings()
    assert any("not a positive" in w for w in warnings)
    curve = build_sat_curve(spec)
    assert len(curve.components) == 2


def test_duplicate_polynomials_warn():
    spec = SatCurveSpec((euler_series(6),), (P(0, 1), P(0, 1)), k=0, q=1)
    assert any("distinct" in w for w in spec.warnings())


def test_tail_exhaustion_errors():
    with pytest.raises(OrderExceededError):
        build_sat_curve(SatCurveSpec((euler_series(2),), (P(0, 1),), k=2, q=1))


# -- relation search ------------------------------------------------------------


def test_parabola_relation_found():
    curve = parse_curve("x, x^2", 12)
    basis = relation_search(curve, 2, 12)
    assert len(basis.basis) == 1
    terms = dict(basis.basis[0].terms)
    assert set(terms) == {(0, 1), (2, 0)}
    assert terms[(0, 1)] == -terms[(2, 0)]


def test_doubled_argument_curve_shows_no_low_degree_relation():
    curve = parse_curve("x, E(x), E(2*x)", 40)
    basis = relation_search(curve, 3, 40)
    assert basis.is_trivial
    assert basis.monomial_count == 20
    assert basis.evidence_margin == 20
    assert basis.transcendence_evidence


def test_single_series_curve_shows_no_degree_four_relation():
    curve = parse_curve("x, E(x)", 60)
    basis = relation_search(curve, 4, 60)
    assert basis.is_trivial
    assert basis.monomial_count == 15
    assert basis.transcendence_evidence


def test_float_curves_rejected():
    curve = parse_curve("x, x^2", 8, float_mode(96))
    with pytest.raises(ExactnessRequiredError):
        relation_search(curve, 2, 8)


def test_short_jet_is_flagged():
    curve = parse_curve("x, x^2", 4)
    basis = relation_search(curve, 3, 4)
    assert basis.warnings
    assert not basis.transcendence_evidence


def test_kernel_dimension_monotone_in_jet_and_degree():
    curve = parse_curve("x, x^2, x^3", 16)
    dims = {}
    for d in (1, 2, 3):
        for n in (4, 8, 16):
            dims[d, n] = len(relation_search(curve, d, n).basis)
    for d in (1, 2, 3):
        assert dims[d, 4] >= dims[d, 8] >= dims[d, 16]
    for n in (4, 8, 16):
        assert dims[1, n] <= dims[2, n] <= dims[3, n]


def test_every_relation_reverifies_to_zero_jet():
    curve = parse_curve("x, x^2, x^3", 18)
    basis = relation_search(curve, 3, 18)
    assert len(basis.basis) >= 2  # y2 - x^2 and z - x y, among others
    comps = curve.components
    for rel in basis.basis:
        acc = TruncatedSeries.zero(18)
        for exps, coeff in rel.terms:
            term = TruncatedSeries.constant(coeff, 18)
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = term * comps[i]
            acc = acc + term
        assert acc.is_zero()


def test_monomial_enumeration_graded_and_complete():
    exps = monomial_exponents(2, 2)
    assert exps == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


# -- rank certificate mod p against the exact path ---------------------------------


def exact_relations(curve, degree, jet):
    """The relation basis from Fraction elimination on the exact columns."""
    comps = [c.truncated(jet) for c in curve.components]
    exps_list = monomial_exponents(len(comps), degree)
    memo = {(0,) * len(comps): TruncatedSeries.constant(1, jet)}
    columns = [sat._monomial_jet(e, comps, memo, operator.mul).coeffs for e in exps_list]
    return tuple(
        Relation(tuple((exps_list[i], v) for i, v in enumerate(vec) if v != 0))
        for vec in sat._exact_kernel(columns, jet + 1)
    )


def spy_exact_kernel(monkeypatch):
    calls, original = [], sat._exact_kernel

    def spy(columns, n_rows):
        calls.append(n_rows)
        return original(columns, n_rows)

    monkeypatch.setattr(sat, "_exact_kernel", spy)
    return calls


RELATION_CASES = [
    pytest.param(e.config.curve, e.config.degree, e.config.jet, e.config.order, id=name)
    for name, e in sorted(ENTRIES.items())
    if e.kind == "relations"
] + [
    pytest.param("x, E(x), E(2*x)", d, 2 * m, 2 * m, id=f"e_doubled_deg{d}")
    for d, m in ((d, len(monomial_exponents(3, d))) for d in range(1, 6))
]


@pytest.mark.parametrize("text, degree, jet, order", RELATION_CASES)
def test_search_equals_exact_elimination(text, degree, jet, order):
    curve = parse_curve(text, order)
    assert relation_search(curve, degree, jet).basis == exact_relations(curve, degree, jet)


def test_degree_five_certificate_needs_no_exact_elimination(monkeypatch):
    def refuse(columns, n_rows):
        raise AssertionError("exact elimination ran")

    monkeypatch.setattr(sat, "_exact_kernel", refuse)
    basis = relation_search(parse_curve("x, E(x), E(2*x)", 112), 5, 112)
    assert basis.is_trivial and basis.transcendence_evidence
    assert basis.monomial_count == 56


def test_rank_drop_only_mod_p_falls_back_to_the_exact_trivial_kernel(monkeypatch):
    calls = spy_exact_kernel(monkeypatch)
    curve = parse_curve("x, 2305843009213693951*x^2", 6)  # the second jet is 0 mod p
    basis = relation_search(curve, 1, 6)
    assert calls == [7]
    assert basis.is_trivial and basis.transcendence_evidence


def test_denominator_divisible_by_p_takes_the_exact_path(monkeypatch):
    calls = spy_exact_kernel(monkeypatch)
    p = 2**61 - 1
    curve = FormalCurve(
        (TruncatedSeries.identity(6), TruncatedSeries.from_coeffs([0, 0, F(1, p), 1], 6))
    )
    basis = relation_search(curve, 1, 6)
    assert calls == [7]
    assert basis.is_trivial


def coefficients_in_span(target, basis):
    """True when ``target`` (exponents -> coeff) is a combination of the basis.

    The kernel comes in reduced normal form: each relation's last term is its
    free monomial, with coefficient one and absent from every other relation.
    """
    rest = dict(target)
    for rel in basis:
        free, one = rel.terms[-1]
        assert one == 1
        f = rest.get(free, 0)
        for exps, coeff in rel.terms:
            rest[exps] = rest.get(exps, 0) - f * coeff
    return all(v == 0 for v in rest.values())


@given(
    st.lists(small_fraction, min_size=1, max_size=8),
    small_fraction,
)
@settings(max_examples=40, deadline=None)
def test_planted_relation_is_found_and_reverified(s_coeffs, c):
    s = TruncatedSeries.from_coeffs([0] + s_coeffs, 12)
    x = TruncatedSeries.identity(12)
    curve = FormalCurve((x, s, s * s + x.scale(c)))
    basis = relation_search(curve, 2, 12)
    planted = {(0, 0, 1): F(1), (0, 2, 0): F(-1), (1, 0, 0): -c}
    assert not basis.is_trivial
    assert coefficients_in_span(planted, basis.basis)
    for rel in basis.basis:
        acc = TruncatedSeries.zero(12)
        for exps, coeff in rel.terms:
            term = TruncatedSeries.constant(coeff, 12)
            for comp, e in zip(curve.components, exps):
                term = term * comp**e
            acc = acc + term
        assert acc.is_zero()


# -- tail identities --------------------------------------------------------------


def test_tail_identities_for_euler_with_doubling():
    assert verify_tail_identities(euler_series(40), P(0, 2), k=3, order=40)


def test_tail_identities_with_identity_polynomial():
    assert verify_tail_identities(euler_series(20), P(0, 1), k=5, order=20)


def test_corrupted_tail_definition_is_caught():
    # simulate an off-by-one tail (divide by x^{k+1}): the identity must fail
    h = euler_series(20)
    k = 3
    lhs_bad = tail_T(h, k + 2)  # wrong tail index
    rhs = tail_T(tail_T(h, 1), k)
    n = min(lhs_bad.order, rhs.order)
    assert lhs_bad.truncated(n) != rhs.truncated(n)


def test_exchange_identity_bare_form_under_order_two_hypothesis():
    # with H'(0) = 0 the correction term vanishes and the bare identity holds
    h = TruncatedSeries.from_coeffs([0, 0, 1, 5, F(1, 3), 2], 14)
    p = P(0, F(1, 4), -4, -3)
    lhs = tail_T(compose(h, p.as_series(14)), 1)
    rhs = p.shift_down(1).as_series(lhs.order) * compose(tail_T(h, 1), p)
    n = min(lhs.order, rhs.order)
    assert lhs.truncated(n) == rhs.truncated(n)


def test_tail_identity_requires_vanishing_polynomial():
    with pytest.raises(ValueError):
        verify_tail_identities(euler_series(12), P(1, 1), k=1, order=12)


@given(
    st.lists(small_fraction, min_size=1, max_size=10),
    st.lists(small_fraction, min_size=1, max_size=4),
    st.integers(0, 4),
)
@settings(max_examples=60, deadline=None)
def test_tail_identities_hold_for_random_series(h_coeffs, p_tail, k):
    h = TruncatedSeries.from_coeffs([F(0)] + h_coeffs, 14)
    p = Poly.from_coeffs([F(0)] + p_tail)
    if p.is_zero():
        p = Poly.from_coeffs([0, 1])
    assert verify_tail_identities(h, p, k=k, order=14)


def test_exchange_identity_on_seeded_random_batch():
    rng = random.Random(20240817)
    for _ in range(100):
        h = TruncatedSeries.from_coeffs(
            [0] + [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(12)], 12
        )
        p = Poly.from_coeffs(
            [0] + [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(3)]
        )
        if p.is_zero():
            p = Poly.from_coeffs([0, 1])
        assert verify_tail_identities(h, p, k=rng.randint(0, 5), order=12)


# -- packed kernels against the loops they replaced ---------------------------------


def random_residue_jet(rng, n, density):
    """n residues mod p, each nonzero with probability ``density``; 1 in 4 is p - 1."""
    return [
        (sat._P - 1 if rng.random() < 0.25 else rng.randrange(1, sat._P))
        if rng.random() < density else 0
        for _ in range(n)
    ]


@given(st.integers(1, 400), st.sampled_from([0.0, 0.05, 0.5, 1.0]), st.randoms())
@settings(max_examples=40, deadline=None)
def test_packed_product_mod_p_matches_schoolbook(n, density, rng):
    a, b = random_residue_jet(rng, n, density), random_residue_jet(rng, n, 1.0)
    assert sat._mul_mod_p(a, b) == _exact_reference._mul_mod_p(a, b)


@pytest.mark.parametrize("n", [1, 63, 64, 1000])
def test_packed_product_mod_p_survives_the_largest_slot_sums(n):
    # every product is (p-1)^2 and slot n-1 sums n of them; at n = 63 the sum
    # nearly fills its 128-bit slot
    top = [sat._P - 1] * n
    assert sat._mul_mod_p(top, top) == _exact_reference._mul_mod_p(top, top)


wide_fraction = st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**6))


@st.composite
def residue_certificate_case(draw):
    """Components of one order and a monomial list; half have a planted relation."""
    jet = draw(st.integers(1, 30))
    n_comps = draw(st.integers(1, 3))
    comps = [
        TruncatedSeries.from_coeffs(
            draw(st.lists(st.one_of(st.just(F(0)), wide_fraction), min_size=1, max_size=jet + 1)),
            jet,
        )
        for _ in range(n_comps)
    ]
    if draw(st.booleans()):  # plant a relation: the last component is a polynomial in the others
        acc = TruncatedSeries.constant(draw(small_fraction), jet)
        for s in comps:
            acc = acc + s.scale(draw(small_fraction)) + (s * s).scale(draw(small_fraction))
        comps.append(acc)
    return comps, monomial_exponents(len(comps), draw(st.integers(1, 3)))


@given(residue_certificate_case())
@settings(max_examples=150, deadline=None)
def test_packed_certificate_matches_list_elimination(case):
    comps, exps_list = case
    assert sat._independent_mod_p(comps, exps_list) == _exact_reference._independent_mod_p(
        comps, exps_list
    )


@pytest.mark.parametrize(
    "text, degree, jet",
    [
        ("x, 2305843009213693951*x^2", 1, 6),  # the second jet is 0 mod p
        ("x, x^2 + x^3, E(x)", 3, 40),  # z1 = x^2 + x^3
        ("x, E(x), E(2*x)", 5, 112),
        ("x, E(x), E(2*x)", 5, 40),  # too short a jet for 56 monomials
    ],
)
def test_packed_certificate_matches_list_elimination_on_curves(text, degree, jet):
    comps = [c.truncated(jet) for c in parse_curve(text, jet).components]
    exps_list = monomial_exponents(len(comps), degree)
    want = _exact_reference._independent_mod_p(comps, exps_list)
    assert sat._independent_mod_p(comps, exps_list) == want


def test_packed_elimination_slots_hold_hundreds_of_row_additions():
    # z^149 = s^149 (1 + s)^149 lies in the span of 1, s, ..., s^299, a proper
    # subspace of the 340 slots: its column must reduce to exactly zero after
    # about 300 row additions of up to p^2 to its late entries (about 75 p^2,
    # more than 2^128)
    rng = random.Random(9)
    s = TruncatedSeries.from_coeffs([rng.randrange(1, 10**6) for _ in range(340)], 339)
    exps_list = [(i, 0) for i in range(300)] + [(0, 149)]
    assert not sat._independent_mod_p([s, s + s * s], exps_list)
