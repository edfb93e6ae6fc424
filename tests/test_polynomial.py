"""Exact polynomial algebra: expression trees as P/Q, and back to trees."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from interlace.errors import EvaluationSingularityError
from interlace.expr import compile_expr, parse_expr, to_text
from interlace.polynomial import MPoly, RationalFunction

from test_expr import XYZ, _expr_strategy


def as_rational_function(tree, names=XYZ):
    const = RationalFunction.constant_maker(len(names))
    return compile_expr(tree, names, const)(RationalFunction.variables(len(names)))


def exact_value(tree, point, names=XYZ):
    return compile_expr(tree, names, F)(point)


_RATIONAL_POINT = st.tuples(
    *[st.builds(F, st.integers(-9, 9), st.integers(1, 5)) for _ in XYZ]
)


@given(_expr_strategy(), _RATIONAL_POINT)
@example(parse_expr("x/y + z/y", XYZ), (F(1), F(2), F(3)))
@example(parse_expr("(x + 1)/(y - z)^2 - x/(y - z)^2", XYZ), (F(1, 2), F(2), F(-3)))
@settings(max_examples=200, deadline=None)
def test_rational_function_agrees_with_exact_evaluation(tree, point):
    try:
        want = exact_value(tree, point)
        rf = as_rational_function(tree)
    except EvaluationSingularityError:
        assume(False)
    assert exact_value(rf.den.to_expr(XYZ), point) != 0
    assert exact_value(rf.to_expr(XYZ), point) == want


def test_expanded_terms_print_in_descending_order():
    rf = as_rational_function(parse_expr("(x - y)^2/2 + 3/4", XYZ))
    assert rf.den == MPoly.constant(1, 3)
    assert to_text(rf.num.to_expr(XYZ)) == "1/2*x^2 - x*y + 1/2*y^2 + 3/4"


def test_constant_denominators_fold_into_the_numerator():
    rf = as_rational_function(parse_expr("x/(2*3)", XYZ))
    assert rf.den.constant_value() == 1
    assert rf.num == MPoly(3, {(1, 0, 0): F(1, 6)})


def test_division_by_the_zero_polynomial_is_singular():
    with pytest.raises(EvaluationSingularityError):
        as_rational_function(parse_expr("x/(y - y)", XYZ))
