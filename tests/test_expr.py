"""Expression grammar: parse trees, printing stability, evaluation, substitution."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from interlace.errors import (
    CompositionAtUnitError,
    EvaluationSingularityError,
    ExprSyntaxError,
    NonUnitDenominatorError,
    NonzeroConstantTermError,
    UnknownIdentifierError,
)
from interlace.expr import (
    CALL_NAMES,
    BinOp,
    Call,
    Neg,
    Num,
    Pow,
    Var,
    compile_expr,
    evaluate_mp,
    fold_constant,
    parse_expr,
    rename_vars,
    substitute_series,
    to_text,
    variables_of,
)
from interlace.series import EXACT, TruncatedSeries, euler_series, float_mode

from _expr_reference import evaluate, substitute_series as substitute_series_reference

XYZ = ("x", "y", "z")


def test_product_with_power():
    assert parse_expr("2*x^2", XYZ) == BinOp("*", Num(F(2)), Pow(Var("x"), 2))


def test_rational_coefficient_quotient_tree():
    tree = parse_expr("(1+2*x)/(1+x)^2", XYZ)
    assert isinstance(tree, BinOp) and tree.op == "/"
    assert tree.lhs == BinOp("+", Num(F(1)), BinOp("*", Num(F(2)), Var("x")))
    assert tree.rhs == Pow(BinOp("+", Num(F(1)), Var("x")), 2)


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x +", XYZ)
    assert err.value.offset == 3


def test_unknown_identifier_rejected():
    with pytest.raises(UnknownIdentifierError):
        parse_expr("x + w", XYZ)


def test_unary_minus_binds_below_power():
    assert parse_expr("-x^2", XYZ) == Neg(Pow(Var("x"), 2))


def test_integer_ratio_literal_folds():
    assert parse_expr("1/2", XYZ) == Num(F(1, 2))
    assert parse_expr("3/4*x", XYZ) == BinOp("*", Num(F(3, 4)), Var("x"))


def test_decimal_literals_are_exact():
    assert parse_expr("0.1", XYZ) == Num(F(1, 10))


def test_calls_only_with_permission():
    tree = parse_expr("E(2*t)", ("t",), allow_calls=True)
    assert tree == Call("E", BinOp("*", Num(F(2)), Var("t")))
    with pytest.raises(UnknownIdentifierError):
        parse_expr("E(2*x)", XYZ, allow_calls=False)


def test_evaluation_examples():
    assert evaluate(parse_expr("y - x", XYZ), {"x": 2.0, "y": 5.0, "z": 0.0}) == 3.0
    v = evaluate(parse_expr("(1+2*x)/(1+x)^2", XYZ), {"x": 1.0})
    assert v == 0.75


def test_evaluation_singularity_carries_subexpression():
    with pytest.raises(EvaluationSingularityError) as err:
        evaluate(parse_expr("1/x", XYZ), {"x": 0.0})
    assert "1/x" in str(err.value)


def test_bigfloat_evaluation_matches_floats_when_benign():
    tree = parse_expr("(y - x)/x^2", XYZ)
    env = {"x": 0.3, "y": 0.42}
    assert abs(float(evaluate_mp(tree, env)) - evaluate(tree, env)) < 1e-12


def test_constant_folding_detects_hidden_zero():
    assert fold_constant(parse_expr("2*(3-3)", XYZ)) == 0
    assert fold_constant(parse_expr("x-x", XYZ)) is None


def test_variable_renaming():
    tree = parse_expr("y + z*x", XYZ)
    renamed = rename_vars(tree, {"y": "y1", "z": "y2"})
    assert variables_of(renamed) == {"x", "y1", "y2"}


# -- print/parse stability ---------------------------------------------------


def _expr_strategy(calls=False, max_leaves=12):
    atoms = st.one_of(
        st.builds(Num, st.builds(F, st.integers(-9, 9), st.integers(1, 9))),
        st.sampled_from([Var("x"), Var("y"), Var("z")]),
    )

    def extend(children):
        nodes = [
            st.builds(Neg, children),
            st.builds(Pow, children, st.integers(-3, 3)),
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])
            ),
        ]
        if calls:
            nodes.append(st.builds(Call, st.sampled_from(CALL_NAMES), children))
        return st.one_of(*nodes)

    return st.recursive(atoms, extend, max_leaves=max_leaves)


@given(_expr_strategy())
@settings(max_examples=120, deadline=None)
def test_print_parse_round_trip(tree):
    # print-then-parse reaches a normal form in one step and stays there
    # (rational literals like 0/1 fold at parse time, so arbitrary trees may
    # normalize once; parsed trees must round-trip exactly)
    text = to_text(tree)
    normal = parse_expr(text, XYZ)
    assert to_text(normal) == to_text(parse_expr(to_text(normal), XYZ))
    assert parse_expr(to_text(normal), XYZ) == normal


def _exact_outcome(tree, point):
    try:
        return ("value", compile_expr(tree, XYZ, const=F)(*point))
    except EvaluationSingularityError:
        return ("singular",)


@given(_expr_strategy(), st.tuples(*[st.builds(F, st.integers(-9, 9), st.integers(1, 9))
                                     for _ in XYZ]))
@settings(max_examples=300, deadline=None)
@example(Pow(Num(F(-1)), 0), (F(0), F(0), F(0)))
@example(BinOp("*", Var("x"), Num(F(-2))), (F(3), F(0), F(0)))
def test_printed_text_parses_back_to_the_same_value(tree, point):
    # exact evaluation: the text of a tree must mean what the tree means
    assert _exact_outcome(parse_expr(to_text(tree), XYZ), point) == _exact_outcome(tree, point)


def test_negative_literals_print_like_negations():
    assert to_text(Pow(Num(F(-1)), 0)) == "(-1)^0"
    assert to_text(Pow(Num(F(-1, 2)), 3)) == "(-1/2)^3"
    assert to_text(BinOp("*", Var("x"), Num(F(-2)))) == "x*(-2)"
    assert to_text(BinOp("+", Num(F(-2)), Var("x"))) == "-2 + x"


def test_parsed_trees_round_trip_exactly():
    for text in ("2*x^2", "(1+2*x)/(1+x)^2", "-x^2", "x - (y - z)",
                 "1/2*x + 3/4", "x*y*z - x/(y*z)", "-(x + y)^3"):
        tree = parse_expr(text, XYZ)
        assert parse_expr(to_text(tree), XYZ) == tree


# -- generated code against the tree-walker ------------------------------------


def _outcome(fn):
    try:
        return ("value", fn().hex())
    except EvaluationSingularityError as err:
        return ("singular", err.subexpr_text, err.point)
    except OverflowError as err:
        return ("overflow", type(err).__name__)


_POINT = st.tuples(*[st.one_of(st.just(0.0), st.floats(-50, 50)) for _ in XYZ])


@given(_expr_strategy(), _POINT)
@settings(max_examples=400, deadline=None)
def test_generated_code_matches_tree_walker_bit_for_bit(tree, values):
    env = dict(zip(XYZ, values))
    f = compile_expr(tree, XYZ)
    assert _outcome(lambda: f(*values)) == _outcome(lambda: evaluate(tree, env))


def _outcomes(fn):
    """Hex values of a tuple-valued call, or its failure's type, message and point."""
    try:
        return ("value", tuple(v.hex() for v in fn()))
    except EvaluationSingularityError as err:
        return ("singular", str(err), err.subexpr_text, err.point)
    except OverflowError as err:
        return ("overflow", str(err))


_SHARED_POOL = st.lists(_expr_strategy(max_leaves=5), min_size=1, max_size=3)


@st.composite
def _sharing_trees(draw):
    """One to four trees combining a pool of sub-trees in two layers, so they repeat."""
    pool = draw(_SHARED_POOL)
    for size in (3, 4):
        layer = []
        for _ in range(draw(st.integers(1, size))):
            a, b = (pool[draw(st.integers(0, len(pool) - 1))] for _ in range(2))
            kind = draw(st.integers(0, 5))
            if kind < 4:
                layer.append(BinOp("+-*/"[kind], a, b))
            else:
                layer.append(Neg(a) if kind == 4 else Pow(a, draw(st.integers(-2, 2))))
        pool += layer
    return tuple(pool[-draw(st.integers(1, 4)):])


@given(_sharing_trees(), _POINT)
@settings(max_examples=300, deadline=None)
def test_multi_output_with_shared_subtrees_matches_tree_walker(trees, values):
    # one call computes every tree, each shared sub-tree once; the reference
    # evaluates tree by tree, and the first failure ends both
    env = dict(zip(XYZ, values))
    f = compile_expr(trees, XYZ)
    want = _outcomes(lambda: [evaluate(t, env) for t in trees])
    assert _outcomes(lambda: f(*values)) == want


@pytest.mark.parametrize(
    "name", ["import", "a b", "); __import__('os')#", "_v1", "_a", "_t0", "x\ny"]
)
def test_variable_names_never_reach_the_source(name):
    # any string can name a variable: the generated code only sees positions
    names = ("_v0", name)
    tree = BinOp("/", Var(name), BinOp("-", Var("_v0"), Num(F(1))))
    f = compile_expr((tree, Var(name)), names)
    assert f(3.0, 6.0) == (3.0, 6.0)
    with pytest.raises(EvaluationSingularityError) as err:
        f(1.0, 6.0)
    assert err.value.point == {"_v0": 1.0, name: 6.0}
    assert err.value.subexpr_text == to_text(tree)


def test_compiled_zero_divisor_names_subexpression_and_point():
    f = compile_expr(parse_expr("x + y/(z - 1)", XYZ), XYZ)
    with pytest.raises(EvaluationSingularityError) as err:
        f(2.0, 3.0, 1.0)
    assert err.value.subexpr_text == "y/(z - 1)"
    assert err.value.point == {"x": 2.0, "y": 3.0, "z": 1.0}


def test_functions_compiled_from_one_source_keep_their_own_constants_and_errors():
    xy = ("x", "y")
    f1, f2 = (compile_expr(parse_expr(f"x/(y - {c})", xy), xy) for c in (1, 2))
    assert f1.__code__ is f2.__code__  # one source, compiled once
    assert (f1(6.0, 3.0), f2(6.0, 3.0)) == (3.0, 6.0)
    for f, text in ((f1, "x/(y - 1)"), (f2, "x/(y - 2)")):
        with pytest.raises(EvaluationSingularityError) as err:
            f(1.0, float(text[-2]))
        assert err.value.subexpr_text == text


def test_compile_rejects_unbound_names_and_calls():
    with pytest.raises(UnknownIdentifierError):
        compile_expr(parse_expr("x + y", XYZ), ("x",))
    with pytest.raises(UnknownIdentifierError):
        compile_expr(parse_expr("E(t)", ("t",), allow_calls=True), ("t",))


# -- series substitution -------------------------------------------------------


def test_substitute_difference_along_curve():
    e = euler_series(6, var="t")
    t = TruncatedSeries.identity(6, var="t")
    got = substitute_series(parse_expr("y - x", XYZ), {"x": t, "y": e, "z": t})
    assert got == e - t


def test_substitute_rational_coefficient():
    t = TruncatedSeries.identity(5, var="t")
    got = substitute_series(parse_expr("(1+2*x)/(1+x)^2", XYZ), {"x": t})
    assert got == TruncatedSeries.from_coeffs([1, 0, -1, 2, -3, 4], 5, EXACT, "t")


def test_substitute_rejects_non_unit_denominator():
    t = TruncatedSeries.identity(5, var="t")
    with pytest.raises(NonUnitDenominatorError):
        substitute_series(parse_expr("1/y", XYZ), {"x": t, "y": t})


def test_substitute_negative_power():
    t = TruncatedSeries.identity(4, var="t")
    one_plus = TruncatedSeries.from_coeffs([1, 1], 4, EXACT, "t")
    got = substitute_series(parse_expr("(1+x)^-2", XYZ), {"x": t})
    by_division = substitute_series(parse_expr("1/(1+x)^2", XYZ), {"x": t})
    assert got == by_division
    assert (got * one_plus * one_plus) == TruncatedSeries.from_coeffs([1], 4, EXACT, "t")


def test_substitution_agrees_with_pointwise_evaluation():
    # low truncation order so the O(t^{N+1}) error is visible above float noise
    tree = parse_expr("(y - x)/(1 + x)", XYZ)
    order = 4
    e_full = euler_series(12, var="t")
    e = e_full.truncated(order)
    t = TruncatedSeries.identity(order, var="t")
    sub = substitute_series(tree, {"x": t, "y": e, "z": t})
    for tv in (0.05, 0.02):
        direct = evaluate(tree, {"x": tv, "y": float(e_full.eval(F(tv))), "z": tv})
        via_series = float(sub.eval(F(tv)))
        assert abs(direct - via_series) < 100 * tv ** (order + 1)


# -- series substitution against the tree-walker ---------------------------------

_SERIES_ERRORS = (NonUnitDenominatorError, CompositionAtUnitError, NonzeroConstantTermError)


@st.composite
def _series_env(draw):
    """x, y, z bound to series of one mode, each of its own order; about half are non-units."""
    mode = draw(st.sampled_from([EXACT, float_mode(96)]))
    coeff = st.builds(F, st.integers(-4, 4), st.integers(1, 4))
    env = {}
    for name in XYZ:
        order = draw(st.integers(1, 8))
        coeffs = draw(st.lists(coeff, min_size=order + 1, max_size=order + 1))
        if draw(st.booleans()):
            coeffs[0] = F(0)
        env[name] = TruncatedSeries.from_coeffs(coeffs, order, mode, "t")
    return env


def _series_outcome(fn):
    try:
        s = fn()
    except _SERIES_ERRORS as err:
        return (type(err).__name__, str(err))
    exact = tuple(c if isinstance(c, F) else c._mpf_ for c in s.coeffs)
    return ("value", exact, s.mode, s.var)


_THIRD = TruncatedSeries.from_coeffs([F(1, 3), 1, 2], 2, float_mode(96), "t")


@given(_expr_strategy(calls=True, max_leaves=8), _series_env())
@example(Pow(Var("x"), -3), dict.fromkeys(XYZ, _THIRD))  # rounding pins 1/s^3, not (1/s)^3
@settings(max_examples=300, deadline=None)
def test_series_substitution_matches_tree_walker(tree, env):
    got = _series_outcome(lambda: substitute_series(tree, env))
    assert got == _series_outcome(lambda: substitute_series_reference(tree, env))
