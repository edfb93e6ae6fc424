"""Tree-walking evaluators kept as test references for ``expr.compile_expr``.

``evaluate`` (floats) and ``substitute_series``/``_subst`` (truncated series)
are verbatim copies of the recursive interpreters that ``compile_expr``
replaced; the differential tests compare the compiled closures against them.
"""

from interlace import series as _series
from interlace.errors import (
    EvaluationSingularityError,
    ModeMismatchError,
    NonUnitDenominatorError,
    NonUnitDivisorError,
    UnknownIdentifierError,
)
from interlace.expr import BinOp, Call, Neg, Num, Pow, Var, to_text


def evaluate(node, env):
    """Numeric value of the expression at a point (dict var name -> number)."""
    if isinstance(node, Num):
        num = node.value
        return num.numerator / num.denominator
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnknownIdentifierError(f"no value bound for {node.name!r}") from None
    if isinstance(node, Neg):
        return -evaluate(node.arg, env)
    if isinstance(node, BinOp):
        a = evaluate(node.lhs, env)
        b = evaluate(node.rhs, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0:
            raise EvaluationSingularityError(to_text(node), env)
        return a / b
    if isinstance(node, Pow):
        b = evaluate(node.base, env)
        if node.exponent < 0 and b == 0:
            raise EvaluationSingularityError(to_text(node), env)
        return b**node.exponent
    if isinstance(node, Call):
        raise UnknownIdentifierError(
            f"{node.fn!r} has no pointwise numeric meaning; substitute a series"
        )
    raise TypeError(f"not an expression node: {node!r}")


def substitute_series(node, env):
    """Exact composition of the expression with series bound to its variables.

    ``env`` maps variable names to TruncatedSeries of a common mode; the
    result order is the minimum order among them.  Division requires the
    substituted denominator to be a unit.
    """
    if not env:
        raise ValueError("substitute_series needs at least one bound variable")
    values = list(env.values())
    mode = values[0].mode
    var = values[0].var
    for s in values[1:]:
        if s.mode != mode:
            raise ModeMismatchError("curve components carry mixed coefficient modes")
    order = min(s.order for s in values)
    env = {k: s.truncated(order) for k, s in env.items()}
    return _subst(node, env, order, mode, var)


def _subst(node, env, order, mode, var):
    if isinstance(node, Num):
        return _series.TruncatedSeries.constant(node.value, order, mode, var)
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnknownIdentifierError(f"no series bound for {node.name!r}") from None
    if isinstance(node, Neg):
        return -_subst(node.arg, env, order, mode, var)
    if isinstance(node, BinOp):
        a = _subst(node.lhs, env, order, mode, var)
        b = _subst(node.rhs, env, order, mode, var)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        try:
            return _series.divide(a, b)
        except NonUnitDivisorError:
            raise NonUnitDenominatorError(
                f"denominator {to_text(node.rhs)!r} has zero constant term"
            ) from None
    if isinstance(node, Pow):
        base = _subst(node.base, env, order, mode, var)
        n = node.exponent
        if n >= 0:
            return base**n
        one = _series.TruncatedSeries.constant(1, order, mode, var)
        try:
            return _series.divide(one, base**(-n))
        except NonUnitDivisorError:
            raise NonUnitDenominatorError(
                f"denominator {to_text(node)!r} has zero constant term"
            ) from None
    if isinstance(node, Call):
        arg = _subst(node.arg, env, order, mode, var)
        if node.fn == "E":
            return _series.compose(_series.euler_series(order, mode, var), arg)
        return _series.exp_series(arg)
    raise TypeError(f"not an expression node: {node!r}")
