"""Rational expression trees and their recursive-descent parser.

Grammar (shared by vector-field components, reduced systems and the curve
DSL; ``E(...)`` and ``exp(...)`` calls are only enabled for curves)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | ident | '(' expr ')' | 'E' '(' expr ')'
            | 'exp' '(' expr ')' | '-' factor
    number := integer ('/' integer)? | decimal

Precedence is the standard one: ^  >  unary -  >  * /  >  + -.  A literal
``p/q`` between two integer tokens folds to a single rational constant; all
other structure is kept verbatim so that parse -> print -> parse is stable.

``compile_expr`` is the one evaluator of these trees, over four algebras:
float, Fraction, ``RationalFunction`` and ``TruncatedSeries``.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from . import series as _series
from .errors import (
    EvaluationSingularityError,
    ExprSyntaxError,
    ModeMismatchError,
    NonUnitDenominatorError,
    NonUnitDivisorError,
    UnknownIdentifierError,
)

# -- AST ----------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str  # 'E' | 'exp'
    arg: object


CALL_NAMES = ("E", "exp")


# -- tokenizer ----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(
                f"unexpected character {stripped[0]!r}", len(text) - len(stripped)
            )
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, variables, allow_calls):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.variables = frozenset(variables)
        self.allow_calls = allow_calls

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {text!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                if (
                    text == "/"
                    and isinstance(node, Num)
                    and isinstance(rhs, Num)
                    and rhs.value != 0
                ):
                    node = Num(node.value / rhs.value)  # rational literal p/q
                else:
                    node = BinOp(text, node, rhs)
            else:
                return node

    def factor(self):
        base = self.base()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            base = Pow(base, self.integer())
        return base

    def integer(self):
        sign = 1
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            sign = -1
            kind, text, pos = self.peek()
        if kind != "num" or "." in text:
            raise ExprSyntaxError("expected an integer exponent", pos)
        self.advance()
        return sign * int(text)

    def base(self):
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(Fraction(text))
        if kind == "ident":
            if self.allow_calls and text in CALL_NAMES:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text not in self.variables:
                raise UnknownIdentifierError(
                    f"unknown identifier {text!r} at offset {pos}"
                )
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and text == "-":
            # unary minus binds below '^': -x^2 means -(x^2)
            return Neg(self.factor())
        raise ExprSyntaxError("expected a value", pos)


def parse_expr(text, variables, allow_calls=False):
    """Parse ``text`` into an expression tree over the given identifiers."""
    return _Parser(text, variables, allow_calls).parse()


# -- printing -----------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _prec(node):
    if isinstance(node, BinOp):
        return _PRECEDENCE[node.op]
    if isinstance(node, Neg):
        return 2  # prints like a -1 * factor
    if isinstance(node, Pow):
        return 3
    if isinstance(node, Num) and node.value.denominator != 1:
        return 2  # prints as p/q
    return 4


def _wrap(node, minimum):
    text = to_text(node)
    if _prec(node) < minimum:
        return f"({text})"
    return text


def to_text(node) -> str:
    """Grammar-conformant text; parse(to_text(t)) reproduces t exactly."""
    if isinstance(node, Num):
        v = node.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return "-" + _wrap(node.arg, 3)
    if isinstance(node, BinOp):
        lhs = _wrap(node.lhs, _PRECEDENCE[node.op])
        rhs = _wrap(node.rhs, _PRECEDENCE[node.op] + 1)
        return f"{lhs} {node.op} {rhs}" if node.op in "+-" else f"{lhs}{node.op}{rhs}"
    if isinstance(node, Pow):
        return f"{_wrap(node.base, 4)}^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.fn}({to_text(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


# -- structural helpers --------------------------------------------------


def variables_of(node):
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Num):
        return set()
    if isinstance(node, Neg):
        return variables_of(node.arg)
    if isinstance(node, BinOp):
        return variables_of(node.lhs) | variables_of(node.rhs)
    if isinstance(node, Pow):
        return variables_of(node.base)
    if isinstance(node, Call):
        return variables_of(node.arg)
    raise TypeError(f"not an expression node: {node!r}")


def rename_vars(node, mapping):
    """Substitute variables by expressions (or other variable names)."""
    if isinstance(node, Var):
        repl = mapping.get(node.name, node)
        return Var(repl) if isinstance(repl, str) else repl
    if isinstance(node, Num):
        return node
    if isinstance(node, Neg):
        return Neg(rename_vars(node.arg, mapping))
    if isinstance(node, BinOp):
        return BinOp(node.op, rename_vars(node.lhs, mapping), rename_vars(node.rhs, mapping))
    if isinstance(node, Pow):
        return Pow(rename_vars(node.base, mapping), node.exponent)
    if isinstance(node, Call):
        return Call(node.fn, rename_vars(node.arg, mapping))
    raise TypeError(f"not an expression node: {node!r}")


def fold_constant(node):
    """Fraction value of a constant expression, or None if variables occur."""
    try:
        return compile_expr(node, (), Fraction)(())
    except (UnknownIdentifierError, EvaluationSingularityError):
        return None


# -- evaluation ----------------------------------------------------------


def evaluate_mp(node, env, prec=160):
    """Big-float evaluation (mpmath at ``prec`` bits); ``env`` values are taken exactly."""
    import mpmath

    names = tuple(env)
    with mpmath.workprec(prec):
        f = compile_expr(node, names, lambda q: mpmath.mpf(q.numerator) / q.denominator)
        return f(tuple(mpmath.mpf(env[n]) for n in names))


def compile_expr(node, names, const=float, calls=None):
    """Nested closures taking a sequence of values, one per entry of ``names``.

    Arithmetic uses the values' own operators: float, mpf, Fraction,
    ``polynomial.RationalFunction`` or ``series.TruncatedSeries``.  ``const``
    maps literals into that algebra; ``calls`` maps ``E``/``exp`` to functions,
    and without it a call is rejected.  A zero divisor raises
    EvaluationSingularityError naming the sub-expression and the point; a
    series divisor without constant term raises NonUnitDenominatorError.
    """
    names = tuple(names)

    def non_unit(den):
        return NonUnitDenominatorError(f"denominator {to_text(den)!r} has zero constant term")

    def build(node):
        if isinstance(node, Num):
            c = const(node.value)
            return lambda a: c
        if isinstance(node, Var):
            if node.name not in names:
                raise UnknownIdentifierError(f"no value bound for {node.name!r}")
            return operator.itemgetter(names.index(node.name))
        if isinstance(node, Neg):
            arg = build(node.arg)
            return lambda a: -arg(a)
        if isinstance(node, BinOp):
            lhs, rhs = build(node.lhs), build(node.rhs)
            if node.op == "+":
                return lambda a: lhs(a) + rhs(a)
            if node.op == "-":
                return lambda a: lhs(a) - rhs(a)
            if node.op == "*":
                return lambda a: lhs(a) * rhs(a)

            def divide(a):
                num, den = lhs(a), rhs(a)
                if den == 0:
                    raise EvaluationSingularityError(to_text(node), dict(zip(names, a)))
                try:
                    return num / den
                except NonUnitDivisorError:
                    raise non_unit(node.rhs) from None

            return divide
        if isinstance(node, Pow):
            base, n = build(node.base), node.exponent
            if n >= 0:
                return lambda a: base(a) ** n

            def reciprocal_power(a):
                b = base(a)
                if b == 0:
                    raise EvaluationSingularityError(to_text(node), dict(zip(names, a)))
                try:
                    return b**n
                except NonUnitDivisorError:
                    raise non_unit(node) from None

            return reciprocal_power
        if isinstance(node, Call):
            if calls is None:
                raise UnknownIdentifierError(
                    f"{node.fn!r} has no pointwise numeric meaning; substitute a series"
                )
            fn, arg = calls[node.fn], build(node.arg)
            return lambda a: fn(arg(a))
        raise TypeError(f"not an expression node: {node!r}")

    return build(node)


# -- series substitution --------------------------------------------------


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
    calls = {
        "E": lambda s: _series.compose(_series.euler_series(order, mode, var), s),
        "exp": _series.exp_series,
    }
    f = compile_expr(
        node, env, lambda q: _series.TruncatedSeries.constant(q, order, mode, var), calls
    )
    return f(tuple(s.truncated(order) for s in values))
