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

``straight_line`` is the one evaluator of these trees, over four algebras:
float, Fraction, ``series.Poly`` and ``TruncatedSeries``.  It emits a
tuple of trees as straight-line Python statements with one temporary per
distinct sub-expression, which a host compiles inside a function of its own:
``compile_expr`` wraps them as one function, and ``integrate`` inlines them
into every stage of its step kernel.  The source holds only generated names,
never text from the tree.
"""

from __future__ import annotations

import functools
import numbers
import re
import types
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
    if isinstance(node, Num) and (node.value.denominator != 1 or node.value < 0):
        return 2  # prints as p/q or with a leading minus, like Neg
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
        return compile_expr(node, (), Fraction)()
    except (UnknownIdentifierError, EvaluationSingularityError):
        return None


# -- evaluation ----------------------------------------------------------


def evaluate_mp(node, env, prec=160):
    """Big-float evaluation (mpmath at ``prec`` bits); ``env`` values are taken exactly."""
    import mpmath

    names = tuple(env)
    with mpmath.workprec(prec):
        f = compile_expr(node, names, lambda q: mpmath.mpf(q.numerator) / q.denominator)
        return f(*(mpmath.mpf(env[n]) for n in names))


def compile_expr(node, names, const=float, calls=None, label="_compiled"):
    """Straight-line Python function of one positional value per ``names`` entry.

    The tree is emitted once by ``straight_line`` as the body of
    ``_compiled(_v0, _v1, ...)``, called as ``f(x, y)`` for names ("x", "y");
    the code object is cached by its source, which holds generated names
    only, and by ``label``, the function's code name, which keeps functions
    of one source apart in a profile.  ``node`` may be a tuple of trees: the
    function then returns the tuple of their values, sharing common terms.

    Arithmetic uses the values' own operators: float, mpf, Fraction,
    ``series.Poly`` or ``series.TruncatedSeries``.  ``const`` maps literals
    into that algebra; ``calls`` maps ``E``/``exp`` to functions, and without
    it a call is rejected.  A zero divisor raises EvaluationSingularityError
    naming the sub-expression, and the point when its values are numbers; a
    series divisor without constant term raises NonUnitDenominatorError.
    """
    names = tuple(names)
    trees = node if isinstance(node, tuple) else (node,)
    lines, results, namespace = straight_line(trees, names, const, calls)
    params = ", ".join(f"_v{i}" for i in range(len(names)))
    if isinstance(node, tuple):
        result = "(" + "".join(f"{r}, " for r in results) + ")"
    else:
        (result,) = results
    body = lines + [f"return {result}"]
    source = f"def _compiled({params}):\n" + "".join(f"    {line}\n" for line in body)
    return generated_function(source, label, namespace)


def straight_line(trees, names, const=float, calls=None):
    """(lines, results, globals): statements computing each of ``trees``.

    The statements read the value of ``names[i]`` from the local ``_vi``, set
    one temporary ``_tN`` per distinct sub-expression, in the post-order a
    recursive evaluation would take and at its first occurrence, and leave
    each tree's value in the name ``results[k]``.  A host runs them inside a
    function of its own whose globals include ``globals``: ``compile_expr``
    takes the ``_vi`` as parameters, the integration kernel assigns them.
    Only generated names reach the lines (``_v0`` for the first name, ``_t3``
    for a temporary, ``_g2`` for a global); constants, exponents, calls and
    the trees behind error messages are bound through the globals.

    A zero divisor raises EvaluationSingularityError before it is used, and
    a series divisor without constant term raises NonUnitDenominatorError.
    A literal that ``const`` overflows on, or rounds to zero though it is
    not, is a ValueError naming it.
    """
    gen = _Codegen(tuple(names), const, calls)
    results = [gen.emit(tree) for tree in trees]
    return gen.lines, results, gen.globals


_OPERATORS = {"+": "+", "-": "-", "*": "*"}


class _Codegen:
    """Source lines for ``straight_line``, one temporary per distinct sub-expression."""

    def __init__(self, names, const, calls):
        self.names, self.const, self.calls = names, const, calls
        self.lines = []
        self.local = {}  # structural key -> name holding that value
        self.subexprs = subexprs = []  # trees named by the error paths, by index
        self.nonzero = set()  # divisors already tested

        # the globals must not refer back to self or the function: a cycle
        # would keep every compiled function alive until a full collection
        def singular(i, point):
            numeric = all(isinstance(v, numbers.Number) for v in point)
            env = dict(zip(names, point)) if numeric else None
            return EvaluationSingularityError(to_text(subexprs[i]), env)

        def non_unit(i):
            den = to_text(subexprs[i])
            return NonUnitDenominatorError(f"denominator {den!r} has zero constant term")

        self.globals = {
            "_singular": singular,
            "_non_unit": non_unit,
            "_NonUnitDivisorError": NonUnitDivisorError,
        }

    def _global(self, key, value):
        """Name of a global bound to ``value``, once per ``key``."""
        if key not in self.local:
            name = self.local[key] = f"_g{len(self.local)}"
            self.globals[name] = value
        return self.local[key]

    def emit(self, node):
        """Emit the statements computing ``node``; return the name of its value."""
        if isinstance(node, Num):
            try:
                value = self.const(node.value)
            except OverflowError:
                raise ValueError(f"literal {to_text(node)} is beyond the float range") from None
            if node.value and value == 0:  # a float flushed a nonzero literal to zero
                raise ValueError(f"literal {to_text(node)} is below the float range")
            return self._global(("#", type(node.value), node.value), value)
        if isinstance(node, Var):
            if node.name not in self.names:
                raise UnknownIdentifierError(f"no value bound for {node.name!r}")
            return f"_v{self.names.index(node.name)}"
        if isinstance(node, Neg):
            arg = self.emit(node.arg)
            return self._assign(("neg", arg), f"-{arg}")
        if isinstance(node, BinOp):
            lhs, rhs = self.emit(node.lhs), self.emit(node.rhs)
            op = _OPERATORS.get(node.op, "/")  # the source gets this table's text, never node.op
            value = f"{lhs} {op} {rhs}"
            if op != "/":
                return self._assign((op, lhs, rhs), value)
            return self._assign(("/", lhs, rhs), value, (rhs, node, node.rhs))
        if isinstance(node, Pow):
            base = self.emit(node.base)
            n = self._global(("int", node.exponent), node.exponent)
            if node.exponent >= 0:
                return self._assign(("^", base, n), f"{base} ** {n}")
            return self._assign(("^", base, n), f"{base} ** {n}", (base, node, node))
        if isinstance(node, Call):
            if self.calls is None:
                raise UnknownIdentifierError(
                    f"{node.fn!r} has no pointwise numeric meaning; substitute a series"
                )
            fn = self._global(("fn", node.fn), self.calls[node.fn])
            arg = self.emit(node.arg)
            return self._assign(("call", fn, arg), f"{fn}({arg})")
        raise TypeError(f"not an expression node: {node!r}")

    def _assign(self, key, value, guard=None):
        """``_tN = value`` unless ``key`` was computed before.

        ``guard`` is (divisor, node, denominator): the divisor is tested for
        zero once, a constant while compiling and a computed value before its
        first use, and a non-unit series divisor is reported as the denominator.
        """
        if key in self.local:
            return self.local[key]
        name = self.local[key] = f"_t{len(self.local)}"
        if guard is not None:
            divisor, node, den = guard
            self.subexprs += [node, den]
            if divisor in self.globals and not self.globals[divisor] == 0:
                self.nonzero.add(divisor)
            if divisor not in self.nonzero:
                self.nonzero.add(divisor)
                point = "(" + "".join(f"_v{i}, " for i in range(len(self.names))) + ")"
                self.lines += [
                    f"if {divisor} == 0:",
                    f"    raise _singular({len(self.subexprs) - 2}, {point})",
                ]
        if guard is None:
            self.lines.append(f"{name} = {value}")
        else:
            self.lines += [
                "try:",
                f"    {name} = {value}",
                "except _NonUnitDivisorError:",
                f"    raise _non_unit({len(self.subexprs) - 1}) from None",
            ]
        return name


def generated_function(source, label, namespace):
    """The one function that ``source`` defines, named ``label``, with ``namespace`` as globals.

    Its code object is cached by source and label, so a function generated
    again from the same source shares the code, and with it the
    interpreter's specializations; the label keys its entry in a profile.
    """
    return types.FunctionType(_code(source, label), namespace)


@functools.lru_cache(maxsize=256)
def _code(source, label):
    module = compile(source, "<compile_expr>", "exec")
    (code,) = (c for c in module.co_consts if isinstance(c, types.CodeType))
    return code.replace(co_name=label)


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
    return f(*(s.truncated(order) for s in values))
