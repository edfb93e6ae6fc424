"""Multivariate polynomials and rational functions with rational coefficients.

The exact algebra behind ``expr.compile_expr``: run an expression's compiled
function on ``RationalFunction`` arguments and it returns the expression as P/Q.
``field.difference_system`` expands gap numerators this way, and
``pipelines.expr_to_poly`` reads univariate coefficients from it.
"""

from __future__ import annotations

from fractions import Fraction

from . import expr as _expr


class MPoly:
    """Sum of Fraction coefficients times monomials in ``nvars`` variables.

    ``terms`` maps exponent tuples to nonzero coefficients.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        self.nvars = nvars
        self.terms = {e: c for e, c in dict(terms).items() if c != 0}

    @staticmethod
    def constant(c, nvars):
        return MPoly(nvars, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def variable(i, nvars):
        return MPoly(nvars, {tuple(int(k == i) for k in range(nvars)): Fraction(1)})

    def constant_value(self):
        """The coefficient if this is a constant polynomial, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and not any(next(iter(self.terms))):
            return next(iter(self.terms.values()))
        return None

    def degree_in(self, i):
        return max((e[i] for e in self.terms), default=0)

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.terms == other.terms

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return MPoly(self.nvars, terms)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return MPoly(self.nvars, terms)

    def scaled(self, c):
        return MPoly(self.nvars, {e: v * c for e, v in self.terms.items()})

    def to_expr(self, names):
        """Expression tree: the terms in descending exponent order, as a sum."""
        node = None
        for exps, c in sorted(self.terms.items(), reverse=True):
            factors = [_power(n, k) for n, k in zip(names, exps) if k]
            if abs(c) != 1 or not factors:
                factors.insert(0, _expr.Num(abs(c)))
            term = factors[0]
            for f in factors[1:]:
                term = _expr.BinOp("*", term, f)
            if node is None:
                node = _expr.Neg(term) if c < 0 else term
            else:
                node = _expr.BinOp("-" if c < 0 else "+", node, term)
        return _expr.Num(Fraction(0)) if node is None else node


def _power(name, k):
    return _expr.Var(name) if k == 1 else _expr.Pow(_expr.Var(name), k)


class RationalFunction:
    """num/den with MPoly parts; a constant denominator is folded into num."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = MPoly.constant(1, num.nvars)
        c = den.constant_value()
        if c is not None and c != 0 and c != 1:
            num, den = num.scaled(1 / c), MPoly.constant(1, num.nvars)
        self.num, self.den = num, den

    @staticmethod
    def variables(nvars):
        return tuple(RationalFunction(MPoly.variable(i, nvars)) for i in range(nvars))

    @staticmethod
    def constant_maker(nvars):
        """``const`` argument of ``compile_expr`` for this algebra."""
        return lambda q: RationalFunction(MPoly.constant(q, nvars))

    def to_expr(self, names):
        """Expression tree num/den, or num alone when den is 1."""
        num = self.num.to_expr(names)
        if self.den.constant_value() == 1:
            return num
        return _expr.BinOp("/", num, self.den.to_expr(names))

    def __eq__(self, other):
        # only the zero test of compile_expr's division and negative powers
        if isinstance(other, int) and other == 0:
            return not self.num.terms
        return NotImplemented

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __add__(self, other):
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, n):
        num, den = (self.num, self.den) if n >= 0 else (self.den, self.num)
        out_num, out_den = MPoly.constant(1, num.nvars), MPoly.constant(1, num.nvars)
        for _ in range(abs(n)):
            out_num, out_den = out_num * num, out_den * den
        return RationalFunction(out_num, out_den)
