"""Exact truncated formal power series in one variable.

A series is a coefficient list a_0..a_N understood mod x^{N+1}.  Coefficients
are exact rationals by default; a big-float mode (mpmath, configurable
precision) exists for curves whose coefficients are irrational.  The module
also provides the degree-k truncation J_k, the tail operator

    T_k h = (h - J_k h) / x^k        (so T_k h has zero constant term),

the Euler series E(x) = sum_{n>=0} n! x^{n+1}, the unique formal solution of
x^2 y' = y - x, and the q-short polynomial test
deg P < (q+1) val P with positive lowest-order coefficient.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import (
    CompositionAtUnitError,
    ModeMismatchError,
    NonUnitDivisorError,
    NonzeroConstantTermError,
    OrderExceededError,
    OrderUnderflowError,
    UndefinedValuationError,
)

INF = math.inf  # valuation of the zero series


@dataclass(frozen=True)
class CoefficientMode:
    """Coefficient domain: exact rationals or binary big-floats."""

    kind: str  # "rational" | "float"
    precision: int | None = None  # bits, float mode only

    def __post_init__(self):
        if self.kind not in ("rational", "float"):
            raise ValueError(f"unknown coefficient mode {self.kind!r}")
        if self.kind == "float" and (self.precision is None or self.precision < 64):
            raise ValueError("float mode needs precision >= 64 bits")

    @property
    def exact(self):
        return self.kind == "rational"

    def coerce(self, value):
        if self.exact:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            if isinstance(value, str):
                return Fraction(value)
            if isinstance(value, float):
                return Fraction(value)
            raise TypeError(f"cannot coerce {type(value).__name__} to a rational")
        with self.context():
            if isinstance(value, Fraction):
                return mpmath.mpf(value.numerator) / value.denominator
            return mpmath.mpf(value)

    def context(self):
        """Arithmetic context: a workprec guard in float mode, no-op otherwise."""
        if self.exact:
            return contextlib.nullcontext()
        return mpmath.workprec(self.precision)

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def to_str(self, value):
        if self.exact:
            return f"{value.numerator}/{value.denominator}"
        with self.context():
            return mpmath.nstr(value, int(self.precision * 0.302) + 4)

    def from_str(self, text):
        if self.exact:
            return Fraction(text)
        with self.context():
            return mpmath.mpf(text)


EXACT = CoefficientMode("rational")


def float_mode(precision: int = 128) -> CoefficientMode:
    return CoefficientMode("float", precision)


def terms_text(terms, var):
    """``a + b*x + c*x^2`` from (exponent, coefficient text) pairs; "0" when empty."""
    parts = [c if i == 0 else f"{c}*{var}" if i == 1 else f"{c}*{var}^{i}" for i, c in terms]
    return " + ".join(parts) if parts else "0"


def _is_zero(c):
    return c == 0


@dataclass(frozen=True)
class TruncatedSeries:
    """a_0 + a_1 x + ... + a_N x^N, exact mod x^{N+1}."""

    coeffs: tuple
    mode: CoefficientMode = EXACT
    var: str = "x"

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_coeffs(coeffs, order=None, mode=EXACT, var="x"):
        cs = [mode.coerce(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise OrderUnderflowError("series order must be >= 0")
            if len(cs) > order + 1:
                cs = cs[: order + 1]
            cs += [mode.zero()] * (order + 1 - len(cs))
        if not cs:
            cs = [mode.zero()]
        return TruncatedSeries(tuple(cs), mode, var)

    @staticmethod
    def zero(order, mode=EXACT, var="x"):
        return TruncatedSeries.from_coeffs([], order, mode, var)

    @staticmethod
    def constant(value, order, mode=EXACT, var="x"):
        return TruncatedSeries.from_coeffs([value], order, mode, var)

    @staticmethod
    def identity(order, mode=EXACT, var="x"):
        return TruncatedSeries.from_coeffs([0, 1], order, mode, var)

    # -- structure ------------------------------------------------------

    def val(self):
        """Least i with a_i != 0, or INF for the zero series."""
        for i, c in enumerate(self.coeffs):
            if not _is_zero(c):
                return i
        return INF

    def is_zero(self):
        return all(_is_zero(c) for c in self.coeffs)

    def constant_term(self):
        return self.coeffs[0]

    def truncated(self, order):
        """Drop knowledge above x^order (reduces the order, unlike J_k)."""
        if order > self.order:
            raise OrderExceededError(
                f"cannot extend order {self.order} series to order {order}"
            )
        return TruncatedSeries(self.coeffs[: order + 1], self.mode, self.var)

    def map_coeffs(self, fn):
        with self.mode.context():
            return TruncatedSeries(tuple(fn(c) for c in self.coeffs), self.mode, self.var)

    def _check_mode(self, other):
        if self.mode != other.mode:
            raise ModeMismatchError(
                f"mixed coefficient modes: {self.mode} vs {other.mode}"
            )

    # -- ring operations (result order = min of operand orders) ----------

    def __add__(self, other):
        other = self._promote(other)
        self._check_mode(other)
        n = min(self.order, other.order)
        with self.mode.context():
            cs = tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1))
        return TruncatedSeries(cs, self.mode, self.var)

    def __sub__(self, other):
        other = self._promote(other)
        self._check_mode(other)
        n = min(self.order, other.order)
        with self.mode.context():
            cs = tuple(self.coeffs[i] - other.coeffs[i] for i in range(n + 1))
        return TruncatedSeries(cs, self.mode, self.var)

    def __neg__(self):
        return self.map_coeffs(lambda c: -c)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._promote(other)
        self._check_mode(other)
        n = min(self.order, other.order)
        with self.mode.context():
            out = [self.mode.zero()] * (n + 1)
            nonzero = [
                (j, b) for j, b in enumerate(other.coeffs[: n + 1]) if not _is_zero(b)
            ]
            for i, a in enumerate(self.coeffs[: n + 1]):
                if _is_zero(a):
                    continue
                for j, b in nonzero:
                    if i + j > n:
                        break
                    out[i + j] += a * b
        return TruncatedSeries(tuple(out), self.mode, self.var)

    __rmul__ = __mul__

    def scale(self, scalar):
        s = self.mode.coerce(scalar)
        return self.map_coeffs(lambda c: c * s)

    def _promote(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, Poly):
            return other.as_series(self.order, self.mode, self.var)
        return TruncatedSeries.constant(other, self.order, self.mode, self.var)

    def __truediv__(self, other):
        return divide(self, other)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("series powers must be integers")
        result = TruncatedSeries.constant(1, self.order, self.mode, self.var)
        if n < 0:
            return divide(result, self ** -n)  # 1 / self^-n: self must be a unit
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- evaluation & io --------------------------------------------------

    def eval(self, x):
        """Horner evaluation of the truncated polynomial at a number."""
        with self.mode.context():
            acc = 0
            for c in reversed(self.coeffs):
                acc = acc * x + c
        return acc

    def to_json_dict(self):
        d = {
            "mode": self.mode.kind,
            "order": self.order,
            "var": self.var,
            "coeffs": [self.mode.to_str(c) for c in self.coeffs],
        }
        if not self.mode.exact:
            d["precision"] = self.mode.precision
        return d

    @staticmethod
    def from_json_dict(d):
        mode = EXACT if d["mode"] == "rational" else float_mode(d["precision"])
        cs = [mode.from_str(t) for t in d["coeffs"]]
        return TruncatedSeries.from_coeffs(cs, d["order"], mode, d.get("var", "x"))

    def __str__(self):
        terms = [(i, str(c)) for i, c in enumerate(self.coeffs) if not _is_zero(c)]
        return f"{terms_text(terms, self.var)} + O({self.var}^{self.order + 1})"


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial with exact rational coefficients."""

    coeffs: tuple  # a_0..a_d, trailing zeros stripped
    var: str = "x"

    @staticmethod
    def from_coeffs(coeffs, var="x"):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs), var)

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        if self.is_zero():
            return -1
        return len(self.coeffs) - 1

    def val(self):
        if self.is_zero():
            raise UndefinedValuationError("valuation of the zero polynomial")
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        raise AssertionError("unreachable: trailing zeros are stripped")

    def as_series(self, order, mode=EXACT, var=None):
        return TruncatedSeries.from_coeffs(
            self.coeffs, order, mode, var or self.var
        )

    def shift_down(self, k):
        """P / x^k, requiring val >= k; exact on polynomials."""
        if self.is_zero():
            return self
        if self.val() < k:
            raise NonUnitDivisorError(f"polynomial valuation {self.val()} < {k}")
        return Poly(self.coeffs[k:], self.var)

    # ring operations, for ``compile_expr`` over polynomials; a quotient that
    # is not a polynomial raises ValueError

    def __eq__(self, other):
        if isinstance(other, int):  # the zero test of compile_expr's divisor guard
            return self.coeffs == Poly.from_coeffs([other]).coeffs
        return isinstance(other, Poly) and (self.coeffs, self.var) == (other.coeffs, other.var)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs), self.var)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a, b = (p.coeffs + (0,) * (n - len(p.coeffs)) for p in (self, other))
        return Poly.from_coeffs([u + v for u, v in zip(a, b)], self.var)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly.from_coeffs(out, self.var)

    def __truediv__(self, other):
        if other.degree != 0:
            raise ValueError("division by a non-constant polynomial")
        return Poly(tuple(c / other.coeffs[0] for c in self.coeffs), self.var)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.from_coeffs([1], self.var)
        for _ in range(n):
            result = result * self
        return result

    def __str__(self):
        return terms_text([(i, str(c)) for i, c in enumerate(self.coeffs) if c != 0], self.var)


# -- spec operations ----------------------------------------------------


def derive(s: TruncatedSeries) -> TruncatedSeries:
    """Termwise derivative; drops one order."""
    if s.order < 1:
        raise OrderUnderflowError("cannot differentiate an order-0 series")
    with s.mode.context():
        cs = tuple((i + 1) * s.coeffs[i + 1] for i in range(s.order))
    return TruncatedSeries(cs, s.mode, s.var)


def compose(s: TruncatedSeries, p) -> TruncatedSeries:
    """s(p(x)) mod x^{N+1}, N the smaller order; needs val p >= 1.

    In exact mode a one-term inner series c x^k maps a_i to a_i c^i at x^{ik},
    in O(N).  Every other inner series, and every float one, runs Horner over
    truncated arithmetic, acc -> acc p with coefficient 0 set to a_i; that
    coefficient of acc p is zero because val p >= 1, so no series addition is
    needed.
    """
    if isinstance(p, Poly):
        p = p.as_series(s.order, s.mode, s.var)
    s._check_mode(p)
    if p.is_zero():
        return TruncatedSeries.constant(s.coeffs[0], min(s.order, p.order), s.mode, s.var)
    if p.val() < 1:
        raise CompositionAtUnitError("inner series must have zero constant term")
    n = min(s.order, p.order)
    p = p.truncated(n)
    coerce = s.mode.coerce
    terms = [(k, c) for k, c in enumerate(p.coeffs) if not _is_zero(c)]
    if s.mode.exact and len(terms) == 1:
        (k, c), = terms
        out = [s.mode.zero()] * (n + 1)
        power = 1
        for i in range(n // k + 1):
            out[i * k] = coerce(s.coeffs[i]) * power
            power *= c
        return TruncatedSeries(tuple(out), s.mode, s.var)
    acc = TruncatedSeries.constant(s.coeffs[n], n, s.mode, s.var)
    for i in range(n - 1, -1, -1):
        acc = TruncatedSeries((coerce(s.coeffs[i]),) + (acc * p).coeffs[1:], s.mode, s.var)
    return acc


def divide(a: TruncatedSeries, u: TruncatedSeries) -> TruncatedSeries:
    """a * u^{-1} mod x^{N+1}; u must be a unit (nonzero constant term)."""
    u = a._promote(u)
    a._check_mode(u)
    if u.is_zero() or u.val() != 0:
        raise NonUnitDivisorError("divisor must have a nonzero constant term")
    n = min(a.order, u.order)
    with a.mode.context():
        out = []
        for k in range(n + 1):
            acc = a.coeffs[k]
            for j in range(k):
                acc -= out[j] * u.coeffs[k - j]
            out.append(acc / u.coeffs[0])
    return TruncatedSeries(tuple(out), a.mode, a.var)


def shift_divide(a: TruncatedSeries, u: TruncatedSeries) -> TruncatedSeries:
    """a / u when val(a) >= val(u) >= 0, shifting both by x^{val u}.

    Internal helper for strict transforms and multiplier extraction; the
    public ``divide`` deliberately rejects non-unit divisors.  Result order is
    min(order a, order u) - val(u).
    """
    a._check_mode(u)
    if u.is_zero():
        raise NonUnitDivisorError("division by the zero series")
    v = u.val()
    if a.is_zero():
        n = min(a.order, u.order) - v
        if n < 0:
            raise OrderExceededError("shift exhausts the available order")
        return TruncatedSeries.zero(n, a.mode, a.var)
    if a.val() < v:
        raise NonUnitDivisorError(
            f"numerator valuation {a.val()} below divisor valuation {v}"
        )
    n = min(a.order, u.order) - v
    if n < 0:
        raise OrderExceededError("shift exhausts the available order")
    a_sh = TruncatedSeries(a.coeffs[v : v + n + 1], a.mode, a.var)
    u_sh = TruncatedSeries(u.coeffs[v : v + n + 1], u.mode, u.var)
    return divide(a_sh, u_sh)


def exp_series(s: TruncatedSeries) -> TruncatedSeries:
    """exp(s) mod x^{N+1}.

    Exact mode requires val(s) >= 1 (a nonzero constant term would introduce
    the irrational factor e^{a_0}).  Float mode factors e^{a_0} out.
    """
    c0 = s.constant_term()
    if not _is_zero(c0):
        if s.mode.exact:
            raise NonzeroConstantTermError(
                "exp of a series with nonzero constant term is not rational"
            )
        with s.mode.context():
            factor = mpmath.e ** c0
        tail = s - TruncatedSeries.constant(c0, s.order, s.mode, s.var)
        return exp_series(tail).scale(factor)
    # f = exp(s) solves f' = s' f:  n f_n = sum_{k=1..n} k s_k f_{n-k}
    with s.mode.context():
        out = [s.mode.one()] + [s.mode.zero()] * s.order
        for n in range(1, s.order + 1):
            acc = s.mode.zero()
            for k in range(1, n + 1):
                sk = s.coeffs[k]
                if not _is_zero(sk):
                    acc += k * sk * out[n - k]
            out[n] = acc / n
    return TruncatedSeries(tuple(out), s.mode, s.var)


def truncate_J(s: TruncatedSeries, k: int) -> TruncatedSeries:
    """J_k: zero all coefficients above degree k (order is preserved)."""
    if k < 0:
        raise OrderUnderflowError("truncation degree must be >= 0")
    if k > s.order:
        raise OrderExceededError(f"J_{k} needs order >= {k}, have {s.order}")
    cs = s.coeffs[: k + 1] + tuple(s.mode.zero() for _ in range(s.order - k))
    return TruncatedSeries(cs, s.mode, s.var)


def tail_T(s: TruncatedSeries, k: int) -> TruncatedSeries:
    """T_k = (h - J_k h)/x^k; result has order N-k and zero constant term."""
    if k < 0:
        raise OrderUnderflowError("tail index must be >= 0")
    if k > s.order:
        raise OrderExceededError(f"T_{k} needs order >= {k}, have {s.order}")
    cs = (s.mode.zero(),) + s.coeffs[k + 1 :]
    return TruncatedSeries(cs, s.mode, s.var)


def euler_series(order: int, mode=EXACT, var="x") -> TruncatedSeries:
    """E = sum n! x^{n+1}: a_1 = 1 and a_{n+1} = n a_n."""
    if order < 0:
        raise OrderUnderflowError("series order must be >= 0")
    cs = [0] * (order + 1)
    fact = 1
    for n in range(order):
        cs[n + 1] = fact
        fact *= n + 1
    return TruncatedSeries.from_coeffs(cs, order, mode, var)


@dataclass(frozen=True)
class QShortReport:
    is_short: bool
    is_positive: bool
    val: int
    deg: int
    q: int


def q_short_check(p: Poly, q: int) -> QShortReport:
    """Short iff P(0) = 0 and deg P < (q+1) val P; positive iff lowest coefficient > 0."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if p.is_zero():
        raise UndefinedValuationError("the zero polynomial has no valuation")
    v = p.val()
    d = p.degree
    is_short = v >= 1 and d < (q + 1) * v
    return QShortReport(
        is_short=is_short,
        is_positive=p.coeffs[v] > 0,
        val=v,
        deg=d,
        q=q,
    )
