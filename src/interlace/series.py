"""Exact truncated formal power series in one variable.

A series is a coefficient list a_0..a_N understood mod x^{N+1}.  Coefficients
are exact rationals by default; a big-float mode exists for curves whose
coefficients are irrational.  Its values carry their precision (see
``CoefficientMode``), so nothing switches a working precision, and mpmath is
imported only when a float mode makes its first value.  The module also
provides the degree-k truncation J_k, the tail operator

    T_k h = (h - J_k h) / x^k        (so T_k h has zero constant term),

the Euler series E(x) = sum_{n>=0} n! x^{n+1}, the unique formal solution of
x^2 y' = y - x, and the q-short polynomial test
deg P < (q+1) val P with positive lowest-order coefficient.

In exact mode the quadratic kernels (product of series and of ``Poly``,
Horner composition, division, exponential) run on Python integers: each
operand is put over the lcm of its denominators, the loop works on the
integer numerators, and one Fraction is built per output coefficient at the
end.  Integer arithmetic is exact and every Fraction is normalised on
construction, so the coefficients are the ones the Fraction loops give, at
one gcd per coefficient instead of one per product.  Float mode runs the
product and Horner composition through the same loops with unit denominators.
"""

from __future__ import annotations

import copyreg
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

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
    """Coefficient domain: exact rationals or binary big-floats.

    A float-mode value belongs to ``ctx``, the mode's private mpmath context,
    and rounds at the mode's precision wherever it is used.
    """

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
            if isinstance(value, (int, str, float)):
                return Fraction(value)
            raise TypeError(f"cannot coerce {type(value).__name__} to a rational")
        if isinstance(value, Fraction):
            return self.ctx.mpf(value.numerator) / value.denominator
        return self.ctx.mpf(value)

    @property
    def ctx(self):
        """The mpmath context of a float mode's values."""
        return _float_context(self.precision)

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def to_str(self, value):
        if self.exact:
            return f"{value.numerator}/{value.denominator}"
        return self.ctx.nstr(value, int(self.precision * 0.302) + 4)

    def from_str(self, text):
        if self.exact:
            return Fraction(text)
        return self.ctx.mpf(text)


EXACT = CoefficientMode("rational")


@functools.cache
def _float_context(precision):
    """The mpmath context whose values round at ``precision`` bits; they pickle into it."""
    import mpmath

    ctx = mpmath.MPContext()
    ctx.prec = precision
    copyreg.pickle(ctx.mpf, lambda v: (_float_value, (precision, v._mpf_)))
    return ctx


def _float_value(precision, mpf_tuple):
    return _float_context(precision).make_mpf(mpf_tuple)


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
        return TruncatedSeries(tuple(fn(c) for c in self.coeffs), self.mode, self.var)

    def _check_mode(self, other):
        if self.mode != other.mode:
            raise ModeMismatchError(
                f"mixed coefficient modes: {self.mode} vs {other.mode}"
            )

    # -- ring operations (result order = min of operand orders) ----------

    def _termwise(self, op, other):
        other = self._promote(other)
        self._check_mode(other)
        cs = tuple(map(op, self.coeffs, other.coeffs))  # map stops at the lower-order end
        return TruncatedSeries(cs, self.mode, self.var)

    def __add__(self, other):
        return self._termwise(operator.add, other)

    def __sub__(self, other):
        return self._termwise(operator.sub, other)

    def __neg__(self):
        return self.map_coeffs(lambda c: -c)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._promote(other)
        self._check_mode(other)
        n = min(self.order, other.order)
        if self.mode.exact:
            a, da = _over_common(self.coeffs[: n + 1])
            b, db = _over_common(other.coeffs[: n + 1])
            return TruncatedSeries(_fractions(_convolve(a, b, n), da * db), self.mode, self.var)
        out = _convolve(self.coeffs, other.coeffs, n, self.mode.zero())
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

    # ring operations, for ``compile_expr`` over polynomials; a zero divisor raises
    # ZeroDivisionError, and a quotient that is not a polynomial ValueError

    def __eq__(self, other):
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
        (a, da), (b, db) = _over_common(self.coeffs), _over_common(other.coeffs)
        n = len(a) + len(b) - 2
        return Poly.from_coeffs(_fractions(_convolve(a, b, n), da * db), self.var)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if other.degree != 0:
            raise ValueError("division by a non-constant polynomial")
        return Poly(tuple(c / other.coeffs[0] for c in self.coeffs), self.var)

    def __pow__(self, n):
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of the zero polynomial")
            raise ValueError("negative power of a polynomial")
        result = Poly.from_coeffs([1], self.var)
        for _ in range(n):
            result = result * self
        return result

    def __str__(self):
        return terms_text([(i, str(c)) for i, c in enumerate(self.coeffs) if c != 0], self.var)


# -- exact kernels on integer numerators ---------------------------------------


def _over_common(coeffs):
    """(nums, d) with coeffs[i] = nums[i] / d, d the lcm of the denominators."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _convolve(a, b, n, zero=0):
    """Coefficients of a * b up to x^n, skipping zero ones; each sum starts at ``zero``."""
    out = [zero] * (n + 1)
    nonzero = [(j, v) for j, v in enumerate(b[: n + 1]) if v]
    for i, u in enumerate(a[: n + 1]):
        if u:
            for j, v in nonzero:
                if i + j > n:
                    break
                out[i + j] += u * v
    return out


def _fractions(nums, d):
    zero = Fraction(0)
    return tuple(Fraction(c, d) if c else zero for c in nums)


# -- spec operations ----------------------------------------------------


def derive(s: TruncatedSeries) -> TruncatedSeries:
    """Termwise derivative; drops one order."""
    if s.order < 1:
        raise OrderUnderflowError("cannot differentiate an order-0 series")
    cs = tuple((i + 1) * s.coeffs[i + 1] for i in range(s.order))
    return TruncatedSeries(cs, s.mode, s.var)


def compose(s: TruncatedSeries, p) -> TruncatedSeries:
    """s(p(x)) mod x^{N+1}, N the smaller order; needs val p >= 1.

    In exact mode a one-term inner series c x^k maps a_i to a_i c^i at x^{ik},
    in O(N).  Every other inner series, and every float one, runs Horner over
    truncated arithmetic, acc -> acc p with coefficient 0 set to a_i; that
    coefficient of acc p is zero because val p >= 1, so no series addition is
    needed, and with i steps left only the degrees of acc up to N - i can
    reach x^N.  In exact mode acc stays integer over da dp^m after m steps
    (da, dp the common denominators of s and p); float mode has unit
    denominators.
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
    if s.mode.exact:
        a, da = _over_common(s.coeffs[: n + 1])
        b, dp = _over_common(p.coeffs)
        zero = 0
    else:
        a, da = [coerce(c) for c in s.coeffs[: n + 1]], 1
        b, dp, zero = p.coeffs, 1, s.mode.zero()
    acc, scale = [a[n]], 1  # the partial sum is acc / (da * scale)
    for i in range(n - 1, -1, -1):
        scale *= dp
        acc = _convolve(acc, b, n - i, zero)
        acc[0] = a[i] * scale
    coeffs = _fractions(acc, da * scale) if s.mode.exact else tuple(acc)
    return TruncatedSeries(coeffs, s.mode, s.var)


def divide(a: TruncatedSeries, u: TruncatedSeries) -> TruncatedSeries:
    """a * u^{-1} mod x^{N+1}; u must be a unit (nonzero constant term)."""
    u = a._promote(u)
    a._check_mode(u)
    if u.is_zero() or u.val() != 0:
        raise NonUnitDivisorError("divisor must have a nonzero constant term")
    n = min(a.order, u.order)
    if a.mode.exact:
        # a/u = (A/U) du/da over integers; Q_k = (A/U)_k u0^{k+1} is an integer:
        # Q_k = A_k u0^k - sum_{i=1..k} Q_{k-i} U_i u0^{i-1}
        A, da = _over_common(a.coeffs[: n + 1])
        U, du = _over_common(u.coeffs[: n + 1])
        u0 = U[0]
        weights = [(i, U[i] * u0 ** (i - 1)) for i in range(1, n + 1) if U[i]]
        Q, out, power = [], [], 1  # power = u0^k
        for k in range(n + 1):
            acc = A[k] * power
            for i, w in weights:
                if i > k:
                    break
                acc -= Q[k - i] * w
            Q.append(acc)
            power *= u0
            out.append(Fraction(acc * du, power * da))
        return TruncatedSeries(tuple(out), a.mode, a.var)
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
    v = u.val()
    if v == INF:
        raise NonUnitDivisorError("division by the zero series")
    n = min(a.order, u.order) - v
    if a.val() < v:  # never for the zero series, whose valuation is INF
        raise NonUnitDivisorError(
            f"numerator valuation {a.val()} below divisor valuation {v}"
        )
    if n < 0:
        raise OrderExceededError("shift exhausts the available order")
    if a.is_zero():
        return TruncatedSeries.zero(n, a.mode, a.var)
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
        try:
            factor = s.mode.ctx.e ** c0
        except OverflowError:  # mpmath cannot hold the exponent of e^c0
            raise ValueError("exp of a constant term beyond the big-float range") from None
        tail = s - TruncatedSeries.constant(c0, s.order, s.mode, s.var)
        return exp_series(tail).scale(factor)
    # f = exp(s) solves f' = s' f:  n f_n = sum_{k=1..n} k s_k f_{n-k}
    if s.mode.exact:
        # with s = S/d and N the order, G_n = f_n d^n N! is an integer (so is
        # f_n d^n n!), and n G_n = sum_k k S_k d^{k-1} G_{n-k} divides exactly
        S, d = _over_common(s.coeffs)
        weights = [(k, k * S[k] * d ** (k - 1)) for k in range(1, s.order + 1) if S[k]]
        den = math.factorial(s.order)  # N! d^n
        G, out = [den], [Fraction(1)]
        for n in range(1, s.order + 1):
            acc = 0
            for k, w in weights:
                if k > n:
                    break
                acc += w * G[n - k]
            G.append(acc // n)
            den *= d
            out.append(Fraction(G[n], den))
        return TruncatedSeries(tuple(out), s.mode, s.var)
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
