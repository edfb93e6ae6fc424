"""Loop versions of the exact-side kernels, kept as test references.

``compose`` (Horner with a series addition per step), ``_mul_mod_p``
(schoolbook product of residue jets) and ``_independent_mod_p`` (elimination
on lists of residues, one mod per entry) are verbatim copies of the code that
the one-term composition map and the Kronecker-packed kernels replaced; the
differential tests compare the fast paths against them.

``mul`` (the body of ``TruncatedSeries.__mul__`` for two series),
``divide``, ``shift_divide`` and ``exp_series`` are verbatim copies of the
one-``Fraction``-per-term loops that the integer kernels of
``interlace.series`` replaced; they serve both modes.  Their float branches
no longer switch mpmath's working precision, since float-mode values round at
their own.  ``compose`` multiplies
through ``mul``, so no reference runs an integer kernel.  ``poly_mul`` is
the ``Fraction`` loop that ``Poly.__mul__`` ran before it shared those
kernels, and ``add`` and ``sub`` are the bodies of ``TruncatedSeries.__add__``
and ``__sub__`` before they shared one termwise helper.

``asymptotic_deviation`` and ``_eval_bigfloat`` are verbatim copies of the
probe that ran under a global 240-bit mpmath working precision, before the
jets became series of a 240-bit float mode.
"""

import math
from fractions import Fraction

import mpmath

from interlace.curve import AsymptoticReport, DeviationProbe, PuiseuxCurve
from interlace.errors import (
    CompositionAtUnitError,
    DomainError,
    NonUnitDivisorError,
    NonzeroConstantTermError,
    OrderExceededError,
)
from interlace.sat import _P, _monomial_jet
from interlace.series import Poly, TruncatedSeries, _is_zero


def mul(self, other):
    """self * other mod x^{N+1} for two series, one product per pair of terms."""
    self._check_mode(other)
    n = min(self.order, other.order)
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


def add(self, other):
    other = self._promote(other)
    self._check_mode(other)
    n = min(self.order, other.order)
    cs = tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1))
    return TruncatedSeries(cs, self.mode, self.var)


def sub(self, other):
    other = self._promote(other)
    self._check_mode(other)
    n = min(self.order, other.order)
    cs = tuple(self.coeffs[i] - other.coeffs[i] for i in range(n + 1))
    return TruncatedSeries(cs, self.mode, self.var)


def poly_mul(self, other):
    out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
    for i, a in enumerate(self.coeffs):
        for j, b in enumerate(other.coeffs):
            out[i + j] += a * b
    return Poly.from_coeffs(out, self.var)


def compose(s: TruncatedSeries, p) -> TruncatedSeries:
    """s(p(x)) mod x^{N+1} by Horner over truncated arithmetic; needs val p >= 1."""
    if isinstance(p, Poly):
        p = p.as_series(s.order, s.mode, s.var)
    s._check_mode(p)
    if p.is_zero():
        return TruncatedSeries.constant(s.coeffs[0], min(s.order, p.order), s.mode, s.var)
    if p.val() < 1:
        raise CompositionAtUnitError("inner series must have zero constant term")
    n = min(s.order, p.order)
    p = p.truncated(n)
    acc = TruncatedSeries.constant(s.coeffs[n], n, s.mode, s.var)
    for i in range(n - 1, -1, -1):
        acc = mul(acc, p) + TruncatedSeries.constant(s.coeffs[i], n, s.mode, s.var)
    return acc


def divide(a: TruncatedSeries, u: TruncatedSeries) -> TruncatedSeries:
    """a * u^{-1} mod x^{N+1}; u must be a unit (nonzero constant term)."""
    u = a._promote(u)
    a._check_mode(u)
    if u.is_zero() or u.val() != 0:
        raise NonUnitDivisorError("divisor must have a nonzero constant term")
    n = min(a.order, u.order)
    out = []
    for k in range(n + 1):
        acc = a.coeffs[k]
        for j in range(k):
            acc -= out[j] * u.coeffs[k - j]
        out.append(acc / u.coeffs[0])
    return TruncatedSeries(tuple(out), a.mode, a.var)


def shift_divide(a: TruncatedSeries, u: TruncatedSeries) -> TruncatedSeries:
    """a / u when val(a) >= val(u) >= 0, shifting both by x^{val u}."""
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
    """exp(s) mod x^{N+1}; exact mode needs val(s) >= 1."""
    c0 = s.constant_term()
    if not _is_zero(c0):
        if s.mode.exact:
            raise NonzeroConstantTermError(
                "exp of a series with nonzero constant term is not rational"
            )
        factor = s.mode.ctx.e ** c0
        tail = s - TruncatedSeries.constant(c0, s.order, s.mode, s.var)
        return exp_series(tail).scale(factor)
    # f = exp(s) solves f' = s' f:  n f_n = sum_{k=1..n} k s_k f_{n-k}
    out = [s.mode.one()] + [s.mode.zero()] * s.order
    for n in range(1, s.order + 1):
        acc = s.mode.zero()
        for k in range(1, n + 1):
            sk = s.coeffs[k]
            if not _is_zero(sk):
                acc += k * sk * out[n - k]
        out[n] = acc / n
    return TruncatedSeries(tuple(out), s.mode, s.var)


def _independent_mod_p(comps, exps_list):
    """True when the monomial jets are linearly independent mod _P.

    False when they are not, or when _P divides a coefficient denominator (the
    reduction is then undefined); see the module docstring for why True proves
    a trivial kernel over Q.
    """
    residues = []
    for s in comps:
        if any(c.denominator % _P == 0 for c in s.coeffs):
            return False
        residues.append(
            [c.numerator * pow(c.denominator, -1, _P) % _P for c in s.coeffs]
        )
    n = len(residues[0])
    memo = {(0,) * len(comps): [1] + [0] * (n - 1)}
    echelon = {}  # pivot -> reduced jet: zero before the pivot, one at it
    for exps in exps_list:
        col = list(_monomial_jet(exps, residues, memo, _mul_mod_p))  # memo stays intact
        for piv in sorted(echelon):
            f = col[piv]
            if f:
                row = echelon[piv]
                col[piv:] = [(a - f * b) % _P for a, b in zip(col[piv:], row[piv:])]
        piv = next((i for i, v in enumerate(col) if v), None)
        if piv is None:
            return False
        inv = pow(col[piv], -1, _P)
        echelon[piv] = [v * inv % _P for v in col]
    return True


def _mul_mod_p(a, b):
    """Product of two residue jets of the same length, truncated to it."""
    n = len(a)
    nonzero = [(j, v) for j, v in enumerate(b) if v]
    out = [0] * n
    for i, u in enumerate(a):
        if u:
            for j, v in nonzero:
                if i + j >= n:
                    break
                out[i + j] += u * v
    return [c % _P for c in out]


def asymptotic_deviation(traj, curve: PuiseuxCurve, jet_order: int, probes) -> AsymptoticReport:
    """deviation(x) = || traj(x) - J_N theta(x^{1/nu}) || at each probe.

    The jet is evaluated in big-float arithmetic so the subtraction against
    the float trajectory values loses nothing beyond their own storage
    precision.  Probes must lie inside the trajectory domain, ordered large
    to small.
    """
    jets = []
    for th in curve.theta:
        if th.order < jet_order:
            raise OrderExceededError(
                f"jet order {jet_order} exceeds curve component order {th.order}"
            )
        jets.append(th.truncated(jet_order))
    lo, hi = traj.domain()
    rows = []
    with mpmath.workprec(240):
        for x in probes:
            if not (lo <= x <= hi) or x <= 0:
                raise DomainError(f"probe {x} outside trajectory domain [{lo}, {hi}]")
            t = mpmath.mpf(x) ** (mpmath.mpf(1) / curve.nu)
            vals = traj(x)
            dev_sq = mpmath.mpf(0)
            for k, jet in enumerate(jets):
                jet_val = _eval_bigfloat(jet, t)
                dev_sq += (mpmath.mpf(float(vals[k])) - jet_val) ** 2
            dev = float(mpmath.sqrt(dev_sq))
            order = float(math.log(dev) / math.log(x)) if dev > 0 else math.inf
            rows.append(DeviationProbe(float(x), dev, order))
    slopes = []
    for a, b in zip(rows, rows[1:]):
        if a.deviation > 0 and b.deviation > 0 and a.x != b.x:
            slopes.append(
                math.log(b.deviation / a.deviation) / math.log(b.x / a.x)
            )
        else:
            slopes.append(math.inf)
    return AsymptoticReport(jet_order, tuple(rows), tuple(slopes))


def _eval_bigfloat(s: TruncatedSeries, t):
    acc = mpmath.mpf(0)
    for c in reversed(s.coeffs):
        if isinstance(c, Fraction):
            c = mpmath.mpf(c.numerator) / c.denominator
        acc = acc * t + c
    return acc
