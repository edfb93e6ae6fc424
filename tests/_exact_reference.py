"""Loop versions of the exact-side kernels, kept as test references.

``compose`` (Horner with a series addition per step), ``_mul_mod_p``
(schoolbook product of residue jets) and ``_independent_mod_p`` (elimination
on lists of residues, one mod per entry) are verbatim copies of the code that
the one-term composition map and the Kronecker-packed kernels replaced; the
differential tests compare the fast paths against them.
"""

from interlace.errors import CompositionAtUnitError
from interlace.sat import _P, _monomial_jet
from interlace.series import Poly, TruncatedSeries


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
        acc = acc * p + TruncatedSeries.constant(s.coeffs[i], n, s.mode, s.var)
    return acc


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
