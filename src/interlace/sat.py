"""Transcendence apparatus: tail test curves and exact polynomial-relation search.

A test curve is built from series H_1..H_n with val >= 1, polynomials
P_1..P_l and a tail index k as

    ( x, (T_k H_1)(P_1(x)), ..., (T_k H_n)(P_1(x)), ..., (T_k H_n)(P_l(x)) )

grouped by polynomial, series index inner.  ``relation_search`` then looks
for polynomial relations among the components by exact linear algebra on the
N-jet: a trivial kernel with enough slack (jet length at least twice the
monomial count) is reported as transcendence evidence at that degree - it is
evidence only, since the search is degree-bounded and the jet is finite.

Before any exact elimination the search tries a one-sided certificate: it
reduces the component coefficients mod the prime p = 2^61 - 1, rebuilds the
monomial jets over F_p and asks whether they are linearly independent there.
Reduction mod p is a ring homomorphism on the rationals whose denominators are
prime to p, so the F_p jets are the images of the exact jets.  Clearing each
jet's denominator (a unit mod p) gives integer vectors, and integer vectors
independent mod p are independent over Q: a minor that is nonzero mod p is a
nonzero integer.  Rank m mod p therefore proves the kernel trivial, with no
big-integer arithmetic.  The converse fails - a relation may exist, the jet
may be too short, or p may divide every maximal minor by chance - so every
other case, a denominator divisible by p included, runs the exact Fraction
elimination, and the relations it returns are re-verified exactly.

The certificate runs on packed integers (Kronecker substitution): a jet
v_0..v_{n-1} of non-negative entries becomes the int sum v_i 2^(w i), so that
one big-integer product or sum acts on every entry at once, as long as no entry
outgrows its w-bit slot.  Widths are rounded up to whole bytes.

* A product of residue jets (entries below p) has entries that sum at most n
  products below p^2 < 2^(2 bit_length(p)), so w = 2 bit_length(p) +
  bit_length(n) bits leave no carry crossing a slot; the low n slots, each
  reduced mod p, are the truncated product.
* Elimination keeps each echelon row packed, zero before its pivot and one at
  it.  A column is reduced by adding (p - f) * row, with f read lazily as its
  pivot slot mod p, and is reduced mod p once, when it is unpacked to find its
  own pivot.  Each of at most m additions (m monomials) adds below p^2 to an
  entry that starts below p, so the slots need the bit length of p + m p^2.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import series as _series
from .errors import ExactnessRequiredError, OrderExceededError
from .series import Poly, TruncatedSeries

# The prime of the rank certificate: residues and their products stay small ints.
_P = 2**61 - 1


@dataclass(frozen=True)
class SatCurveSpec:
    """Input bundle for a tail test curve; validation records warnings."""

    H: tuple  # series with val >= 1, shared mode
    P: tuple  # polynomials
    k: int
    q: int

    def __post_init__(self):
        if not self.H or not self.P:
            raise ValueError("need at least one series and one polynomial")
        if self.k < 0 or self.q < 1:
            raise ValueError("need k >= 0 and q >= 1")

    def warnings(self):
        out = []
        for i, p in enumerate(self.P):
            rep = _series.q_short_check(p, self.q)
            if not (rep.is_short and rep.is_positive):
                out.append(
                    f"P[{i}] = {p} is not a positive {self.q}-short polynomial"
                )
        texts = [str(p) for p in self.P]
        if len(set(texts)) != len(texts):
            out.append("polynomials are not pairwise distinct")
        return tuple(out)


def build_sat_curve(spec: SatCurveSpec):
    """Assemble (x, (T_k H_i) o P_j) with j outer, i inner."""
    from .curve import FormalCurve  # local import to avoid a cycle

    mode = spec.H[0].mode
    var = spec.H[0].var
    tails = [_series.tail_T(h, spec.k) for h in spec.H]
    order = min(t.order for t in tails)
    if order < 1:
        raise OrderExceededError("tail operator exhausted the series order")
    comps = [TruncatedSeries.identity(order, mode, var)]
    for p in spec.P:
        for t in tails:
            comps.append(_series.compose(t.truncated(order), p))
    return FormalCurve(tuple(comps))


@dataclass(frozen=True)
class Relation:
    """A polynomial sum(coeff * prod v_i^e_i) annihilating the curve's jet."""

    terms: tuple  # ((exponents, Fraction coeff), ...), graded-lex ordered

    def to_json_dict(self):
        return {
            "terms": [
                {"exponents": list(e), "coeff": f"{c.numerator}/{c.denominator}"}
                for e, c in self.terms
            ]
        }

    def text(self, names):
        chunks = []
        for exps, coeff in self.terms:
            mono = "*".join(
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(exps)
                if e
            )
            if not mono:
                chunks.append(str(coeff))
            elif coeff == 1:
                chunks.append(mono)
            elif coeff == -1:
                chunks.append(f"-{mono}")
            else:
                chunks.append(f"{coeff}*{mono}")
        return " + ".join(chunks).replace("+ -", "- ")


@dataclass(frozen=True)
class RelationBasis:
    max_degree: int
    jet_order: int
    monomial_count: int
    basis: tuple  # Relation instances
    evidence_margin: int  # jet_order - monomial_count
    warnings: tuple = ()

    @property
    def is_trivial(self):
        return not self.basis

    @property
    def transcendence_evidence(self):
        return self.is_trivial and self.evidence_margin >= self.monomial_count

    def to_json_dict(self, names):
        return {
            "max_degree": self.max_degree,
            "jet_order": self.jet_order,
            "monomial_count": self.monomial_count,
            "kernel_dimension": len(self.basis),
            "evidence_margin": self.evidence_margin,
            "transcendence_evidence": self.transcendence_evidence,
            "relations": [r.text(names) for r in self.basis],
            "relations_raw": [r.to_json_dict() for r in self.basis],
            "warnings": list(self.warnings),
        }


def monomial_exponents(n_vars, max_degree):
    """Exponent tuples with total degree <= max_degree, graded lexicographic."""
    if max_degree < 1:
        raise ValueError(f"relation degree must be at least 1, got {max_degree}")
    out = []
    for total in range(max_degree + 1):
        for exps in itertools.product(range(total + 1), repeat=n_vars):
            if sum(exps) == total:
                out.append(exps)
    return out


def relation_search(curve, max_degree, jet_order) -> RelationBasis:
    """Exact kernel of the jet-evaluation map on monomials of bounded degree.

    Returns every polynomial of total degree <= max_degree whose composition
    with the curve vanishes mod x^{jet_order+1}.  Exact-rational mode only;
    a jet shorter than the monomial count is flagged, never silently used.
    """
    comps = curve.components
    if not curve.mode.exact:
        raise ExactnessRequiredError("relation search requires exact rationals")
    avail = min(s.order for s in comps)
    if jet_order > avail:
        raise OrderExceededError(
            f"jet order {jet_order} exceeds curve order {avail}"
        )
    n_vars = len(comps)
    exps_list = monomial_exponents(n_vars, max_degree)
    m = len(exps_list)
    warnings = []
    if jet_order + 1 < m:
        warnings.append(
            f"jet carries {jet_order + 1} constraints for {m} unknowns; "
            "kernel may contain truncation artifacts"
        )

    # columns: jets of the monomials along the curve, built incrementally;
    # the exact ones only when the rank mod p leaves a relation possible
    comps = [s.truncated(jet_order) for s in comps]
    memo = {(0,) * n_vars: TruncatedSeries.constant(1, jet_order, curve.mode)}
    if _independent_mod_p(comps, exps_list):
        kernel = []
    else:
        columns = [
            _monomial_jet(exps, comps, memo, operator.mul).coeffs for exps in exps_list
        ]
        kernel = _exact_kernel(columns, jet_order + 1)
    basis = []
    for vec in kernel:
        terms = tuple(
            (exps_list[i], vec[i]) for i in range(m) if vec[i] != 0
        )
        basis.append(Relation(terms))

    # re-verify: each relation must reproduce the zero jet exactly
    for rel, vec in zip(basis, kernel):
        acc = TruncatedSeries.zero(jet_order, curve.mode)
        for exps, coeff in rel.terms:
            acc = acc + memo[exps].scale(coeff)
        if not acc.is_zero():
            raise AssertionError("kernel vector failed exact re-verification")

    return RelationBasis(
        max_degree=max_degree,
        jet_order=jet_order,
        monomial_count=m,
        basis=tuple(basis),
        evidence_margin=jet_order - m,
        warnings=tuple(warnings),
    )


def _monomial_jet(exps, comps, memo, mul):
    """Jet of prod comps[i]^exps[i], one ``mul`` from a memoised smaller monomial.

    ``memo`` maps exponent tuples to jets and is seeded with the empty monomial.
    """
    if exps in memo:
        return memo[exps]
    i = max(k for k, e in enumerate(exps) if e)
    prev = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
    memo[exps] = mul(_monomial_jet(prev, comps, memo, mul), comps[i])
    return memo[exps]


def _independent_mod_p(comps, exps_list):
    """True when the monomial jets are linearly independent mod _P.

    False when they are not, or when _P divides a coefficient denominator (the
    reduction is then undefined); see the module docstring for why True proves
    a trivial kernel over Q, and for the packed elimination.
    """
    residues = []
    for s in comps:
        if any(c.denominator % _P == 0 for c in s.coeffs):
            return False
        residues.append(
            [c.numerator * pow(c.denominator, -1, _P) % _P for c in s.coeffs]
        )
    n = len(residues[0])
    width = ((_P + len(exps_list) * _P * _P).bit_length() + 7) // 8
    slot = (1 << (8 * width)) - 1
    memo = {(0,) * len(comps): [1] + [0] * (n - 1)}
    echelon = []  # (pivot, packed row: zero before the pivot, one at it), by pivot
    for exps in exps_list:
        col = _pack(_monomial_jet(exps, residues, memo, _mul_mod_p), width)
        for piv, row in echelon:
            f = (col >> (8 * width * piv) & slot) % _P
            if f:
                col += (_P - f) * row
        col = [v % _P for v in _unpack(col, n, width)]
        piv = next((i for i, v in enumerate(col) if v), None)
        if piv is None:
            return False
        inv = pow(col[piv], -1, _P)
        row = _pack([v * inv % _P for v in col], width)
        bisect.insort(echelon, (piv, row))
    return True


def _mul_mod_p(a, b):
    """Product of two residue jets of the same length, truncated to it."""
    n = len(a)
    width = (2 * _P.bit_length() + n.bit_length() + 7) // 8
    return [v % _P for v in _unpack(_pack(a, width) * _pack(b, width), n, width)]


def _pack(values, width):
    """The int sum values[i] 2^(8 width i); each value must fit its slot."""
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")


def _unpack(packed, n, width):
    """The first n slots of a packed int."""
    data = (packed & ((1 << (8 * width * n)) - 1)).to_bytes(width * n, "little")
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, width * n, width)]


def _exact_kernel(columns, n_rows):
    """Kernel basis of the matrix with the given columns, over Fraction.

    Gauss-Jordan with exact arithmetic; free columns generate the kernel in
    the usual RREF normal form (deterministic output).
    """
    m = len(columns)
    rows = [[Fraction(columns[j][i]) for j in range(m)] for i in range(n_rows)]
    pivot_of_col = [-1] * m
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_of_col[c] = r
        r += 1
        if r == n_rows:
            break
    kernel = []
    for c in range(m):
        if pivot_of_col[c] != -1:
            continue
        vec = [Fraction(0)] * m
        vec[c] = Fraction(1)
        for c2 in range(m):
            pr = pivot_of_col[c2]
            if pr != -1:
                vec[c2] = -rows[pr][c]
        kernel.append(vec)
    return kernel


def verify_tail_identities(H: TruncatedSeries, P: Poly, k: int, order: int) -> bool:
    """Exact check of the two tail identities used by the transform calculus.

    (1)  T_{k+1} H = T_k (T_1 H)
    (2)  T_1 (H o P) = (P/x) * ((T_1 H) o P) + H'(0) * T_1 P    for P(0) = 0,

    both compared through the largest order the truncations support (capped
    at ``order``).  The correction term in (2) comes from H = x T_1 H +
    H'(0) x and vanishes under the usual normalization H'(0) = 0 (and for
    monomial P, where P/x = P'(0)).  Exact-rational mode only.
    """
    if not H.mode.exact:
        raise ExactnessRequiredError("tail identities are exact-mode checks")
    if P.is_zero() or P.val() < 1:
        raise ValueError("P must vanish at 0")
    if H.order < k + 2:
        raise OrderExceededError("series order too small for the tail identities")

    lhs1 = _series.tail_T(H, k + 1)
    rhs1 = _series.tail_T(_series.tail_T(H, 1), k)
    n1 = min(lhs1.order, rhs1.order, order)
    ok1 = lhs1.truncated(n1) == rhs1.truncated(n1)

    comp = _series.compose(H, P)
    lhs2 = _series.tail_T(comp, 1)
    shifted = P.shift_down(1)
    rhs2 = shifted.as_series(lhs2.order, H.mode, H.var) * _series.compose(
        _series.tail_T(H, 1), P
    )
    a1 = H.coeffs[1]
    if a1 != 0:
        p_series = P.as_series(lhs2.order + 1, H.mode, H.var)
        rhs2 = rhs2 + _series.tail_T(p_series, 1).scale(a1)
    n2 = min(lhs2.order, rhs2.order, order)
    ok2 = lhs2.truncated(n2) == rhs2.truncated(n2)
    return ok1 and ok2
