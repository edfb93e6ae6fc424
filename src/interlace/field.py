"""Three-dimensional vector fields with rational-expression components.

Provides substitution of formal curves into field components, the formal
invariance test  xi o C = h * C'  with series multiplier h, reduction to the
planar nonautonomous system in the x-chart (f1 = xi_y/xi_x, f2 = xi_z/xi_x
with y, z renamed y1, y2), and the associated difference system in
(x, y1, y2, z1, z2) whose z-part tracks the gap between two solutions by
divided differences, free of cancellation at the solution's scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import expr as _expr
from . import series as _series
from .curve import FormalCurve
from .errors import (
    ConstantCurveError,
    EvaluationSingularityError,
    NonAdaptedChartError,
    NonUnitDivisorError,
    OrderExceededError,
)

FIELD_VARS = ("x", "y", "z")
REDUCED_VARS = ("x", "y1", "y2")
DIFFERENCE_VARS = ("x", "y1", "y2", "z1", "z2")


def parse_field_expr(text, variables=FIELD_VARS):
    """Parse one rational field component; E(..)/exp(..) are not field material."""
    return _expr.parse_expr(text, variables, allow_calls=False)


@dataclass(frozen=True)
class VectorField3:
    """xi = xi_x d/dx + xi_y d/dy + xi_z d/dz over variables (x, y, z)."""

    name: str
    xi_x: object
    xi_y: object
    xi_z: object

    @staticmethod
    def from_text(name, fx, fy, fz):
        return VectorField3(
            name,
            parse_field_expr(fx),
            parse_field_expr(fy),
            parse_field_expr(fz),
        )

    @property
    def components(self):
        return (self.xi_x, self.xi_y, self.xi_z)

    def component_texts(self):
        return tuple(_expr.to_text(c) for c in self.components)


def _rhs(system, x, y):
    """``system.rhs(x, y)``, bound in each system class's own namespace (see ``inlines_rhs``)."""
    return system._compiled(x, *y)


def _generated_rhs(system):
    return _expr.compile_expr(system.trees, system.variables, label=f"rhs {system.provenance}")


@dataclass(frozen=True)
class ReducedSystem:
    """y1' = f1(x, y1, y2), y2' = f2(x, y1, y2); ``rhs(x, (y1, y2))`` is (f1, f2)."""

    f1: object
    f2: object
    provenance: str = "direct"

    variables = REDUCED_VARS

    @staticmethod
    def from_text(f1, f2, provenance="direct"):
        return ReducedSystem(
            _expr.parse_expr(f1, REDUCED_VARS),
            _expr.parse_expr(f2, REDUCED_VARS),
            provenance,
        )

    def component_texts(self):
        return (_expr.to_text(self.f1), _expr.to_text(self.f2))

    @property
    def trees(self):
        return (self.f1, self.f2)

    _compiled = cached_property(_generated_rhs)
    rhs = _rhs

    @property
    def dimension(self):
        return 2


@dataclass(frozen=True)
class DifferenceSystem:
    """The four-equation system for (y, z) = (one solution, gap to another).

    f3 and f4 equal f_i(x, y+z) - f_i(x, y), built by ``difference_system``
    as divided differences in which every term carries z1 or z2.  They keep
    the gap's relative accuracy at any gap size, down to the float range, in
    plain float64.  ``rhs(x, (y1, y2, z1, z2))`` is (f1, f2, f3, f4), one
    generated function sharing their common sub-expressions.
    """

    f1: object
    f2: object
    f3: object
    f4: object
    provenance: str = "direct"

    variables = DIFFERENCE_VARS

    @property
    def trees(self):
        return (self.f1, self.f2, self.f3, self.f4)

    _compiled = cached_property(_generated_rhs)
    rhs = _rhs

    @property
    def dimension(self):
        return 4


def inlines_rhs(system):
    """True when the class of ``system`` resolves ``rhs`` to the stock ``_rhs``."""
    return type(system).rhs is _rhs


def chart_reduce(v: VectorField3) -> ReducedSystem:
    """Quotient by the x-component: f1 = xi_y/xi_x, f2 = xi_z/xi_x (y->y1, z->y2)."""
    if _expr.fold_constant(v.xi_x) == 0:
        raise NonAdaptedChartError(
            f"field {v.name!r} has identically zero x-component; the x-chart is not adapted"
        )
    renaming = {"y": "y1", "z": "y2"}
    den = _expr.rename_vars(v.xi_x, renaming)
    f1 = _expr.BinOp("/", _expr.rename_vars(v.xi_y, renaming), den)
    f2 = _expr.BinOp("/", _expr.rename_vars(v.xi_z, renaming), den)
    return ReducedSystem(f1, f2, provenance=v.name)


def difference_system(r: ReducedSystem) -> DifferenceSystem:
    """Append z1' = f1(x, y+z) - f1(x, y) and likewise z2', by divided differences.

    ``_delta`` builds each gap on the tree itself: every term carries a
    factor z1 or z2, so the gap vanishes identically at z = 0, and nothing is
    expanded, so no two terms cancel in (x, y).
    """
    gaps = [_delta(f)[0] or _expr.Num(Fraction(0)) for f in (r.f1, r.f2)]
    return DifferenceSystem(r.f1, r.f2, *gaps, provenance=r.provenance)


def neighbour_singularity(r: ReducedSystem, point):
    """The error of ``r`` at the neighbour y + z of a failed ``point`` of its difference system.

    None unless f is defined at y and singular at y + z: a gap divides by
    its divisors' values at the neighbour, and this names the sub-expression
    of f, as the user wrote it, that fails there, in place of the gap's
    generated tree.
    """
    x, y1, y2, z1, z2 = (point[name] for name in DIFFERENCE_VARS)
    try:
        r.rhs(x, (y1, y2))
    except EvaluationSingularityError:
        return None
    try:
        r.rhs(x, (y1 + z1, y2 + z2))
    except EvaluationSingularityError as exc:
        return exc
    return None


_GAPS = {"y1": _expr.Var("z1"), "y2": _expr.Var("z2")}


def _delta(node):
    """(node(y+z) - node(y), node(y+z)); the difference is None where no y occurs.

    Divided-difference arithmetic (Reps & Rall, HOSC 16, 2003):
    Δ(ab) = Δa b(y+z) + a Δb, Δ(a/b) = (Δa b - a Δb)/b/b(y+z), and Δ(a^n)
    is Δa times the geometric sum of a(y+z)^k a^(n-1-k), built by halving n
    (``_geometric_sum``) so that the tree grows with log n.  A divisor's two
    factors divide in turn, so their product, which underflows where each
    factor is a normal float, is never formed.  A literal divisor c
    whose reciprocal is a finite nonzero float gives 1/c Δa, which rounds as
    the expanded quotient did; any other keeps Δa / c.
    """
    if isinstance(node, _expr.Var) and node.name in _GAPS:
        gap = _GAPS[node.name]
        return gap, _expr.BinOp("+", node, gap)
    if isinstance(node, (_expr.Num, _expr.Var)):
        return None, node
    if isinstance(node, _expr.Neg):
        da, a1 = _delta(node.arg)
        return (None, node) if da is None else (_expr.Neg(da), _expr.Neg(a1))
    if isinstance(node, _expr.Pow):
        return _delta_pow(node)
    if not isinstance(node, _expr.BinOp):
        raise TypeError(f"not a field expression node: {node!r}")
    op, a, b = node.op, node.lhs, node.rhs
    (da, a1), (db, b1) = _delta(a), _delta(b)
    if da is None and db is None:
        return None, node
    shifted = _expr.BinOp(op, a1, b1)
    if op in "+-":
        if db is None:
            return da, shifted
        if da is None:
            return (db if op == "+" else _expr.Neg(db)), shifted
        return _expr.BinOp(op, da, db), shifted
    if op == "*":
        return _add(_mul(da, b1), _mul(a, db)), shifted
    if db is None:
        if isinstance(b, _expr.Num) and _float_reciprocal(b.value):
            return _expr.BinOp("*", _expr.Num(1 / b.value), da), shifted
        return _expr.BinOp("/", da, b), shifted
    if da is None:
        num = _expr.Neg(_expr.BinOp("*", a, db))
    else:
        num = _expr.BinOp("-", _expr.BinOp("*", da, b), _expr.BinOp("*", a, db))
    return _expr.BinOp("/", _expr.BinOp("/", num, b), b1), shifted


def _float_reciprocal(c):
    """True when 1/c is a finite nonzero float."""
    try:
        return c != 0 and float(1 / c) != 0
    except OverflowError:
        return False


def _delta_pow(node):
    n, m = node.exponent, abs(node.exponent)
    da, a1 = _delta(node.base)
    if da is None or n == 0:
        return None, node
    if m > 1:  # a^m(y+z) - a^m = Δa times the sum of a(y+z)^k a^(m-1-k)
        da = _expr.BinOp("*", da, _geometric_sum(a1, node.base, m))
    if n < 0:  # a^n = 1/a^m, divided by a^m and then by a(y+z)^m
        da = _expr.BinOp("/", _expr.Neg(da), _expr.Pow(node.base, m))
        da = _expr.BinOp("/", da, _expr.Pow(a1, m))
    return da, _expr.Pow(a1, n)


def _geometric_sum(a1, a, m):
    """S_m = sum of a1^k a^(m-1-k) over k < m, for m >= 2, in O(log m) nodes:
    S_2h = S_h (a^h + a1^h) and S_2h+1 = a1 S_2h + a^2h, from S_1 = 1."""
    h = m // 2
    even = _expr.BinOp("+", *(f if h == 1 else _expr.Pow(f, h) for f in (a, a1)))
    if h > 1:
        even = _expr.BinOp("*", _geometric_sum(a1, a, h), even)
    return even if m % 2 == 0 else _expr.BinOp("+", _expr.BinOp("*", a1, even), _expr.Pow(a, 2 * h))


def _add(a, b):
    """a + b, where None stands for zero."""
    if a is None:
        return b
    return a if b is None else _expr.BinOp("+", a, b)


def _mul(a, b):
    """a * b, where None stands for zero."""
    return None if a is None or b is None else _expr.BinOp("*", a, b)


@dataclass(frozen=True)
class InvarianceReport:
    """Result of the multiplier test xi o C = h * C'.

    ``residuals`` are xi_j(C) - h * C_j' per component, checked through
    t^checked_order.  In float mode ``max_residual`` is compared against
    ``tolerance`` after dividing by ``scale`` (the largest coefficient
    magnitude among the compared quantities); exact mode demands literal
    zero coefficients.
    """

    invariant: bool
    multiplier: object  # TruncatedSeries or None
    residuals: tuple
    checked_order: int
    pivot_index: int
    max_residual: float = 0.0
    scale: float = 1.0
    tolerance: float = 0.0

    def residual_val(self):
        vals = [r.val() for r in self.residuals]
        return min(vals)


def invariance_check(v: VectorField3, c: FormalCurve, order: int, tolerance=1e-30):
    """Check xi o C = h C' through t^order; curve orders must exceed ``order``.

    The multiplier is extracted from the component whose derivative has the
    smallest valuation (lowest index on ties); when xi_pivot(C) is not
    divisible by that derivative, no series multiplier exists and the
    parallelism defects  xi_j(C) * C_pivot' - xi_pivot(C) * C_j'  are
    reported as residuals instead.
    """
    comps = c.components
    if len(comps) != 3:
        raise ValueError("invariance_check needs a three-component curve")
    if min(s.order for s in comps) < order + 1:
        raise OrderExceededError(
            f"invariance at order {order} needs component orders >= {order + 1}"
        )
    derivs = [_series.derive(s) for s in comps]
    vals = [d.val() for d in derivs]
    if all(val == _series.INF for val in vals):
        raise ConstantCurveError("every curve component derivative vanishes")
    pivot = min(range(len(comps)), key=lambda i: (vals[i], i))
    env = {"x": comps[0], "y": comps[1], "z": comps[2]}
    images = [_expr.substitute_series(comp, env) for comp in v.components]

    vpiv = vals[pivot]
    mode = comps[0].mode
    try:
        h = _series.shift_divide(images[pivot], derivs[pivot])
        products = [h * d for d in derivs]
        residuals = tuple(
            images[j].truncated(h.order) - products[j] for j in range(len(comps))
        )
    except NonUnitDivisorError:
        # xi_pivot(C) has a lower valuation than C_pivot': no series h exists
        h = None
        products = []
        residuals = tuple(
            images[j] * derivs[pivot] - images[pivot] * derivs[j]
            for j in range(len(comps))
        )
    checked = min(r.order for r in residuals)
    checked = min(checked, order - vpiv if h is not None else order)
    residuals = tuple(r.truncated(checked) for r in residuals)

    # magnitudes stay in the coefficient domain: exact ones outgrow floats
    max_res = _magnitude(residuals)
    scale = max(_magnitude(images + products), 1)
    if mode.exact:
        invariant = h is not None and all(r.is_zero() for r in residuals)
        tol = 0.0
    else:
        invariant = h is not None and max_res <= tolerance * scale
        tol = tolerance
    return InvarianceReport(
        invariant=invariant,
        multiplier=h,
        residuals=residuals,
        checked_order=checked,
        pivot_index=pivot,
        max_residual=_as_float(max_res),
        scale=_as_float(scale),
        tolerance=tol,
    )


def _magnitude(series_list):
    return max((abs(c) for s in series_list for c in s.coeffs), default=0)


def _as_float(value):
    """Nearest float; inf beyond the float range, as mpmath's float() gives."""
    try:
        return float(value)
    except OverflowError:
        return math.inf
