"""Formal curves, oriented iterated tangents, and Puiseux-asymptotics probes.

A formal curve is a tuple of truncated series in a parameter t, each with
valuation >= 1, read on the half-branch t > 0.  The half-branch t < 0 is the
substitution t -> -t (``FormalCurve.reparameterized(-1)``), applied once when
a command builds its curve, so every consumer reads the components as stored.
A spherical blow-up step works in the directional chart of the component of
minimal valuation: the pivot is kept, every other component is divided by it
and re-centered, and the sphere point is recorded as the (un-normalized)
vector of leading coefficients.  Repeating the step yields the sequence of
oriented iterated tangents.

The curve DSL accepts comma-separated component expressions over one
parameter built from rational constants, + - * / ^, E(<val>=1 argument>) for
the Euler series composed with that argument, and exp(<val>=1 argument>).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import expr as _expr
from . import series as _series
from .errors import DegenerateCurveError, DomainError, OrderExceededError
from .series import EXACT, INF, TruncatedSeries, float_mode


@dataclass(frozen=True)
class FormalCurve:
    """Components (c_1(t), ..., c_m(t)), each with val >= 1, read for t > 0.

    The negative half-branch is the curve ``reparameterized(-1)``: the
    substitution t -> -t, applied when the curve is built.
    """

    components: tuple

    def __post_init__(self):
        if len(self.components) < 2:
            raise DegenerateCurveError("a curve needs at least two components")
        if all(s.is_zero() for s in self.components):
            raise DegenerateCurveError("all curve components vanish identically")
        for s in self.components:
            if s.val() < 1:
                raise DegenerateCurveError(
                    "curve components must vanish at the parameter origin"
                )

    @property
    def mode(self):
        return self.components[0].mode

    @property
    def order(self):
        return min(s.order for s in self.components)

    def truncated(self, order):
        return FormalCurve(tuple(s.truncated(order) for s in self.components))

    def reparameterized(self, lam):
        """t -> lam * t for any nonzero lam; lam = -1 gives the other half-branch.

        Big-float coefficients round at their own precision, so a big-float
        curve keeps it.
        """
        if lam == 0:
            raise ValueError("reparameterization factor must be nonzero")
        out = []
        for s in self.components:
            scale = s.mode.coerce(lam)
            out.append(TruncatedSeries(tuple(c * scale**i for i, c in enumerate(s.coeffs)),
                                       s.mode, s.var))
        return FormalCurve(tuple(out))

    def to_puiseux(self):
        """Interpret as (t^nu, theta) when the first component is exactly t^nu."""
        first = self.components[0]
        v = first.val()
        if v == INF:
            raise DegenerateCurveError("first component is zero; no ramification")
        mono_ok = first.coeffs[v] == 1 and all(
            c == 0 for i, c in enumerate(first.coeffs) if i != v
        )
        if not mono_ok:
            raise ValueError("first component must be exactly t^nu")
        return PuiseuxCurve(int(v), tuple(self.components[1:]))


@dataclass(frozen=True)
class PuiseuxCurve:
    """(t^nu, theta_1(t), theta_2(t), ...) with ramification index nu >= 1."""

    nu: int
    theta: tuple

    def __post_init__(self):
        if self.nu < 1:
            raise ValueError("ramification index must be >= 1")


@dataclass(frozen=True)
class TangentStep:
    """One spherical blow-up: sphere direction plus the strict transform."""

    direction: tuple  # exact leading-coefficient vector, not normalized
    chart_index: int  # pivot component
    transformed_curve: FormalCurve

    def unit_direction(self):
        d = self.direction
        big = max(map(abs, d))  # a direction has a nonzero component
        if not 2.0**-500 < big < 2.0**500:  # keep the squares normal floats
            d = [a / big for a in d]
        norm = math.sqrt(sum(float(a) ** 2 for a in d))
        return tuple(float(a) / norm for a in d)


def leading_direction(c: FormalCurve):
    """Coefficient vector at t^v, v the minimal valuation."""
    comps = c.components
    v = min(s.val() for s in comps)
    if v == INF:
        raise DegenerateCurveError("zero curve has no direction")
    v = int(v)
    out = []
    for s in comps:
        if v > s.order:
            raise OrderExceededError(
                "leading direction needs coefficients beyond the stored order"
            )
        out.append(s.coeffs[v])
    return tuple(out)


def spherical_blowup_step(c: FormalCurve) -> TangentStep:
    """Strict transform in the directional chart of the minimal-valuation pivot."""
    comps = c.components
    vals = [s.val() for s in comps]
    v = min(vals)
    if v == INF:
        raise DegenerateCurveError("zero curve cannot be blown up")
    v = int(v)
    pivot = vals.index(v)  # lowest index among minimal valuations
    direction = leading_direction(c)
    pivot_series = comps[pivot]

    new_order = min(s.order for s in comps) - v
    if new_order < 1:
        raise OrderExceededError(
            "blow-up step needs more coefficients than the curve carries"
        )
    new_comps = []
    for j, s in enumerate(comps):
        if j == pivot:
            new_comps.append(s.truncated(new_order))
            continue
        q = _series.shift_divide(s.truncated(new_order + v), pivot_series.truncated(new_order + v))
        ratio = q.constant_term()
        new_comps.append(q - TruncatedSeries.constant(ratio, q.order, q.mode, q.var))
    transformed = FormalCurve(tuple(new_comps))
    return TangentStep(direction, pivot, transformed)


def iterated_tangents(c: FormalCurve, steps: int):
    """Repeated spherical blow-up; needs component orders >= steps + 1."""
    out = []
    current = c
    for _ in range(steps):
        step = spherical_blowup_step(current)
        out.append(step)
        current = step.transformed_curve
    return out


@dataclass(frozen=True)
class DeviationProbe:
    x: float
    deviation: float
    empirical_order: float  # log(deviation)/log(x) at this probe


@dataclass(frozen=True)
class AsymptoticReport:
    """Deviation of a trajectory from the degree-N jet of a Puiseux curve.

    ``slopes[i]`` is the log-log slope of the deviation between probes i and
    i+1: the finite-sample estimate of the decay order o(t^N).  Pointwise
    ratios log(dev)/log(x) are also kept; they absorb the jet's leading
    coefficient and undershoot the decay order whenever that coefficient is
    large.
    """

    jet_order: int
    probes: tuple
    slopes: tuple


def asymptotic_deviation(traj, curve: PuiseuxCurve, jet_order: int, probes) -> AsymptoticReport:
    """deviation(x) = || traj(x) - J_N theta(x^{1/nu}) || at each probe.

    The jet is evaluated in 240-bit big-float arithmetic so the subtraction
    against the float trajectory values loses nothing beyond their own
    storage precision.  Probes must lie inside the trajectory domain, ordered
    large to small.
    """
    mode = float_mode(240)
    jets = []
    for th in curve.theta:
        if th.order < jet_order:
            raise OrderExceededError(
                f"jet order {jet_order} exceeds curve component order {th.order}"
            )
        jets.append(TruncatedSeries.from_coeffs(th.coeffs[: jet_order + 1], mode=mode))
    lo, hi = traj.domain()
    rows = []
    for x in probes:
        if not (lo <= x <= hi) or x <= 0:
            raise DomainError(f"probe {x} outside trajectory domain [{lo}, {hi}]")
        t = mode.coerce(x) ** (mode.one() / curve.nu)
        vals = traj(x)
        dev_sq = mode.zero()
        for k, jet in enumerate(jets):
            dev_sq += (mode.coerce(float(vals[k])) - jet.eval(t)) ** 2
        dev = float(mode.ctx.sqrt(dev_sq))
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


# -- curve DSL -----------------------------------------------------------

CURVE_PARAMS = ("t", "x")


def parse_curve(text, order, mode=EXACT) -> FormalCurve:
    """Parse comma-separated component expressions into a FormalCurve."""
    if order < 1:
        raise ValueError(f"curve order must be at least 1, got {order}")
    parts = _split_components(text)
    if len(parts) < 2:
        raise DegenerateCurveError("a curve needs at least two components")
    trees = [_expr.parse_expr(part, CURVE_PARAMS, allow_calls=True) for part in parts]
    used = set().union(*map(_expr.variables_of, trees))
    if len(used) > 1:
        raise ValueError(f"mixed curve parameters {sorted(used)}; use one of t, x")
    param = used.pop() if used else "t"
    ident = TruncatedSeries.identity(order, mode, param)
    comps = tuple(_expr.substitute_series(tree, {param: ident}) for tree in trees)
    return FormalCurve(comps)


def _split_components(text):
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return [p for p in parts if p]
