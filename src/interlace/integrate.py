"""Adaptive integration of reduced systems toward the singular endpoint x -> 0+.

The stepper is an embedded Dormand-Prince 5(4) pair with PI-free standard
step control; dense output is cubic Hermite on the accepted grid using the
stored derivatives.  When the run spans more than two decades the right-hand
side is integrated in s = log x by default (steps then measure the approach
rate to 0), a heuristic exposed as a flag.

``solve_pair`` integrates the four-dimensional difference system so the gap
between two nearby solutions is a state variable of its own: its relative
accuracy is set by the tolerance (the gap components get a zero absolute
floor), never by cancellation between two large trajectories.  The gap's
right-hand side is an exact difference quotient evaluated in float64
(``field.difference_system``), so this holds for gaps of any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AdaptedChartError,
    BlowUpError,
    DomainError,
    EvaluationSingularityError,
    MaxStepsError,
    StiffnessError,
)
from .field import DifferenceSystem, ReducedSystem, difference_system

# Dormand-Prince 5(4) tableau (FSAL)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)

LOG_SUBSTITUTION_RATIO = 1e-2  # auto-enable threshold for x_end/x_start
STEP_UNDERFLOW_FACTOR = 1e-14


@dataclass(frozen=True)
class IVP:
    """Initial value problem on a decreasing x-interval."""

    system: object  # ReducedSystem or DifferenceSystem
    x_start: float
    x_end: float
    y0: tuple
    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 10**6
    log_substitution: bool | None = None  # None: auto by span ratio
    atol_overrides: tuple | None = None  # per-component absolute tolerances

    def __post_init__(self):
        if not (self.x_start > self.x_end > 0):
            raise ValueError("need x_start > x_end > 0")
        if self.rtol <= 0 or self.atol < 0:
            raise ValueError("tolerances must be positive")
        if not (math.isfinite(self.rtol) and math.isfinite(self.atol)):
            raise ValueError(f"tolerances must be finite: rtol={self.rtol}, atol={self.atol}")
        if len(self.y0) != self.system.dimension:
            raise ValueError(
                f"initial value has {len(self.y0)} components, "
                f"system has {self.system.dimension}"
            )

    def use_log_substitution(self):
        if self.log_substitution is not None:
            return self.log_substitution
        return self.x_end / self.x_start < LOG_SUBSTITUTION_RATIO


class Trajectory:
    """Dense solution on a strictly decreasing grid.

    Stores values and derivatives at the accepted steps; evaluation between
    knots is cubic Hermite, which reproduces the knot values and derivatives
    exactly.
    """

    def __init__(self, xs, ys, dys, meta=None):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.dys = np.asarray(dys, dtype=float)
        if self.xs.ndim != 1 or len(self.xs) < 2:
            raise ValueError("trajectory needs at least two grid points")
        if not np.all(np.diff(self.xs) < 0):
            raise ValueError("trajectory grid must be strictly decreasing")
        self.meta = dict(meta or {})

    @property
    def dimension(self):
        return self.ys.shape[1]

    def domain(self):
        return float(self.xs[-1]), float(self.xs[0])

    def __call__(self, x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        lo, hi = self.domain()
        if np.any(x_arr < lo - 1e-15 * abs(lo)) or np.any(x_arr > hi + 1e-15 * hi):
            raise DomainError(f"evaluation outside trajectory domain [{lo}, {hi}]")
        asc = self.xs[::-1]
        idx = np.searchsorted(asc, x_arr, side="left")
        idx = np.clip(idx, 1, len(asc) - 1)
        i1 = len(self.xs) - 1 - idx  # left knot (larger x) in descending storage
        i0 = i1 + 1  # right knot (smaller x)
        x0, x1 = self.xs[i0], self.xs[i1]
        h = x1 - x0
        u = (x_arr - x0) / h
        u2, u3 = u * u, u * u * u
        h00 = 2 * u3 - 3 * u2 + 1
        h10 = u3 - 2 * u2 + u
        h01 = -2 * u3 + 3 * u2
        h11 = u3 - u2
        vals = (
            h00[:, None] * self.ys[i0]
            + h10[:, None] * h[:, None] * self.dys[i0]
            + h01[:, None] * self.ys[i1]
            + h11[:, None] * h[:, None] * self.dys[i1]
        )
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return vals[0]
        return vals

    def component(self, k):
        return self.ys[:, k]

    def slice(self, cols, meta=None):
        return Trajectory(self.xs, self.ys[:, cols], self.dys[:, cols], meta or self.meta)

    def write_csv(self, fh):
        names = ["x", "y1", "y2", "z1", "z2"][: 1 + self.dimension]
        fh.write(",".join(names) + "\n")
        for i in range(len(self.xs)):
            row = [self.xs[i]] + list(self.ys[i])
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _rhs_callable(system):
    if isinstance(system, (ReducedSystem, DifferenceSystem)):
        return system.rhs
    rhs = getattr(system, "rhs", None)
    if rhs is None:
        raise TypeError(f"cannot integrate {type(system).__name__}")
    return rhs


def solve(ivp: IVP) -> Trajectory:
    """Integrate from x_start down to x_end with local error <= tolerance."""
    rhs = _rhs_callable(ivp.system)
    dim = ivp.system.dimension
    atol = np.full(dim, ivp.atol)
    if ivp.atol_overrides is not None:
        for k, v in enumerate(ivp.atol_overrides):
            if v is not None:
                atol[k] = v

    logsub = ivp.use_log_substitution()

    def f(t, u):
        # t is x, or s = log x under the substitution
        x = math.exp(t) if logsub else t
        try:
            vals = rhs(x, u)
        except EvaluationSingularityError as err:
            raise AdaptedChartError(str(err), last_x=x) from err
        except (OverflowError, FloatingPointError) as err:
            raise BlowUpError(str(err), last_x=x) from err
        out = np.asarray(vals, dtype=float)
        if not np.all(np.isfinite(out)):
            raise BlowUpError("non-finite right-hand side", last_x=x)
        return out * x if logsub else out

    t0 = math.log(ivp.x_start) if logsub else ivp.x_start
    t1 = math.log(ivp.x_end) if logsub else ivp.x_end

    ts, us, dus, stats = _dopri5(f, t0, t1, np.asarray(ivp.y0, dtype=float),
                                 ivp.rtol, atol, ivp.max_steps, logsub)

    xs = np.exp(ts) if logsub else ts
    xs[0], xs[-1] = ivp.x_start, ivp.x_end  # guard endpoint rounding
    # store derivatives with respect to x in either case
    dys = dus / xs[:, None] if logsub else dus
    meta = {
        "rtol": ivp.rtol,
        "atol": float(np.min(atol)),
        "n_steps": stats["n_steps"],
        "n_rejected": stats["n_rejected"],
        "max_error_ratio": stats["max_err"],
        "log_substitution": logsub,
    }
    return Trajectory(xs, us, dys, meta)


def solve_pair(ivp: IVP, eps0) -> tuple:
    """Joint integration of a solution and its gap to a neighbor.

    ``ivp`` holds the planar system and the base initial value; ``eps0`` is
    the initial gap.  Returns (gamma, eps) trajectories on a shared grid;
    eps is integrated as its own state (zero absolute-tolerance floor) so a
    flat gap keeps full relative accuracy.
    """
    if not isinstance(ivp.system, ReducedSystem):
        raise TypeError("solve_pair expects a planar ReducedSystem")
    if len(eps0) != ivp.system.dimension:
        raise ValueError(
            f"initial gap eps0 has {len(eps0)} components, system has {ivp.system.dimension}"
        )
    diff = difference_system(ivp.system)
    y0 = tuple(ivp.y0) + tuple(eps0)
    pair_ivp = replace(
        ivp,
        system=diff,
        y0=y0,
        atol_overrides=(None, None, 0.0, 0.0),
    )
    traj = solve(pair_ivp)
    gamma = traj.slice([0, 1], meta={**traj.meta, "role": "solution"})
    eps = traj.slice([2, 3], meta={**traj.meta, "role": "gap"})
    return gamma, eps


def _dopri5(f, t0, t1, y0, rtol, atol, max_steps, logsub):
    sign = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)
    t = t0
    y = y0.copy()
    k1 = f(t, y)
    h = sign * min(span / 100.0, _initial_step(t0, y, k1, rtol, atol, logsub))

    ts, ys, dys = [t], [y.copy()], [k1.copy()]
    n_steps = n_rejected = 0
    max_err = 0.0
    ks = [None] * 7

    while sign * (t1 - t) > 0:
        used = n_steps + n_rejected
        if used >= max_steps:
            raise MaxStepsError("step budget exhausted", last_x=_to_x(t, logsub))
        if abs(h) > abs(t1 - t):
            h = t1 - t
        x_here = _to_x(t, logsub)
        h_floor = STEP_UNDERFLOW_FACTOR * (abs(x_here) if not logsub else 1.0)
        if abs(h) < h_floor:
            raise StiffnessError("step size underflow", last_x=x_here)
        # progress projection: creeping toward a singular point can hold h
        # above the underflow floor while never finishing; give up once even
        # 8x the remaining budget cannot cover the remaining span
        if used % 64 == 0 and used > 256:
            if abs(h) * 8 * (max_steps - used) < abs(t1 - t):
                raise StiffnessError(
                    "step size collapsed: projected step count exceeds the budget",
                    last_x=x_here,
                )

        ks[0] = k1
        for i in range(1, 7):
            yi = y + h * sum(a * ks[j] for j, a in enumerate(_A[i]))
            ks[i] = f(t + _C[i] * h, yi)
        y5 = y + h * sum(b * ks[j] for j, b in enumerate(_B5) if b)
        y4 = y + h * sum(b * ks[j] for j, b in enumerate(_B4) if b)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        diff = np.abs(y5 - y4)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(scale > 0, diff / scale, np.where(diff > 0, np.inf, 0.0))
        err = float(np.sqrt(np.mean(np.square(np.minimum(ratios, 1e300)))))

        if err <= 1.0:
            t = t + h
            y = y5
            k1 = ks[6]  # FSAL
            ts.append(t)
            ys.append(y.copy())
            dys.append(k1.copy())
            n_steps += 1
            max_err = max(max_err, err)
            factor = 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            n_rejected += 1
            factor = max(0.1, 0.9 * err ** -0.2)
        h *= factor

    stats = {"n_steps": n_steps, "n_rejected": n_rejected, "max_err": max_err}
    return np.array(ts), np.array(ys), np.array(dys), stats


def _to_x(t, logsub):
    return math.exp(t) if logsub else t


def _initial_step(t0, y, k1, rtol, atol, logsub):
    scale = atol + rtol * np.abs(y)
    mask = scale > 0
    if not np.any(mask):
        return 1e-6 if logsub else abs(t0) * 1e-6
    d0 = float(np.sqrt(np.mean(np.square(y[mask] / scale[mask]))))
    d1 = float(np.sqrt(np.mean(np.square(k1[mask] / scale[mask]))))
    if d0 < 1e-5 or d1 < 1e-5 or not math.isfinite(d0 / max(d1, 1e-300)):
        return 1e-6 if logsub else abs(t0) * 1e-6
    return 0.01 * d0 / d1
