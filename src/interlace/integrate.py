"""Adaptive integration of reduced systems toward the singular endpoint x -> 0+.

The stepper is an embedded Dormand-Prince 5(4) pair with PI-free standard
step control; dense output is cubic Hermite on the accepted grid using the
stored derivatives.  When the run spans more than two decades the right-hand
side is integrated in s = log x by default (steps then measure the approach
rate to 0), a heuristic exposed as a flag.

The whole integration runs on plain Python floats, since the state has
only 2 or 4 components, in one direction: x decreases toward x_end.  It is
one function of Python source unrolled over the components and generated
per system and log substitution (``_kernel``): step-size control, the seven
right-hand-side stages of each step, the 5th- and 4th-order solutions and
the error norm.  Every stage runs a straight-line body in place: where the
system's class keeps the stock ``field._rhs``, the system's own body
(``expr.straight_line``), with no call and no tuple; for any other ``rhs``,
such as a subclass override or a class-level wrapper, the one line
``_r = rhs(x, state)``.  One handler around the whole integration turns a
zero divisor or an overflow in any stage into a solver error at its x.
Accepted knots go straight into one ``array('d')`` per component, the
trajectory's float columns.  The order of floating-point operations is
fixed so that results equal the numpy loop the generated code replaced
(kept as a reference in the tests) bit for bit.

``solve_pair`` integrates the four-dimensional difference system so the gap
between two nearby solutions is a state variable of its own: its relative
accuracy is set by the tolerance, never by cancellation between two large
trajectories, since ``solve`` gives the gap components of any
``DifferenceSystem`` a zero absolute floor.  The gap's right-hand side is a
divided difference evaluated in float64 (``field.difference_system``), so
this holds for gaps of any size.
"""

from __future__ import annotations

import bisect
import copy
import math
import operator
from array import array
from dataclasses import dataclass, replace

from .errors import (
    AdaptedChartError,
    BlowUpError,
    DomainError,
    EvaluationSingularityError,
    MaxStepsError,
    StiffnessError,
)
from . import expr as _expr
from .field import (
    DifferenceSystem,
    ReducedSystem,
    difference_system,
    inlines_rhs,
    neighbour_singularity,
)

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

    def __post_init__(self):
        if not (self.x_start > self.x_end > 0):
            raise ValueError("need x_start > x_end > 0")
        if not math.isfinite(self.x_start):
            raise ValueError(f"x_start must be finite: {self.x_start}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1: {self.max_steps}")
        if self.rtol <= 0 or self.atol < 0:
            raise ValueError("tolerances must be positive")
        if not (math.isfinite(self.rtol) and math.isfinite(self.atol)):
            raise ValueError(f"tolerances must be finite: rtol={self.rtol}, atol={self.atol}")
        if len(self.y0) != self.system.dimension:
            raise ValueError(
                f"initial value has {len(self.y0)} components, "
                f"system has {self.system.dimension}"
            )
        _check_finite("initial value y0", self.y0)

    def use_log_substitution(self):
        if self.log_substitution is not None:
            return self.log_substitution
        return self.x_end / self.x_start < LOG_SUBSTITUTION_RATIO


class Trajectory:
    """Dense solution on a strictly decreasing grid.

    ``xs`` is one ``array('d')`` of knots; ``cols`` and ``dcols`` hold one
    ``array('d')`` per component, the values and the x-derivatives at the
    knots.  ``slice`` shares those arrays.  Evaluation between knots is cubic
    Hermite, which reproduces the knot values and derivatives exactly.
    """

    def __init__(self, xs, cols, dcols, meta=None):
        self.xs = _floats(xs)
        self.cols = tuple(map(_floats, cols))
        self.dcols = tuple(map(_floats, dcols))
        if len(self.cols) != len(self.dcols):
            raise ValueError(f"{len(self.cols)} value columns but {len(self.dcols)} derivative columns")
        if any(len(c) != len(self.xs) for c in self.cols + self.dcols):
            raise ValueError(f"every column needs one value per knot ({len(self.xs)})")
        if len(self.xs) < 2:
            raise ValueError("trajectory needs at least two grid points")
        if not all(map(operator.gt, self.xs, self.xs[1:])):
            raise ValueError("trajectory grid must be strictly decreasing")
        self.meta = dict(meta or {})

    def domain(self):
        return self.xs[-1], self.xs[0]

    def __call__(self, x):
        """Values at one scalar x, as a tuple of floats."""
        x = float(x)
        xs = self.xs
        lo, hi = xs[-1], xs[0]
        if not (lo - 1e-15 * abs(lo) <= x <= hi + 1e-15 * hi):  # False for NaN too
            raise DomainError(f"evaluation outside trajectory domain [{lo}, {hi}]")
        # the knots >= x lead the descending grid; clip to an interval
        i1 = min(max(bisect.bisect_right(xs, -x, key=operator.neg), 1), len(xs) - 1) - 1
        i0 = i1 + 1  # i1 is the left knot (larger x), i0 the right one
        x0 = xs[i0]
        h = xs[i1] - x0
        u = (x - x0) / h
        u2, u3 = u * u, u * u * u
        h00 = 2 * u3 - 3 * u2 + 1
        h10 = u3 - 2 * u2 + u
        h01 = -2 * u3 + 3 * u2
        h11 = u3 - u2
        return tuple([
            h00 * c[i0] + h10 * h * d[i0] + h01 * c[i1] + h11 * h * d[i1]
            for c, d in zip(self.cols, self.dcols)
        ])

    def slice(self, cols):
        """The components ``cols`` on the same, already checked, grid."""
        part = copy.copy(self)
        part.cols = tuple(self.cols[k] for k in cols)
        part.dcols = tuple(self.dcols[k] for k in cols)
        part.meta = dict(self.meta)
        return part


def _floats(values):
    """``values`` as an ``array('d')``; an ``array('d')`` passes through uncopied."""
    return values if isinstance(values, array) and values.typecode == "d" else array("d", values)


def solve(ivp: IVP) -> Trajectory:
    """Integrate from x_start down to x_end with local error <= tolerance."""
    if not isinstance(ivp.system, (ReducedSystem, DifferenceSystem)):
        raise TypeError(f"cannot integrate {type(ivp.system).__name__}")
    atol = [float(ivp.atol)] * ivp.system.dimension
    if isinstance(ivp.system, DifferenceSystem):
        atol[2:] = [0.0, 0.0]  # the gap keeps its relative accuracy at any size

    logsub = ivp.use_log_substitution()
    t0 = math.log(ivp.x_start) if logsub else ivp.x_start
    t1 = math.log(ivp.x_end) if logsub else ivp.x_end

    ts, cols, dcols, n_steps, n_rejected, max_err = _kernel(ivp.system, logsub)(
        t0, t1, tuple(float(v) for v in ivp.y0), ivp.rtol, atol, ivp.max_steps)

    xs = array("d", map(math.exp, ts)) if logsub else ts  # the stage points
    xs[0], xs[-1] = ivp.x_start, ivp.x_end  # guard endpoint rounding
    if logsub:  # store derivatives with respect to x in either case
        dcols = [array("d", map(operator.truediv, c, xs)) for c in dcols]
    meta = {
        "rtol": ivp.rtol,
        "atol": min(atol),
        "n_steps": n_steps,
        "n_rejected": n_rejected,
        "max_error_ratio": max_err,
        "log_substitution": logsub,
    }
    return Trajectory(xs, cols, dcols, meta)


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
    _check_finite("initial gap eps0", eps0)
    try:
        traj = solve(replace(ivp, system=difference_system(ivp.system), y0=(*ivp.y0, *eps0)))
    except AdaptedChartError as err:
        point = getattr(err.__cause__, "point", None)
        singular = point and neighbour_singularity(ivp.system, point)
        if not singular:
            raise
        raise AdaptedChartError(f"the neighbour y + z is singular: {singular}",
                                last_x=err.last_x) from singular
    return traj.slice([0, 1]), traj.slice([2, 3])


def _kernel(system, logsub):
    """``dopri5(t, t1, y, rtol, atol, max_steps)``, the whole integration from t down to t1.

    ``IVP`` requires x_start > x_end > 0, so t1 < t in x and in log x: h is
    never positive, and each comparison is written with its sign known
    (``while t > t1``, ``-h`` for the step's size).  It returns
    (ts, cols, dcols, n_steps, n_rejected, max_err): the accepted points, and
    one ``array('d')`` per component of the values and of the derivatives in
    t there.  The code object is cached by its source and the system's
    provenance, which names it in a profile (``dopri5 rotating``); each
    system gets fresh globals.

    Every stage goes through ``_stage_lines``, which does what one
    right-hand-side evaluation needs: map t to x, evaluate, check finiteness
    and scale by x under the substitution.  One handler, around the whole
    integration, turns an EvaluationSingularityError into AdaptedChartError
    and an OverflowError or FloatingPointError into BlowUpError, at the x of
    the failing stage.  A stage evaluates by a straight-line body chosen
    from the system's class (``field.inlines_rhs``): where ``rhs`` is the
    stock ``field._rhs``, the system's own body, inlined into each stage;
    for any other ``rhs`` (a subclass override, a class-level wrapper), the
    one line ``_r = rhs(_v0, (_v1, ...))`` with results ``_r[0]``, ...
    The order of floating-point operations is fixed: a stage sum is
    0 + a_1 k_1 + a_2 k_2 + ... in tableau order before y + h*sum, zero
    coefficients left out, and the error mean adds left to right, as np.mean
    does below 8 terms.  No ratio is capped: any above 1.35e154 squares to inf.
    """
    dim = system.dimension
    comps = range(dim)

    def vec(name):
        return [f"{name}_{i}" for i in comps]

    def combine(row, i):
        terms = "".join(f" + {c!r} * k{j}_{i}" for j, c in enumerate(row, start=1) if c)
        return f"y_{i} + h * (0.0{terms})"

    def at(c):
        return "t + h" if c == 1.0 else f"t + {c!r} * h"

    def unpack(names, value):
        return "".join(f"{n}, " for n in names) + f"= {value}"

    def state(values):
        return "(" + "".join(f"{v}, " for v in values) + ")"

    if inlines_rhs(system):
        lines, results, namespace = _expr.straight_line(system.trees, system.variables)
    else:
        lines = [f"_r = rhs(_v0, {state(f'_v{i}' for i in range(1, dim + 1))})"]
        results, namespace = [f"_r[{i}]" for i in comps], {"rhs": system.rhs}

    def stage(out, t, y):
        return _stage_lines(out, t, y, logsub, lines, results)

    x_here = "exp(t)" if logsub else "t"
    # the underflow floor scales with x; in s = log x it is the factor itself
    h_floor = "STEP_UNDERFLOW_FACTOR" + ("" if logsub else " * t")
    step = []
    for s in range(1, 6):
        step += stage(vec(f"k{s + 1}"), at(_C[s]), [combine(_A[s], i) for i in comps])
    step += [f"y5_{i} = {combine(_B5, i)}" for i in comps]
    # the last stage row is _B5; its 0*k2 term (k2 is finite) adds +-0 to a
    # sum that is never -0, so the stage point is y5 itself, bit for bit
    step += stage(vec("k7"), at(_C[6]), vec("y5"))
    step += [f"y4_{i} = {combine(_B4, i)}" for i in comps]
    for i in comps:
        # y is finite (IVP checks y0; an accepted y5 is finite), so a NaN in
        # y5 carries into the scale as it does through np.maximum.  The
        # magnitudes are conditional expressions, not abs() calls: a -0.0
        # one adds to a scale that is never -0.0, and a -0.0 ratio is
        # squared, so -0.0 and NaN give what abs gives
        step += [
            f"au = y_{i} if y_{i} >= 0.0 else -y_{i}",
            f"a5 = y5_{i} if y5_{i} >= 0.0 else -y5_{i}",
            f"scale = atol_{i} + rtol * (au if au >= a5 else a5)",
            f"diff = y5_{i} - y4_{i}",
            "if diff < 0.0:",
            "    diff = -diff",
            "if scale > 0:",
            f"    r_{i} = diff / scale",
            "else:",
            f"    r_{i} = inf if diff > 0 else 0.0",
        ]
    squares = "".join(f" + r_{i} * r_{i}" for i in comps)
    step.append(f"err = sqrt((0.0{squares}) / {dim})")

    body = [unpack(vec("y"), "y"), unpack(vec("atol"), "atol")]
    body += stage(vec("k1"), "t", vec("y"))
    body += [
        f"k1 = {state(vec('k1'))}",
        f"h = -min((t - t1) / 100.0, initial_step(t, y, k1, rtol, atol, {logsub}))",
        "ts = array('d', (t,))",
        *(f"c_{i} = array('d', (y_{i},))" for i in comps),
        *(f"d_{i} = array('d', (k1_{i},))" for i in comps),
        "n_steps = n_rejected = 0",
        "max_err = 0.0",
        "while t > t1:",
    ]
    loop = [
        "used = n_steps + n_rejected",
        "if used >= max_steps:",
        f'    raise MaxStepsError("step budget exhausted", last_x={x_here})',
        "if h < t1 - t:",
        "    h = t1 - t",
        f"h_floor = {h_floor}",
        "if -h < h_floor:",
        # a last step shorter than the floor is rounding, not stiffness:
        # the run has reached t1 (solve pins the last knot to x_end)
        "    if n_steps and t - t1 < h_floor:",
        "        break",
        f'    raise StiffnessError("step size underflow", last_x={x_here})',
        # progress projection: creeping toward a singular point can hold h
        # above the underflow floor while never finishing; give up once even
        # 8x the remaining budget cannot cover the remaining span
        "if used % 64 == 0 and used > 256:",
        "    if -h * 8 * (max_steps - used) < t - t1:",
        "        raise StiffnessError(",
        '            "step size collapsed: projected step count exceeds the budget",',
        f"            last_x={x_here},",
        "        )",
        *step,
        "if err <= 1.0:",
        "    t = t + h",
        *(f"    y_{i} = y5_{i}" for i in comps),
        *(f"    k1_{i} = k7_{i}  # FSAL" for i in comps),
        "    ts.append(t)",
        *(f"    c_{i}.append(y_{i})" for i in comps),
        *(f"    d_{i}.append(k1_{i})" for i in comps),
        "    n_steps += 1",
        "    max_err = max(max_err, err)",
        "    factor = 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * err ** -0.2))",
        "else:",
        "    n_rejected += 1",
        "    factor = max(0.1, 0.9 * err ** -0.2)",
        "h *= factor",
    ]
    body += [f"    {line}" for line in loop]
    body.append(f"return ts, {state(vec('c'))}, {state(vec('d'))}, n_steps, n_rejected, max_err")
    body = ["try:", *(f"    {line}" for line in body),  # every stage sets x first
            "except EvaluationSingularityError as exc:",
            "    raise AdaptedChartError(str(exc), last_x=x) from exc",
            "except (OverflowError, FloatingPointError) as exc:",
            '    raise BlowUpError("right-hand side overflows the float range", last_x=x) from exc']
    source = "def dopri5(t, t1, y, rtol, atol, max_steps):\n" + "".join(
        f"    {line}\n" for line in body)
    namespace.update({
        "array": array, "exp": math.exp, "sqrt": math.sqrt, "inf": math.inf,
        "initial_step": _initial_step, "STEP_UNDERFLOW_FACTOR": STEP_UNDERFLOW_FACTOR,
        "EvaluationSingularityError": EvaluationSingularityError,
        "AdaptedChartError": AdaptedChartError, "BlowUpError": BlowUpError,
        "MaxStepsError": MaxStepsError, "StiffnessError": StiffnessError,
    })
    return _expr.generated_function(source, f"dopri5 {system.provenance}", namespace)


def _stage_lines(out, t, y, logsub, lines, results):
    """Kernel lines setting the names ``out`` to the right-hand side at (t, y).

    ``y`` holds one source expression per component.  The stage sets x
    first, for the kernel's failure handler, binds x and the state to the
    body's inputs ``_v0``, ``_v1``, ..., runs the straight-line ``lines`` in
    place and reads each value from its name in ``results``.  The values are
    Python floats and enter the stage sums as they are.
    """
    return [
        f"x = exp({t})" if logsub else f"x = {t}",
        "_v0 = x", *(f"_v{i} = {v}" for i, v in enumerate(y, start=1)),
        *lines, *(f"{k} = {r}" for k, r in zip(out, results)),
        # v - v is 0.0 for a finite v and NaN for an infinite or NaN one
        f"if {' + '.join(f'({k} - {k})' for k in out)} != 0.0:",
        '    raise BlowUpError("non-finite right-hand side", last_x=x)',
    ] + ([f"{k} = {k} * x" for k in out] if logsub else [])


def _check_finite(name, values):
    for k, v in enumerate(values, start=1):
        if not math.isfinite(v):
            raise ValueError(f"{name} component {k} is not finite: {v}")


def _initial_step(t0, y, k1, rtol, atol, logsub):
    scale = [a + rtol * abs(v) for a, v in zip(atol, y)]
    kept = [(v / s, d / s) for v, d, s in zip(y, k1, scale) if s > 0]
    if not kept:
        return 1e-6 if logsub else abs(t0) * 1e-6
    # the mean squares add left to right, as np.mean adds fewer than 8 terms
    # (builtin sum() compensates from Python 3.12 on)
    s0 = s1 = 0.0
    for v, d in kept:
        s0, s1 = s0 + v * v, s1 + d * d
    d0, d1 = math.sqrt(s0 / len(kept)), math.sqrt(s1 / len(kept))
    if d0 < 1e-5 or d1 < 1e-5 or not math.isfinite(d0 / max(d1, 1e-300)):
        return 1e-6 if logsub else abs(t0) * 1e-6
    return 0.01 * d0 / d1

