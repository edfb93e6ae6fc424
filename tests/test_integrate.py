"""Adaptive integration: closed-form oracles, dense output, error taxonomy."""

import copy
import itertools
import math
from array import array
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interlace import integrate, report
from interlace.errors import (
    AdaptedChartError,
    BlowUpError,
    DomainError,
    EvaluationSingularityError,
    MaxStepsError,
    StiffnessError,
)
from interlace.expr import straight_line
from interlace.field import DifferenceSystem, ReducedSystem, difference_system, inlines_rhs
from interlace.integrate import IVP, solve, solve_pair
from interlace.registry import ENTRIES
from interlace.series import euler_series

from _dense_reference import NumpyTrajectory


def sys2(f1, f2="y2/x"):
    return ReducedSystem.from_text(f1, f2)


EULER = sys2("(y1-x)/x^2", "(y2-2*x)/(2*x^2)")


def last(traj):
    return [c[-1] for c in traj.cols]


def J_euler(x, n):
    from fractions import Fraction

    return float(euler_series(n).eval(Fraction(x)))


def test_linear_system_reproduces_the_line():
    # y' = y/x keeps y = x exactly
    traj = solve(IVP(sys2("y1/x"), 1.0, 0.25, (1.0, 1.0)))
    assert last(traj) == pytest.approx([0.25, 0.25], rel=1e-9)


def test_reduced_radial_field_integrates_to_straight_lines():
    from interlace.field import VectorField3, chart_reduce

    reduced = chart_reduce(VectorField3.from_text("radial", "x", "y", "z"))
    c1, c2 = 0.7, -1.3
    traj = solve(IVP(reduced, 1.0, 0.2, (c1, c2)))
    for x in (0.8, 0.5, 0.2):
        assert traj(x) == pytest.approx([c1 * x, c2 * x], rel=1e-9)


def test_euler_solution_approaches_the_divergent_jet():
    # high-precision oracle for the solution through (0.2, J_6 E(0.2)) gives
    # |y(0.05) - J_10 E(0.05)| = 4.9836e-08 (series tail + flat family offset)
    traj = solve(IVP(EULER, 0.2, 0.05, (J_euler(0.2, 6), 0.0)))
    gap = abs(traj.cols[0][-1] - J_euler(0.05, 10))
    assert gap == pytest.approx(4.9836e-08, rel=1e-3)


def test_rotating_system_radius_tracks_closed_form():
    # gap field (a z + b z_perp)/x^2: radius r0 exp(a (1/x0 - 1/x))
    rot = sys2("(y1/10 - y2)/x^2", "(y2/10 + y1)/x^2")
    traj = solve(IVP(rot, 1.0, 0.1, (1.0, 0.0)))
    r = float(np.hypot(*last(traj)))
    want = math.exp(0.1 * (1.0 - 10.0))
    assert r == pytest.approx(want, rel=1e-6)


def test_halving_tolerance_does_not_worsen_oracle_error():
    cases = [
        (sys2("y1/x"), 1.0, 0.25, (1.0, 1.0), lambda x: x),
        (EULER, 0.5, 0.1, (1.0, 2.0), None),
        (
            sys2("(y1/10 - y2)/x^2", "(y2/10 + y1)/x^2"),
            1.0,
            0.2,
            (1.0, 0.0),
            None,
        ),
    ]
    for system, x0, x1, y0, exact in cases:
        errs = []
        ref = None
        for rtol in (1e-6, 1e-8, 1e-10):
            traj = solve(IVP(system, x0, x1, y0, rtol=rtol, atol=rtol * 1e-2))
            if exact is not None:
                err = abs(traj.cols[0][-1] - exact(x1))
            else:
                if ref is None:
                    ref = solve(IVP(system, x0, x1, y0, rtol=1e-12, atol=1e-14))
                err = float(np.max(np.abs(np.subtract(last(traj), last(ref)))))
            errs.append(err)
        assert errs[1] <= errs[0] + 1e-15
        assert errs[2] <= errs[1] + 1e-15


def test_dense_output_matches_knots_exactly_and_midpoints_closely():
    ivp = IVP(sys2("y1/x"), 1.0, 0.25, (1.0, 1.0), rtol=1e-8, atol=1e-10)
    traj = solve(ivp)
    for i in (0, len(traj.xs) // 2, len(traj.xs) - 1):
        assert traj(traj.xs[i])[0] == traj.cols[0][i]
    mids = [(a + b) / 2 for a, b in zip(traj.xs, traj.xs[1:])]
    assert max(abs(traj(m)[0] - m) for m in mids) <= 10 * 1e-8


def test_pair_gap_follows_flat_closed_form():
    gamma, eps = solve_pair(IVP(EULER, 0.5, 0.05, (1.0, 2.0)), (0.1, 0.0))
    for x in (0.1, 0.05):
        got = float(np.hypot(*eps(x)))
        want = 0.1 * math.exp(2 - 1 / x)
        assert got == pytest.approx(want, rel=1e-6)
    assert all(v == 0.0 for v in eps.cols[1])


def test_flat_gap_keeps_relative_accuracy_down_to_1e_200():
    # the closed form 0.1 exp(2 - 1/x) is 1.4e-201 at x = 1/462.2
    x_end = 1 / 462.2
    gamma, eps = solve_pair(IVP(EULER, 0.5, x_end, (1.0, 2.0)), (0.1, 0.0))
    assert eps.cols[0][-1] < 2e-200
    for x in (0.1, 0.01, 0.005, x_end):
        want = 0.1 * math.exp(2 - 1 / x)
        assert float(eps(x)[0]) == pytest.approx(want, rel=1e-6)
    assert all(v == 0.0 for v in eps.cols[1])


def test_pair_with_zero_gap_stays_exactly_zero():
    gamma, eps = solve_pair(IVP(EULER, 0.5, 0.1, (1.0, 2.0)), (0.0, 0.0))
    assert all(v == 0.0 for c in eps.cols for v in c)


def test_the_gap_components_of_a_difference_system_get_a_zero_floor():
    # the floor comes from the system's type: a ReducedSystem keeps ivp.atol,
    # and a DifferenceSystem handed straight to solve integrates as solve_pair does
    ivp = IVP(EULER, 0.5, 0.1, (1.0, 2.0), atol=1e-9)
    assert solve(ivp).meta["atol"] == 1e-9
    traj = solve(replace(ivp, system=difference_system(EULER), y0=(1.0, 2.0, 1e-3, 0.0)))
    gamma, eps = solve_pair(ivp, (1e-3, 0.0))
    assert traj.meta["atol"] == gamma.meta["atol"] == 0.0
    assert traj.xs == gamma.xs and traj.cols == gamma.cols + eps.cols


def test_pair_of_decoupled_linear_equations():
    lin = sys2("y1", "y2")
    gamma, eps = solve_pair(IVP(lin, 1.0, 0.3, (0.5, 0.5)), (1.0, 0.0))
    want = math.exp(0.3 - 1.0)
    assert eps(0.3)[0] == pytest.approx(want, rel=1e-9)
    assert eps(0.3)[1] == 0.0


def test_pair_route_consistent_with_trajectory_subtraction():
    # on a linear problem, where subtraction is benign
    lin = sys2("y1", "y2")
    base = IVP(lin, 1.0, 0.3, (0.5, 0.25))
    gamma, eps = solve_pair(base, (0.25, 0.125))
    shifted = solve(IVP(lin, 1.0, 0.3, (0.75, 0.375)))
    plain = solve(IVP(lin, 1.0, 0.3, (0.5, 0.25)))
    for x in (0.8, 0.5, 0.3):
        direct = np.subtract(shifted(x), plain(x))
        joint = eps(x)
        assert np.max(np.abs(direct - joint)) < 1e-10


def test_log_substitution_flag_and_auto_threshold():
    assert not IVP(EULER, 0.5, 0.02, (1, 1)).use_log_substitution()
    assert IVP(EULER, 0.5, 0.004, (1, 1)).use_log_substitution()
    assert IVP(EULER, 0.5, 0.3, (1, 1), log_substitution=True).use_log_substitution()

    a = solve(IVP(sys2("y1/x"), 1.0, 0.25, (1.0, 1.0), log_substitution=True))
    b = solve(IVP(sys2("y1/x"), 1.0, 0.25, (1.0, 1.0), log_substitution=False))
    assert a.cols[0][-1] == pytest.approx(b.cols[0][-1], rel=1e-9)
    assert a.meta["log_substitution"] and not b.meta["log_substitution"]


def test_trajectory_grid_is_strictly_decreasing():
    traj = solve(IVP(EULER, 0.5, 0.1, (1.0, 2.0)))
    assert np.all(np.diff(traj.xs) < 0)
    assert traj.domain() == (0.1, 0.5)


def test_csv_dump_format(tmp_path):
    traj = solve(IVP(sys2("y1/x"), 1.0, 0.5, (1.0, 1.0)))
    path = report.write_csv(tmp_path / "trajectory.csv", (traj.xs, *traj.cols))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,y1,y2"
    first = lines[1].split(",")
    assert len(first) == 3
    assert float(first[0]) == 1.0
    # 17 significant digits survive a round trip
    assert all(float(tok) == v for tok, v in zip(first, [1.0, 1.0, 1.0]))


def test_singular_denominator_is_reported_as_stiffness():
    # the solver creeps toward the pole at x = 0.3; the progress-rate
    # detector surfaces that as stiffness with the stall location
    bad = sys2("y1/(x - 3/10)^2")
    with pytest.raises((StiffnessError, AdaptedChartError)) as err:
        solve(IVP(bad, 0.5, 0.2, (1.0, 1.0)))
    assert err.value.last_x is not None
    assert 0.29 <= err.value.last_x <= 0.5


def test_blow_up_is_reported():
    # downward integration of y' = -y^2/x^2 from y(1/2) = 5 explodes at
    # x = 5/11 (closed form y = 1/(11/5 - 1/x))
    with pytest.raises((BlowUpError, StiffnessError)) as err:
        solve(IVP(sys2("-y1^2/x^2", "0"), 0.5, 0.2, (5.0, 0.0)))
    assert err.value.last_x == pytest.approx(5 / 11, abs=0.01)


def test_step_budget_is_enforced():
    with pytest.raises(MaxStepsError):
        solve(IVP(EULER, 0.5, 0.02, (1.0, 2.0), max_steps=25))


def test_domain_errors_on_dense_eval():
    traj = solve(IVP(EULER, 0.5, 0.1, (1.0, 2.0)))
    with pytest.raises(DomainError):
        traj(0.05)


def test_ivp_validation():
    with pytest.raises(ValueError):
        IVP(EULER, 0.1, 0.5, (1.0, 2.0))  # increasing span
    with pytest.raises(ValueError):
        IVP(EULER, 0.5, 0.1, (1.0,))  # dimension mismatch
    with pytest.raises(ValueError):
        IVP(EULER, 0.5, 0.1, (1.0, 2.0), rtol=0.0)


# -- the scalar step loop against the numpy loop it replaced -----------------
#
# _reference_solve, _reference_dopri5 and _reference_initial_step are the
# numpy implementation of ``solve``'s right-hand-side wrapper, step loop and
# first step size, unchanged apart from names, comments, the rule that a
# remaining span below the underflow floor ends the run, log-substituted
# knots taken with math.exp (np.exp may round differently, depending on the
# CPU), and the state handed to ``rhs`` as Python floats, as ``solve``
# hands it (the system's generated function computes on whatever numbers it
# is given, numpy scalars included); _reference_solve returns the numpy
# arrays that a Trajectory was built from before.  The generated loop must
# reproduce them bit for bit.


def _reference_solve(ivp):
    rhs = ivp.system.rhs
    dim = ivp.system.dimension
    atol = np.full(dim, ivp.atol)
    if isinstance(ivp.system, DifferenceSystem):
        atol[2:] = 0.0

    logsub = ivp.use_log_substitution()

    def f(t, u):
        x = math.exp(t) if logsub else t
        try:
            vals = rhs(x, u.tolist())
        except EvaluationSingularityError as err:
            raise AdaptedChartError(str(err), last_x=x) from err
        except (OverflowError, FloatingPointError) as err:
            raise BlowUpError("right-hand side overflows the float range", last_x=x) from err
        out = np.asarray(vals, dtype=float)
        if not np.all(np.isfinite(out)):
            raise BlowUpError("non-finite right-hand side", last_x=x)
        return out * x if logsub else out

    t0 = math.log(ivp.x_start) if logsub else ivp.x_start
    t1 = math.log(ivp.x_end) if logsub else ivp.x_end

    ts, us, dus, stats = _reference_dopri5(f, t0, t1, np.asarray(ivp.y0, dtype=float),
                                           ivp.rtol, atol, ivp.max_steps, logsub)

    xs = np.array([math.exp(t) for t in ts]) if logsub else ts  # as f maps the stage t
    xs[0], xs[-1] = ivp.x_start, ivp.x_end
    dys = dus / xs[:, None] if logsub else dus
    meta = {
        "rtol": ivp.rtol,
        "atol": float(np.min(atol)),
        "n_steps": stats["n_steps"],
        "n_rejected": stats["n_rejected"],
        "max_error_ratio": stats["max_err"],
        "log_substitution": logsub,
    }
    return xs, us, dys, meta


def _reference_dopri5(f, t0, t1, y0, rtol, atol, max_steps, logsub):
    _A, _B4, _B5, _C = integrate._A, integrate._B4, integrate._B5, integrate._C

    def _to_x(t, logsub):
        return math.exp(t) if logsub else t

    sign = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)
    t = t0
    y = y0.copy()
    k1 = f(t, y)
    h = sign * min(span / 100.0, _reference_initial_step(t0, y, k1, rtol, atol, logsub))

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
        h_floor = integrate.STEP_UNDERFLOW_FACTOR * (abs(x_here) if not logsub else 1.0)
        if abs(h) < h_floor:
            if n_steps and abs(t1 - t) < h_floor:
                break
            raise StiffnessError("step size underflow", last_x=x_here)
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
            k1 = ks[6]
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


def _reference_initial_step(t0, y, k1, rtol, atol, logsub):
    scale = atol + rtol * np.abs(y)
    mask = scale > 0
    if not np.any(mask):
        return 1e-6 if logsub else abs(t0) * 1e-6
    d0 = float(np.sqrt(np.mean(np.square(y[mask] / scale[mask]))))
    d1 = float(np.sqrt(np.mean(np.square(k1[mask] / scale[mask]))))
    if d0 < 1e-5 or d1 < 1e-5 or not math.isfinite(d0 / max(d1, 1e-300)):
        return 1e-6 if logsub else abs(t0) * 1e-6
    return 0.01 * d0 / d1


def _assert_same_trajectory(got, want, cols=slice(None)):
    """``got`` holds the bytes of the reference arrays ``want``, or of their ``cols``."""
    xs, ys, dys, meta = want
    for name, a, b in (("xs", np.array(got.xs), xs),
                       ("cols", np.array(got.cols).T, ys[:, cols]),
                       ("dcols", np.array(got.dcols).T, dys[:, cols])):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.meta == meta


def _registry_ivp(name, **overrides):
    c = ENTRIES[name].config
    system = ReducedSystem.from_text(c.f1, c.f2)
    return IVP(system, c.x_start, c.x_end, tuple(c.y0), **overrides)


@pytest.mark.parametrize("name", ["euler_pair", "rotating"])
@pytest.mark.parametrize("eps0", ["registry", (0.3, -0.2)])
def test_scalar_pair_loop_matches_numpy_reference_bit_for_bit(name, eps0):
    ivp = _registry_ivp(name, rtol=1e-12, atol=1e-14)
    if eps0 == "registry":
        eps0 = tuple(ENTRIES[name].config.eps0)
    gamma, eps = solve_pair(ivp, eps0)
    pair_ivp = replace(ivp, system=difference_system(ivp.system), y0=ivp.y0 + eps0)
    ref = _reference_solve(pair_ivp)
    _assert_same_trajectory(gamma, ref, [0, 1])
    _assert_same_trajectory(eps, ref, [2, 3])


@pytest.mark.parametrize("log_substitution", [True, False, None])
def test_scalar_loop_matches_numpy_reference_on_log_demo(log_substitution):
    ivp = _registry_ivp("log_demo", log_substitution=log_substitution)
    _assert_same_trajectory(solve(ivp), _reference_solve(ivp))


def _failure(run, ivp):
    with pytest.raises(Exception) as err:
        run(ivp)
    return type(err.value), str(err.value), err.value.last_x


@pytest.mark.parametrize(
    "f1, x_start, x_end, y0, kwargs, expected",
    # explicit ids keep each case's name when a case is added or removed
    [
        pytest.param("y1/(x - 3/10)^2", 0.5, 0.2, (1.0, 1.0), {}, StiffnessError,
                     id="y1/(x - 3/10)^2-0.5-0.2-y00-kwargs0-StiffnessError"),
        pytest.param("y1/x^3", 1.0, 0.001, (1.0, 1.0), {"max_steps": 20000}, StiffnessError,
                     id="y1/x^3-1.0-0.001-y02-kwargs2-StiffnessError"),
        pytest.param("(y1-x)/x^2", 0.5, 0.02, (1.0, 2.0), {"max_steps": 25}, MaxStepsError,
                     id="(y1-x)/x^2-0.5-0.02-y03-kwargs3-MaxStepsError"),
        pytest.param("-y1/x^2", 1.0, 0.001, (1e300, 1.0), {}, BlowUpError,
                     id="-y1/x^2-1.0-0.001-y04-kwargs4-BlowUpError"),
        pytest.param("y1", 1.0, 0.999999999999999, (1.0, 1.0), {}, StiffnessError,
                     id="whole-span-below-the-underflow-floor"),
    ],
)
@pytest.mark.filterwarnings("ignore:overflow encountered")  # numpy reference stages overflow
def test_scalar_loop_fails_like_numpy_reference(f1, x_start, x_end, y0, kwargs, expected):
    ivp = IVP(sys2(f1), x_start, x_end, y0, **kwargs)
    got = _failure(solve, ivp)
    assert got[0] is expected
    assert got == _failure(_reference_solve, ivp)


def test_last_step_below_the_underflow_floor_ends_like_numpy_reference():
    # the last accepted knot lands 2e-18 above x_end, under the 1e-16 floor
    ivp = IVP(sys2("y1^2"), 1.0, 0.01, (1.0, 1.0))
    traj = solve(ivp)
    _assert_same_trajectory(traj, _reference_solve(ivp))
    assert traj.xs[-1] == 0.01
    assert last(traj) == pytest.approx([1 / 1.99, 0.01], rel=1e-8)


def _pair_ivp(ivp, eps0):
    """The four-dimensional IVP that ``solve_pair(ivp, eps0)`` integrates."""
    return replace(ivp, system=difference_system(ivp.system), y0=tuple(ivp.y0) + tuple(eps0))


# each way the step loop gives up: f1 (f2 = y2/x), x_start, x_end, y0, IVP
# keywords, the error type and the start of its message
_FAILURE_PATHS = {
    "budget": ("(y1-x)/x^2", 0.5, 0.02, (1.0, 2.0), {"max_steps": 25},
               MaxStepsError, "step budget exhausted"),
    "collapsed": ("y1/x^3", 1.0, 0.001, (1.0, 1.0), {"max_steps": 20000},
                  StiffnessError, "step size collapsed"),
    "underflow": ("y1", 1.0, 0.999999999999999, (1.0, 1.0), {},
                  StiffnessError, "step size underflow"),
    "blow-up": ("-y1/x^2", 1.0, 0.001, (1e300, 1.0), {},
                BlowUpError, "non-finite right-hand side"),
}


@pytest.mark.parametrize("path", list(_FAILURE_PATHS))
@pytest.mark.parametrize("log_substitution", [True, False])
@pytest.mark.parametrize("dimension", [2, 4])
@pytest.mark.filterwarnings("ignore:overflow encountered")  # numpy reference stages overflow
def test_failure_paths_match_numpy_reference(path, log_substitution, dimension):
    # in the plane through solve, and in four dimensions through solve_pair
    f1, x_start, x_end, y0, kwargs, expected, message = _FAILURE_PATHS[path]
    ivp = IVP(sys2(f1), x_start, x_end, y0, log_substitution=log_substitution, **kwargs)
    if dimension == 2:
        got, reference_ivp = _failure(solve, ivp), ivp
    else:
        eps0 = (1e-3, 0.0)
        got, reference_ivp = _failure(lambda i: solve_pair(i, eps0), ivp), _pair_ivp(ivp, eps0)
    assert got[0] is expected and got[1].startswith(message)
    assert got == _failure(_reference_solve, reference_ivp)


def _stalling_copy(system, after):
    """``system`` as a subclass whose right-hand side is 1e200 from call ``after`` on."""
    calls = itertools.count(1)

    class Stalling(type(system)):
        def rhs(self, x, y):
            out = super().rhs(x, y)
            return out if next(calls) < after else (1e200,) * len(out)

    return Stalling(**{f.name: getattr(system, f.name) for f in fields(system)})


@pytest.mark.parametrize("dimension", [2, 4])
@pytest.mark.parametrize("log_substitution", [True, False])
def test_step_size_underflow_mid_run_matches_numpy_reference(dimension, log_substitution):
    # from call 100 on every step is rejected, so h shrinks tenfold per
    # attempt and falls below the floor well inside the run
    ivp = replace(_registry_ivp("rotating", log_substitution=log_substitution), y0=(1.0, 0.5))
    if dimension == 4:
        ivp = _pair_ivp(ivp, (0.1, 0.0))
    got = _failure(solve, replace(ivp, system=_stalling_copy(ivp.system, 100)))
    want = _failure(_reference_solve, replace(ivp, system=_stalling_copy(ivp.system, 100)))
    assert got[0] is StiffnessError and got[1].startswith("step size underflow")
    assert got == want
    assert ivp.x_end < got[2] < ivp.x_start


def test_a_step_with_error_ratio_exactly_one_is_accepted():
    # k1 .. k6 are zero and k7 = (1, 1): y5 = y = 0 and y4 = h * (1/40), and
    # the first step from x = 1 with y = 0 is h = -1e-6, so an absolute
    # tolerance of |y4| makes each component's error ratio exactly 1
    h = -1e-6
    tol = abs(h * (0.0 + integrate._B4[6] * 1.0))

    def scripted():
        calls = itertools.count(1)

        class Scripted(ReducedSystem):
            def rhs(self, x, y):
                return (1.0, 1.0) if next(calls) == 7 else (0.0, 0.0)

        return Scripted(EULER.f1, EULER.f2)

    ivp = IVP(scripted(), 1.0, 0.5, (0.0, 0.0), atol=tol)
    traj = solve(ivp)
    assert traj.xs[1] == 1.0 + h
    assert traj.meta["max_error_ratio"] == 1.0 and traj.meta["n_rejected"] == 0
    _assert_same_trajectory(traj, _reference_solve(replace(ivp, system=scripted())))


def test_a_negative_error_at_a_zero_scale_rejects_the_step():
    # k1 .. k6 are zero and k7 = (-1, 0): y5 = y, and y4 - y5 = h * (-1/40) > 0
    # in the first component, where y = 0 and atol = 0 give a zero scale; the
    # error y5 - y4 is negative there, and only its magnitude rejects the step
    calls = itertools.count(1)

    class Scripted(ReducedSystem):
        def rhs(self, x, y):
            return (-1.0, 0.0) if next(calls) == 7 else (0.0, 0.0)

    traj = solve(IVP(Scripted(EULER.f1, EULER.f2), 1.0, 0.5, (0.0, 1.0), rtol=1e-6, atol=0.0))
    assert traj.meta["n_rejected"] == 1 and traj.meta["n_steps"] == 11


@pytest.mark.parametrize("s", [1e200, 1e300])
@pytest.mark.filterwarnings("ignore:overflow encountered")  # the reference squares the ratios
def test_an_error_ratio_too_large_to_square_rejects_the_step_like_numpy_reference(s):
    # as above, but k7 = (s, s): the first step's error ratios are 2.5e4 * s,
    # beyond 1.35e154, so their squares are inf, and beyond 1e300 when s = 1e300
    def scripted():
        calls = itertools.count(1)

        class Scripted(ReducedSystem):
            def rhs(self, x, y):
                return (s, s) if next(calls) == 7 else (0.0, 0.0)

        return Scripted(EULER.f1, EULER.f2)

    ivp = IVP(scripted(), 1.0, 0.5, (0.0, 0.0), atol=1e-12)
    traj = solve(ivp)
    assert traj.meta["n_rejected"] == 1 and traj.xs[1] == 1.0 - 1e-7
    _assert_same_trajectory(traj, _reference_solve(replace(ivp, system=scripted())))


_COMPONENT = st.one_of(st.just(0.0), st.floats(-1e12, 1e12, allow_nan=False),
                       st.floats(-1e-150, 1e-150, allow_nan=False))


@st.composite
def _initial_step_cases(draw):
    dim = draw(st.sampled_from([2, 4]))
    vec = st.lists(_COMPONENT, min_size=dim, max_size=dim)
    # zero absolute tolerances with zero components give zero scales
    atol = draw(st.lists(st.sampled_from([0.0, 1e-14, 1e-12, 1e-6]), min_size=dim, max_size=dim))
    return (draw(st.sampled_from([1.0, 0.5, -2.3])), draw(vec), draw(vec),
            draw(st.sampled_from([1e-12, 1e-10, 1e-6, 0.1])), atol, draw(st.booleans()))


@given(_initial_step_cases())
@settings(max_examples=1000, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered")  # numpy reference on huge ratios
def test_initial_step_matches_numpy_reference_bit_for_bit(case):
    t0, y, k1, rtol, atol, logsub = case
    got = integrate._initial_step(t0, tuple(y), tuple(k1), rtol, atol, logsub)
    want = _reference_initial_step(t0, np.array(y), np.array(k1), rtol, np.array(atol), logsub)
    assert type(got) is float and got.hex() == float(want).hex()


def test_log_substituted_knots_are_the_stage_points(monkeypatch):
    # every interior knot is an x at which the kernel evaluated the system
    seen = set()
    original = ReducedSystem.rhs

    def recording(self, x, y):
        seen.add(x)
        return original(self, x, y)

    monkeypatch.setattr(ReducedSystem, "rhs", recording)
    for name in ("euler_pair", "rotating"):
        seen.clear()
        traj = solve(_registry_ivp(name, rtol=1e-12, atol=1e-14, log_substitution=True))
        assert traj.meta["log_substitution"]
        assert [x for x in traj.xs[1:-1] if x not in seen] == [], name


def test_dense_output_rejects_nan_and_infinities():
    traj = solve(IVP(EULER, 0.5, 0.1, (1.0, 2.0)))
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            traj(x)


# -- the generated step kernel against the numpy reference -------------------


@pytest.mark.parametrize("name", ["euler_pair", "rotating"])
@pytest.mark.parametrize("log_substitution", [True, False])
def test_planar_kernel_matches_numpy_reference(name, log_substitution):
    ivp = _registry_ivp(name, rtol=1e-10, atol=1e-12, log_substitution=log_substitution)
    ivp = replace(ivp, y0=(1.0, 0.5))
    _assert_same_trajectory(solve(ivp), _reference_solve(ivp))


def _failing_copy(system, call, failure):
    """``system`` as a subclass whose ``call``-th right-hand side fails."""
    calls = iter(range(1, call + 1))

    class Failing(type(system)):
        def rhs(self, x, y):
            out = super().rhs(x, y)
            if next(calls, None) != call:
                return out
            if failure == "singular":
                raise EvaluationSingularityError("y1/(x - x)", {"x": x})
            if failure in ("inf", "nan"):
                return (out[0], float(failure), *out[2:])
            raise failure(f"stub {failure.__name__}")

    return Failing(**{f.name: getattr(system, f.name) for f in fields(system)})


@pytest.mark.parametrize("dimension", [2, 4])
@pytest.mark.parametrize("log_substitution", [True, False])
@pytest.mark.parametrize("failure", ["singular", OverflowError, FloatingPointError, "inf", "nan"])
@pytest.mark.parametrize("call", [1, 2, 3, 4, 5, 6, 7, 100])
@pytest.mark.filterwarnings("ignore:invalid value encountered")  # numpy reference on a NaN stage
def test_stage_failures_match_numpy_reference(dimension, log_substitution, failure, call):
    # calls 1..7 are k1 and the six stages of the first step; call 100 is mid-run
    ivp = replace(_registry_ivp("rotating", log_substitution=log_substitution), y0=(1.0, 0.5))
    if dimension == 4:
        ivp = replace(ivp, system=difference_system(ivp.system), y0=ivp.y0 + (0.1, 0.0))
    got = _failure(solve, replace(ivp, system=_failing_copy(ivp.system, call, failure)))
    want = _failure(_reference_solve, replace(ivp, system=_failing_copy(ivp.system, call, failure)))
    assert got == want
    assert got[0] is (AdaptedChartError if failure == "singular" else BlowUpError)


def _pass_through(system):
    """``system`` as a subclass whose ``rhs`` only forwards, so the kernel calls it per stage."""

    class PassThrough(type(system)):
        def rhs(self, x, y):
            return super().rhs(x, y)

    return PassThrough(**{f.name: getattr(system, f.name) for f in fields(system)})


# f1 (f2 = y2/x), x_start, x_end, y0, and the error the inlined stage raises
_INLINE_FAILURES = {
    "zero-divisor": ("y1/(x - 1)", 1.0, 0.5, (1.0, 1.0), AdaptedChartError,
                     "division by zero in 'y1/(x - 1)' at {'x': 1.0"),
    "overflow": ("y1*x^-400", 1.0, 0.1, (0.0, 1.0), BlowUpError,
                 "right-hand side overflows the float range"),
    "non-finite": ("y1*(x^-200*x^-200)", 1.0, 0.1, (0.0, 1.0), BlowUpError,
                   "non-finite right-hand side"),
}


@pytest.mark.parametrize("failure", list(_INLINE_FAILURES))
@pytest.mark.parametrize("log_substitution", [True, False])
@pytest.mark.parametrize("dimension", [2, 4])
def test_inlined_stage_fails_as_the_called_stage(failure, log_substitution, dimension):
    # the stock rhs is inlined into the kernel; a pass-through subclass is called
    f1, x_start, x_end, y0, expected, message = _INLINE_FAILURES[failure]
    ivp = IVP(sys2(f1), x_start, x_end, y0, log_substitution=log_substitution)
    assert inlines_rhs(ivp.system)
    assert not inlines_rhs(_pass_through(ivp.system))
    if dimension == 2:
        got, called = _failure(solve, ivp), ivp
    else:
        eps0 = (0.0, 1e-3)
        got, called = _failure(lambda i: solve_pair(i, eps0), ivp), _pair_ivp(ivp, eps0)
    want = _failure(solve, replace(called, system=_pass_through(called.system)))
    assert got == want
    assert got[0] is expected and got[1].startswith(message)
    assert x_end < got[2] <= x_start


def _kernel_source(monkeypatch, system, logsub):
    """The source of the one function that ``_kernel(system, logsub)`` generates."""
    sources = []

    def record(source, label, namespace):
        sources.append(source)
        return generated_function(source, label, namespace)

    generated_function = integrate._expr.generated_function
    monkeypatch.setattr(integrate._expr, "generated_function", record)
    integrate._kernel(system, logsub)
    (source,) = sources
    return source


@pytest.mark.parametrize("log_substitution", [True, False])
@pytest.mark.parametrize("make", [lambda s: s, difference_system, _pass_through],
                         ids=["planar", "difference", "called"])
def test_each_kernel_has_one_failure_handler(monkeypatch, make, log_substitution):
    # every stage of every step shares the one handler around the integration
    system = make(sys2("y1/(x - 1) + y2^-2", "y2/x"))
    source = _kernel_source(monkeypatch, system, log_substitution)
    assert source.count("except EvaluationSingularityError") == 1
    assert source.count("except (OverflowError, FloatingPointError)") == 1
    # besides, only the inlined quotients' own handlers, in each of 7 stages
    quotients = 0 if make is _pass_through else sum(
        line.startswith("except ") for line in straight_line(system.trees, system.variables)[0])
    assert source.count("except ") == 7 * quotients + 2


@pytest.mark.parametrize("log_substitution", [True, False])
@pytest.mark.parametrize("make", [lambda s: s, difference_system, _pass_through],
                         ids=["planar", "difference", "called"])
def test_no_kernel_calls_abs(monkeypatch, make, log_substitution):
    # the error norm takes magnitudes by conditional expressions
    system = make(sys2("y1/(x - 1) + y2^-2", "y2/x"))
    source = _kernel_source(monkeypatch, system, log_substitution)
    assert source.startswith("def dopri5(") and "abs(" not in source


def test_only_reduced_and_difference_systems_integrate():
    class Duck:
        dimension = 2

        def rhs(self, x, y):
            return y

    with pytest.raises(TypeError, match="cannot integrate Duck"):
        solve(IVP(Duck(), 1.0, 0.5, (1.0, 1.0)))


def test_every_stage_calls_the_system_rhs(monkeypatch):
    # the benchmark's field.rhs span wraps the class attribute, so the kernel
    # must look it up: k1 once, then six stages per attempted step
    calls = [0]
    original = DifferenceSystem.rhs

    def counting(self, x, y):
        calls[0] += 1
        return original(self, x, y)

    monkeypatch.setattr(DifferenceSystem, "rhs", counting)
    total = 0
    for name in ("euler_pair", "rotating"):
        calls[0] = 0
        ivp = _registry_ivp(name, rtol=1e-12, atol=1e-14)
        gamma, _ = solve_pair(ivp, tuple(ENTRIES[name].config.eps0))
        attempted = gamma.meta["n_steps"] + gamma.meta["n_rejected"]
        assert calls[0] == 1 + 6 * attempted
        total += calls[0]
    assert total == 61628  # the pair_tight workload at seed 0


# -- the rhs contract: one call per stage, still a method on the class --------


def _same_bits(a, b):
    return (a.xs.tobytes(), [c.tobytes() for c in a.cols + a.dcols], a.meta) == (
        b.xs.tobytes(), [c.tobytes() for c in b.cols + b.dcols], b.meta)


@pytest.mark.parametrize("make", [lambda s: s, difference_system], ids=["planar", "difference"])
def test_rhs_is_the_generated_function_and_only_the_stock_one_is_inlined(monkeypatch, make):
    system = make(EULER)
    y = (0.3, -0.2, 1e-3, 2e-3)[: system.dimension]
    want = system._compiled(0.25, *y)
    assert system._compiled.__code__.co_filename == "<compile_expr>"
    assert system.rhs(0.25, y) == type(system).rhs(system, 0.25, y) == want
    assert inlines_rhs(system)
    assert not inlines_rhs(_pass_through(system))

    def wrapped(self, x, y):
        return want

    monkeypatch.setattr(type(system), "rhs", wrapped)
    assert not inlines_rhs(system)
    monkeypatch.undo()
    assert inlines_rhs(system)


@pytest.mark.parametrize("make", [lambda s: s, difference_system], ids=["planar", "difference"])
def test_subclass_override_and_class_patch_reach_the_kernel(monkeypatch, make):
    system = make(EULER)
    ivp = IVP(system, 0.5, 0.1, (1.0, 2.0, 1e-3, 0.0)[: system.dimension])
    want = solve(ivp)
    attempted = want.meta["n_steps"] + want.meta["n_rejected"]
    calls = []

    class Counting(type(system)):
        def rhs(self, x, y):
            calls.append(x)
            return super().rhs(x, y)

    sub = Counting(**{f.name: getattr(system, f.name) for f in fields(system)})
    assert _same_bits(solve(replace(ivp, system=sub)), want)
    assert len(calls) == 1 + 6 * attempted

    calls.clear()
    original = type(system).rhs

    def counting(self, x, y):
        calls.append(x)
        return original(self, x, y)

    monkeypatch.setattr(type(system), "rhs", counting)
    assert _same_bits(solve(ivp), want)
    assert len(calls) == 1 + 6 * attempted


def test_copies_of_a_system_integrate_to_the_same_bits():
    ivp = _registry_ivp("rotating", rtol=1e-12, atol=1e-14)
    pair_ivp = _pair_ivp(ivp, (0.3, -0.2))
    for base in (ivp, pair_ivp):
        want = solve(base)  # compiles, and caches, the original's function
        for system in (copy.copy(base.system), replace(base.system)):
            assert _same_bits(solve(replace(base, system=system)), want)
    gamma, eps = solve_pair(replace(ivp, system=copy.copy(ivp.system)), (0.3, -0.2))
    joint = solve(pair_ivp)
    assert _same_bits(gamma, joint.slice([0, 1])) and _same_bits(eps, joint.slice([2, 3]))


# -- scalar dense output against the numpy interpolant it replaced -----------


_VALUES = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)


@st.composite
def _dense_cases(draw):
    """A trajectory's grid and columns, and the points at which to evaluate it."""
    dim = draw(st.sampled_from([2, 4]))
    n = draw(st.integers(2, 30))
    x = draw(st.floats(1e-6, 1.0))
    xs = [x]
    for _ in range(n - 1):
        x = x + draw(st.floats(1e-6, 1.0))
        xs.append(x)
    xs.reverse()
    cols = [draw(st.lists(_VALUES, min_size=n, max_size=n)) for _ in range(2 * dim)]
    lo, hi = xs[-1], xs[0]
    points = list(xs)  # every knot
    for _ in range(draw(st.integers(1, 12))):
        i = draw(st.integers(0, n - 2))
        points.append(xs[i + 1] + draw(st.floats(0.0, 1.0)) * (xs[i] - xs[i + 1]))
    # the last floats inside the 1e-15 edge tolerance, and the first beyond it
    for edge, away in ((lo - 1e-15 * lo, 0.0), (hi + 1e-15 * hi, math.inf)):
        points += [edge, math.nextafter(edge, away)]
    points += draw(st.lists(st.floats(1e-9, 50.0), max_size=4))
    return xs, cols[:dim], cols[dim:], points


def _dense_outcome(traj, x):
    try:
        return [float(v).hex() for v in traj(x)]
    except DomainError as err:
        return ("DomainError", str(err))


@given(_dense_cases())
@settings(max_examples=300, deadline=None)
def test_scalar_dense_output_matches_numpy_reference_bit_for_bit(case):
    xs, cols, dcols, points = case
    traj = integrate.Trajectory(xs, cols, dcols)
    ref = NumpyTrajectory(xs, np.array(cols).T, np.array(dcols).T)
    for x in points:
        assert _dense_outcome(traj, x) == _dense_outcome(ref, x), x
    knot = traj(xs[0])
    assert type(knot) is tuple and len(knot) == len(cols)
    assert all(type(v) is float for v in knot)


def test_scalar_dense_output_matches_numpy_reference_on_solved_pairs():
    for name in ("euler_pair", "rotating"):
        ivp = _registry_ivp(name, rtol=1e-12, atol=1e-14)
        for traj in solve_pair(ivp, tuple(ENTRIES[name].config.eps0)):
            ref = NumpyTrajectory(traj.xs, np.array(traj.cols).T, np.array(traj.dcols).T)
            xs = list(traj.xs)
            points = xs[::50] + [(a + b) / 2 for a, b in zip(xs[::37], xs[1::37])]
            for x in points:
                assert _dense_outcome(traj, x) == _dense_outcome(ref, x), (name, x)


def test_trajectory_rejects_misshapen_columns():
    xs = [0.5, 0.25, 0.125]
    col = [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="2 value columns but 1 derivative columns"):
        integrate.Trajectory(xs, [col, col], [col])
    with pytest.raises(ValueError, match="one value per knot"):
        integrate.Trajectory(xs, [col, col[:2]], [col, col])
    with pytest.raises(ValueError, match="one value per knot"):
        integrate.Trajectory(xs, [col, col], [col, col + [4.0]])
    with pytest.raises(ValueError, match="at least two grid points"):
        integrate.Trajectory(xs[:1], [col[:1]], [col[:1]])
    with pytest.raises(ValueError, match="strictly decreasing"):
        integrate.Trajectory([0.5, 0.5, 0.125], [col], [col])


def test_slices_share_the_solved_columns():
    gamma, eps = solve_pair(IVP(EULER, 0.5, 0.1, (1.0, 2.0)), (0.1, 0.0))
    assert gamma.xs is eps.xs
    assert all(type(c) is array for c in gamma.cols + gamma.dcols + eps.cols + eps.dcols)
    joint = integrate.Trajectory(gamma.xs, gamma.cols + eps.cols, gamma.dcols + eps.dcols)
    assert joint.xs is gamma.xs and joint.cols[2] is eps.cols[0]
