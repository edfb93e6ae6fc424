"""Adaptive integration: closed-form oracles, dense output, error taxonomy."""

import io
import math

import numpy as np
import pytest

from interlace.errors import (
    AdaptedChartError,
    BlowUpError,
    DomainError,
    MaxStepsError,
    StiffnessError,
)
from interlace.field import ReducedSystem
from interlace.integrate import IVP, solve, solve_pair
from interlace.series import euler_series


def sys2(f1, f2="y2/x"):
    return ReducedSystem.from_text(f1, f2)


EULER = sys2("(y1-x)/x^2", "(y2-2*x)/(2*x^2)")


def J_euler(x, n):
    from fractions import Fraction

    return float(euler_series(n).eval(Fraction(x)))


def test_linear_system_reproduces_the_line():
    # y' = y/x keeps y = x exactly
    traj = solve(IVP(sys2("y1/x"), 1.0, 0.25, (1.0, 1.0)))
    assert traj.ys[-1] == pytest.approx([0.25, 0.25], rel=1e-9)


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
    gap = abs(traj.ys[-1][0] - J_euler(0.05, 10))
    assert gap == pytest.approx(4.9836e-08, rel=1e-3)


def test_rotating_system_radius_tracks_closed_form():
    # gap field (a z + b z_perp)/x^2: radius r0 exp(a (1/x0 - 1/x))
    rot = sys2("(y1/10 - y2)/x^2", "(y2/10 + y1)/x^2")
    traj = solve(IVP(rot, 1.0, 0.1, (1.0, 0.0)))
    r = float(np.hypot(*traj.ys[-1]))
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
                err = abs(traj.ys[-1][0] - exact(x1))
            else:
                if ref is None:
                    ref = solve(IVP(system, x0, x1, y0, rtol=1e-12, atol=1e-14))
                err = float(np.max(np.abs(traj.ys[-1] - ref.ys[-1])))
            errs.append(err)
        assert errs[1] <= errs[0] + 1e-15
        assert errs[2] <= errs[1] + 1e-15


def test_dense_output_matches_knots_exactly_and_midpoints_closely():
    ivp = IVP(sys2("y1/x"), 1.0, 0.25, (1.0, 1.0), rtol=1e-8, atol=1e-10)
    traj = solve(ivp)
    for i in (0, len(traj.xs) // 2, len(traj.xs) - 1):
        assert traj(float(traj.xs[i]))[0] == traj.ys[i][0]
    mids = (traj.xs[:-1] + traj.xs[1:]) / 2
    vals = traj(mids)
    assert np.max(np.abs(vals[:, 0] - mids)) <= 10 * 1e-8


def test_pair_gap_follows_flat_closed_form():
    gamma, eps = solve_pair(IVP(EULER, 0.5, 0.05, (1.0, 2.0)), (0.1, 0.0))
    for x in (0.1, 0.05):
        got = float(np.hypot(*eps(x)))
        want = 0.1 * math.exp(2 - 1 / x)
        assert got == pytest.approx(want, rel=1e-6)
    assert np.all(eps.ys[:, 1] == 0.0)


def test_flat_gap_keeps_relative_accuracy_down_to_1e_200():
    # the closed form 0.1 exp(2 - 1/x) is 1.4e-201 at x = 1/462.2
    x_end = 1 / 462.2
    gamma, eps = solve_pair(IVP(EULER, 0.5, x_end, (1.0, 2.0)), (0.1, 0.0))
    assert eps.ys[-1, 0] < 2e-200
    for x in (0.1, 0.01, 0.005, x_end):
        want = 0.1 * math.exp(2 - 1 / x)
        assert float(eps(x)[0]) == pytest.approx(want, rel=1e-6)
    assert np.all(eps.ys[:, 1] == 0.0)


def test_pair_with_zero_gap_stays_exactly_zero():
    gamma, eps = solve_pair(IVP(EULER, 0.5, 0.1, (1.0, 2.0)), (0.0, 0.0))
    assert np.all(eps.ys == 0.0)


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
        direct = shifted(x) - plain(x)
        joint = eps(x)
        assert np.max(np.abs(direct - joint)) < 1e-10


def test_log_substitution_flag_and_auto_threshold():
    assert not IVP(EULER, 0.5, 0.02, (1, 1)).use_log_substitution()
    assert IVP(EULER, 0.5, 0.004, (1, 1)).use_log_substitution()
    assert IVP(EULER, 0.5, 0.3, (1, 1), log_substitution=True).use_log_substitution()

    a = solve(IVP(sys2("y1/x"), 1.0, 0.25, (1.0, 1.0), log_substitution=True))
    b = solve(IVP(sys2("y1/x"), 1.0, 0.25, (1.0, 1.0), log_substitution=False))
    assert a.ys[-1][0] == pytest.approx(b.ys[-1][0], rel=1e-9)
    assert a.meta["log_substitution"] and not b.meta["log_substitution"]


def test_trajectory_grid_is_strictly_decreasing():
    traj = solve(IVP(EULER, 0.5, 0.1, (1.0, 2.0)))
    assert np.all(np.diff(traj.xs) < 0)
    assert traj.domain() == (0.1, 0.5)


def test_csv_dump_format():
    traj = solve(IVP(sys2("y1/x"), 1.0, 0.5, (1.0, 1.0)))
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
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
