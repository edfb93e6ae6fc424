"""Contact order, winding, census: closed-form oracle checks and invariances."""

import math

import numpy as np
import pytest

from interlace.dichotomy import (
    Thresholds,
    VERDICT_COINCIDENT,
    VERDICT_HARDY,
    VERDICT_INCONCLUSIVE,
    VERDICT_INTERLACED,
    build_pair_report,
    classify,
    contact_order,
    sign_census,
    winding,
)
from interlace.errors import ZeroEpsilonError
from interlace.expr import compile_expr, parse_expr
from interlace.field import ReducedSystem
from interlace.integrate import IVP, Trajectory, solve_pair

from _expr_reference import evaluate


def rotating_system(a, b):
    # gap field (a*z + b*z_perp)/x^2 with z_perp = (-z2, z1)
    f1 = f"({a}*y1 - {b}*y2)/x^2" if b else f"{a}*y1/x^2"
    f2 = f"({a}*y2 + {b}*y1)/x^2" if b else f"{a}*y2/x^2"
    return ReducedSystem.from_text(f1, f2)


def synthetic_eps(fn1, fn2, d1, d2, xs):
    xs = np.asarray(xs, dtype=float)
    ys = np.column_stack([[fn1(x) for x in xs], [fn2(x) for x in xs]])
    dys = np.column_stack([[d1(x) for x in xs], [d2(x) for x in xs]])
    return Trajectory(xs, ys, dys)


# -- contact order -------------------------------------------------------------


def test_pure_power_gap_has_constant_contact_order():
    eps = synthetic_eps(
        lambda x: x**3, lambda x: 0.0, lambda x: 3 * x**2, lambda x: 0.0,
        np.geomspace(0.5, 0.01, 40),
    )
    rep = contact_order(eps, [0.3, 0.1, 0.03])
    assert all(p.k_hat == pytest.approx(3.0, abs=1e-12) for p in rep.probes)
    assert not rep.flat_evidence  # constant, not increasing


def test_constant_gap_contact_order_decays_to_zero():
    eps = synthetic_eps(
        lambda x: 0.5, lambda x: 0.0, lambda x: 0.0, lambda x: 0.0,
        np.geomspace(0.5, 0.001, 30),
    )
    rep = contact_order(eps, [0.1, 0.01, 0.001])
    ks = [p.k_hat for p in rep.probes]
    assert ks[0] > ks[1] > ks[2] > 0
    assert ks[2] < 0.11


def test_flat_gap_flags_flat_contact_evidence():
    sys_ = ReducedSystem.from_text("(y1-x)/x^2", "(y2-2*x)/(2*x^2)")
    _, eps = solve_pair(IVP(sys_, 0.5, 0.02, (1.0, 2.0)), (0.1, 0.0))
    rep = contact_order(eps, [0.1, 0.05, 0.02])
    ks = [p.k_hat for p in rep.probes]
    assert ks[0] == pytest.approx(4.4743558552260145, rel=1e-2)
    assert ks[1] == pytest.approx(6.7771693993562545, rel=1e-2)
    assert ks[2] == pytest.approx(12.858458404563688, rel=1e-2)
    assert ks[0] < ks[1] < ks[2]
    assert rep.flat_evidence


def test_contact_order_depends_only_on_probe_values():
    # the same gap function on two different grids gives identical orders
    # (cubic Hermite reproduces the cubic exactly on any grid)
    def make(xs):
        return synthetic_eps(
            lambda x: x**3, lambda x: 0.0, lambda x: 3 * x**2, lambda x: 0.0, xs
        )

    probes = [0.3, 0.09, 0.04]
    coarse = contact_order(make(np.geomspace(0.5, 0.01, 12)), probes)
    fine = contact_order(make(np.linspace(0.5, 0.01, 400)), probes)
    for a, b in zip(coarse.probes, fine.probes):
        assert a.k_hat == pytest.approx(b.k_hat, rel=1e-12)


def test_exactly_zero_gap_reports_coincidence():
    eps = synthetic_eps(
        lambda x: 0.0, lambda x: 0.0, lambda x: 0.0, lambda x: 0.0,
        [0.5, 0.3, 0.1],
    )
    rep = contact_order(eps, [0.3, 0.1])
    assert all(p.coincident for p in rep.probes)
    assert classify(rep, None, ()) == VERDICT_COINCIDENT


# -- winding ---------------------------------------------------------------------


def test_rotating_gap_angle_matches_quadrature():
    # theta(x) = theta0 - b (1/x - 1/x0): over [0.1, 1] that is -9 rad
    _, eps = solve_pair(IVP(rotating_system(0, 1), 1.0, 0.1, (0.0, 0.0)), (1.0, 0.0))
    w = winding(eps)
    assert w.total_angle == pytest.approx(-9.0, rel=1e-6)
    assert w.total_turns == pytest.approx(-9.0 / (2 * math.pi), rel=1e-6)


def test_radial_gap_does_not_turn():
    _, eps = solve_pair(IVP(rotating_system(0.1, 0), 1.0, 0.1, (0.0, 0.0)), (1.0, 0.0))
    w = winding(eps)
    assert abs(w.total_turns) < 1e-9


def test_unwrapped_angle_stable_under_denser_sampling():
    _, eps = solve_pair(IVP(rotating_system(0, 1), 1.0, 0.1, (0.0, 0.0)), (1.0, 0.0))
    coarse = winding(eps, max_increment=math.pi / 2)
    fine = winding(eps, max_increment=math.pi / 8)
    assert fine.total_angle == pytest.approx(coarse.total_angle, abs=1e-9)
    assert len(fine.xs) >= len(coarse.xs)


def test_turn_count_invariant_under_gap_rescaling():
    _, eps = solve_pair(IVP(rotating_system(0, 1), 1.0, 0.1, (0.0, 0.0)), (1.0, 0.0))
    scaled = Trajectory(eps.xs, 7.25 * eps.ys, 7.25 * eps.dys, eps.meta)
    assert winding(scaled).total_turns == pytest.approx(
        winding(eps).total_turns, abs=1e-12
    )


def test_vanishing_gap_inside_grid_is_an_error():
    eps = synthetic_eps(
        lambda x: x - 0.25, lambda x: 0.0, lambda x: 1.0, lambda x: 0.0,
        [0.5, 0.25, 0.1],
    )
    with pytest.raises(ZeroEpsilonError):
        winding(eps)


# -- sign census ------------------------------------------------------------------


def euler_pair_trajectories():
    sys_ = ReducedSystem.from_text("(y1-x)/x^2", "(y2-2*x)/(2*x^2)")
    return solve_pair(IVP(sys_, 0.5, 0.02, (1.0, 2.0)), (0.1, 0.0))


def test_one_signed_gap_census():
    gamma, eps = euler_pair_trajectories()
    entries = sign_census(["z1"], gamma, eps)
    assert entries[0].sign_changes == 0
    assert entries[0].final_sign == +1


def test_constant_expression_census():
    gamma, eps = euler_pair_trajectories()
    entries = sign_census(["1"], gamma, eps)
    assert entries[0].sign_changes == 0
    assert entries[0].final_sign == +1


def test_spiral_census_counts_halfturn_crossings():
    gamma, eps = solve_pair(
        IVP(rotating_system(0, 1), 1.0, 0.01, (0.0, 0.0)), (1.0, 0.0)
    )
    entries = sign_census(["z1"], gamma, eps)
    # theta sweeps 99 rad from theta0 = 0: cos crosses zero 32 times
    assert entries[0].sign_changes == 32
    w = winding(eps)
    assert abs(entries[0].sign_changes - math.floor(abs(w.total_angle) / math.pi)) <= 1


def test_census_crossings_match_angle_lattice():
    gamma, eps = solve_pair(
        IVP(rotating_system(0, 1), 1.0, 0.05, (0.0, 0.0)), (1.0, 0.0)
    )
    entries = sign_census(["z1"], gamma, eps)
    # z1 = r cos(theta) vanishes at theta = -(pi/2 + k pi); crossing locations
    # invert to x = 1/(1/x0 + pi/2 + k pi)
    want = []
    k = 0
    while True:
        theta = math.pi / 2 + k * math.pi
        x = 1.0 / (1.0 + theta)
        if x < 0.05:
            break
        want.append(x)
        k += 1
    got = sorted(entries[0].crossings, reverse=True)
    assert len(got) == len(want)
    for g, w_ in zip(got, want):
        assert g == pytest.approx(w_, rel=1e-5)


def test_census_knot_samples_equal_dense_output_samples():
    # sampling the stored knots gives exactly the values (and so the counts
    # and crossings) that sampling dense output at the knots gives
    gamma, eps = solve_pair(
        IVP(rotating_system(0.1, 1), 1.0, 0.01, (0.0, 0.0)), (1.0, 0.0)
    )
    assert np.array_equal(gamma(gamma.xs), gamma.ys)
    assert np.array_equal(eps(eps.xs), eps.ys)
    names = ("x", "y1", "y2", "z1", "z2")
    for text in ("z1", "z1*x - z2/10"):
        tree = parse_expr(text, names)
        f = compile_expr(tree, names)
        dense = [evaluate(tree, dict(zip(names, (x, *gamma(x), *eps(x))))) for x in gamma.xs]
        knots = [f((x, *g, *z)) for x, g, z in zip(gamma.xs, gamma.ys, eps.ys)]
        assert dense == knots
        entry = sign_census([text], gamma, eps)[0]
        want = sum(1 for a, b in zip(dense, dense[1:]) if a * b < 0)
        assert entry.sign_changes == len(entry.crossings) == want


def test_census_window_and_grid_checks():
    gamma, eps = euler_pair_trajectories()
    full = sign_census(["x^2"], gamma, eps)[0]
    windowed = sign_census(["x^2"], gamma, eps, window=(0.02, 0.2))[0]
    assert windowed.decay_exponent == pytest.approx(2.0, abs=1e-6)
    assert full.decay_exponent == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(ValueError):
        sign_census(["z1"], gamma, eps, window=(0.6, 0.7))
    other = Trajectory(eps.xs[::2], eps.ys[::2], eps.dys[::2])
    with pytest.raises(ValueError):
        sign_census(["z1"], gamma, other)


def test_one_signed_power_law_gets_decay_exponent():
    gamma, eps = euler_pair_trajectories()
    entries = sign_census(["x^2"], gamma, eps)
    assert entries[0].decay_exponent == pytest.approx(2.0, abs=1e-6)


# -- classification -----------------------------------------------------------------


def test_spiral_classifies_as_interlaced():
    gamma, eps = solve_pair(
        IVP(rotating_system(0.1, 1), 1.0, 0.01, (0.0, 0.0)), (1.0, 0.0)
    )
    report = build_pair_report(gamma, eps, (0.5, 0.1, 0.02), ("z1",))
    assert report.verdict == VERDICT_INTERLACED


def test_flat_one_signed_pair_classifies_as_hardy_candidate():
    gamma, eps = euler_pair_trajectories()
    report = build_pair_report(gamma, eps, (0.1, 0.05, 0.02), ("z1", "z2", "y1-x"))
    assert report.verdict == VERDICT_HARDY


def test_short_spiral_is_inconclusive():
    # 1.2 turns: above the Hardy bound, below the interlacement threshold
    _, eps = solve_pair(
        IVP(rotating_system(0, 1), 1.0, 1.0 / (1.0 + 1.2 * 2 * math.pi), (0.0, 0.0)),
        (1.0, 0.0),
    )
    gamma = eps  # census plays no role here
    report = build_pair_report(gamma, eps, (0.5, 0.2), ("z1",))
    assert abs(report.winding.total_turns) == pytest.approx(1.2, rel=1e-3)
    assert report.verdict == VERDICT_INCONCLUSIVE


def test_classification_is_deterministic():
    gamma, eps = euler_pair_trajectories()
    r1 = build_pair_report(gamma, eps, (0.1, 0.05, 0.02), ("z1",))
    r2 = build_pair_report(gamma, eps, (0.1, 0.05, 0.02), ("z1",))
    assert r1.to_json_dict() == r2.to_json_dict()


def test_thresholds_recorded_in_report():
    gamma, eps = euler_pair_trajectories()
    th = Thresholds(turn_threshold=4.0)
    report = build_pair_report(gamma, eps, (0.1, 0.05), ("z1",), th)
    assert report.thresholds.turn_threshold == 4.0
    assert report.to_json_dict()["thresholds"]["turn_threshold"] == 4.0
