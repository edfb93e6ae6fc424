"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py`` (verdict lines bypass capture).
Quantitative expectations were computed from closed forms or high-precision
oracles before being frozen here; tolerances are stated inline.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import _acceptance_log
import mpmath
import numpy as np

from interlace.curve import PuiseuxCurve, asymptotic_deviation, iterated_tangents, parse_curve
from interlace.dichotomy import (
    build_pair_report,
    contact_order,
    sign_census,
    winding,
)
from interlace.field import ReducedSystem, VectorField3, invariance_check
from interlace.integrate import IVP, Trajectory, solve_pair
from interlace.pipelines import run_suite
from interlace.registry import get as get_entry
from interlace.report import strip_timestamps
from interlace.sat import relation_search, verify_tail_identities
from interlace.series import (
    EXACT,
    Poly,
    TruncatedSeries,
    euler_series,
    q_short_check,
    tail_T,
    truncate_J,
)


@contextmanager
def criterion(num, label):
    state = {"ok": False}
    try:
        yield
        state["ok"] = True
    finally:
        verdict = "PASS" if state["ok"] else "FAIL"
        line = f"[ACCEPTANCE] {num:02d} {label}: {verdict}"
        print(line)
        _acceptance_log.record(line)


# -- 1: exact invariance of the catalog curves ---------------------------------


def test_criterion_01_exact_invariance():
    with criterion(1, "exact invariance of the catalog curves at order 30"):
        exact_cases = ["xi1", "xi2", "xi3", "xi4_mu1", "xi4_mu2"]
        for name in exact_cases:
            entry = get_entry(name)
            field = VectorField3.from_text(name, *entry.config.field_components)
            curve = parse_curve(entry.config.curve, 31)
            t0 = time.monotonic()
            rep = invariance_check(field, curve, 30)
            elapsed = time.monotonic() - t0
            assert rep.invariant, name
            assert all(r.is_zero() for r in rep.residuals), name
            assert elapsed < 10.0, f"{name} took {elapsed:.1f}s"

        entry = get_entry("flat_tower")
        field = VectorField3.from_text("flat_tower", *entry.config.field_components)
        curve = entry.curve_builder(21, precision=128)
        t0 = time.monotonic()
        rep = invariance_check(field, curve, 20, tolerance=1e-30)
        elapsed = time.monotonic() - t0
        # float-mode residual is scale-relative: coefficients reach ~1e18, so
        # 128-bit storage cannot place an absolute residual below ~1e-21
        assert rep.invariant
        assert rep.max_residual <= 1e-30 * rep.scale
        assert elapsed < 10.0


# -- 2: series identities on random inputs -----------------------------------------


def test_criterion_02_series_identities():
    with criterion(2, "series identities on random rational series"):
        rng = random.Random(987654321)

        def rand_series(order, min_val=0):
            coeffs = [F(0)] * min_val + [
                F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1 - min_val)
            ]
            return TruncatedSeries.from_coeffs(coeffs, order)

        for _ in range(200):
            s = rand_series(50)
            k = rng.randint(0, 10)
            # J_k + x^k T_k = id
            tail = tail_T(s, k)
            shifted = TruncatedSeries(
                tuple([F(0)] * k + list(tail.coeffs)), s.mode, s.var
            )
            lhs = truncate_J(s, k).truncated(shifted.order) + shifted
            assert lhs == s.truncated(shifted.order)
            # T_{k+1} = T_k T_1
            a = tail_T(s, k + 1)
            b = tail_T(tail_T(s, 1), k)
            n = min(a.order, b.order)
            assert a.truncated(n) == b.truncated(n)

        for _ in range(100):
            h = rand_series(20, min_val=1)
            p_coeffs = [F(0)] + [
                F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))
            ]
            p = Poly.from_coeffs(p_coeffs)
            if p.is_zero():
                p = Poly.from_coeffs([0, 1])
            assert verify_tail_identities(h, p, k=rng.randint(0, 8), order=20)


# -- 3: Euler flat contact ------------------------------------------------------------


def euler_pair():
    system = ReducedSystem.from_text("(y1-x)/x^2", "(y2-2*x)/(2*x^2)")
    ivp = IVP(system, 0.5, 0.02, (1.0, 2.0), rtol=1e-10, atol=1e-12)
    return solve_pair(ivp, (0.1, 0.0))


def test_criterion_03_euler_flat_contact():
    with criterion(3, "flat-contact gap matches exp(2 - 1/x) closed form"):
        _, eps = euler_pair()
        for x in (0.1, 0.05):
            want = 0.1 * math.exp(2 - 1 / x)
            got = float(np.hypot(*eps(x)))
            assert abs(got - want) <= 1e-3 * want
        rep = contact_order(eps, (0.1, 0.05, 0.02))
        ks = [p.k_hat for p in rep.probes]
        assert abs(ks[0] - 4.4745) <= 0.01 * 4.4745
        assert abs(ks[1] - 6.777) <= 0.01 * 6.777
        assert ks[0] < ks[1] < ks[2]


# -- 4: winding oracle and both verdicts ---------------------------------------------


def rotating_pair(a, b, x_end):
    b_term1 = f" - {b}*y2" if b else ""
    b_term2 = f" + {b}*y1" if b else ""
    system = ReducedSystem.from_text(
        f"({a}*y1{b_term1})/x^2", f"({a}*y2{b_term2})/x^2"
    )
    ivp = IVP(system, 1.0, x_end, (0.0, 0.0), rtol=1e-10, atol=1e-12)
    return solve_pair(ivp, (1.0, 0.0))


def test_criterion_04_winding_oracle_and_verdicts():
    with criterion(4, "winding matches -99 rad and both verdicts classify"):
        gamma, eps = rotating_pair(0.1, 1, 0.01)
        w = winding(eps)
        assert abs(w.total_angle - (-99.0)) <= 1e-3 * 99.0
        report = build_pair_report(gamma, eps, (0.5, 0.1, 0.02), ("z1",))
        assert report.verdict == "Interlaced"

        gamma0, eps0 = rotating_pair(0.1, 0, 0.01)
        w0 = winding(eps0)
        assert abs(w0.total_turns) < 1e-6
        report0 = build_pair_report(gamma0, eps0, (0.5, 0.1, 0.02), ("z1",))
        census = {c.expr_text: c for c in report0.census}
        assert census["z1"].sign_changes == 0
        assert report0.verdict == "HardyCandidate"


# -- 5: census and angle agree -----------------------------------------------------------


def test_criterion_05_sign_census_consistency():
    with criterion(5, "z1 sign changes equal the angle sweep over pi (+-1)"):
        gamma, eps = rotating_pair(0.1, 1, 0.01)
        w = winding(eps)
        census = sign_census(["z1"], gamma, eps)
        lattice = math.floor(abs(w.total_angle) / math.pi)
        assert lattice == 31
        assert abs(census[0].sign_changes - lattice) <= 1


# -- 6: deviation from the divergent jet decays at the jet order -------------------------


def borel_median_euler(x):
    """Principal-value Laplace integral of 1/(1-s): a true solution of the
    singular equation that sits centrally in the flat one-parameter family."""
    x = mpmath.mpf(x)

    def folded(s):
        return (mpmath.e ** (-s / x) - mpmath.e ** (-(2 - s) / x)) / (1 - s)

    head = mpmath.quad(folded, [0, 1])
    tail = mpmath.quad(lambda s: mpmath.e ** (-s / x) / (1 - s), [2, mpmath.inf])
    return head + tail


def test_criterion_06_asymptotic_order_of_jet_deviation():
    with criterion(6, "jet deviation slope exceeds N for N in {4, 8, 12}"):
        with mpmath.workdps(50):
            xs = [0.1, 0.05, 0.02]
            ys = [float(borel_median_euler(x)) for x in xs]
            # sanity: the quadrature solves x^2 y' = y - x
            for x, y in zip(xs, ys):
                with mpmath.workdps(50):
                    h = mpmath.mpf("1e-10")
                    dy = (borel_median_euler(x + h) - borel_median_euler(x - h)) / (2 * h)
                    res = mpmath.mpf(x) ** 2 * dy - (borel_median_euler(x) - x)
                    assert abs(res) < 1e-12
        dys = [(y - x) / x**2 for x, y in zip(xs, ys)]
        traj = Trajectory(
            np.array(xs), np.array([[y, 0.0] for y in ys]), np.array([[d, 0.0] for d in dys])
        )
        theta = euler_series(14, var="t")
        curve = PuiseuxCurve(1, (theta, TruncatedSeries.zero(14, EXACT, "t")))
        for n in (4, 8, 12):
            rep = asymptotic_deviation(traj, curve, n, xs)
            assert all(s > n for s in rep.slopes), (n, rep.slopes)


# -- 7: q-short catalog --------------------------------------------------------------------


def test_criterion_07_q_short_catalog():
    with criterion(7, "q-short catalog verdicts for q = 1"):
        want = {
            (0, 1): (True, True),  # x
            (0, 2): (True, True),  # 2x
            (0, -1): (True, False),  # -x
            (0, 1, 1): (False, True),  # x + x^2
        }
        for coeffs, (short, positive) in want.items():
            rep = q_short_check(Poly.from_coeffs(coeffs), 1)
            assert rep.is_short == short, coeffs
            assert rep.is_positive == positive, coeffs


# -- 8: relation search -----------------------------------------------------------------------


def test_criterion_08_relation_search():
    with criterion(8, "relation search: control kernel and transcendence evidence"):
        t0 = time.monotonic()
        basis = relation_search(parse_curve("x, x^2", 12), 2, 12)
        assert len(basis.basis) == 1
        terms = dict(basis.basis[0].terms)
        assert set(terms) == {(0, 1), (2, 0)} and terms[(0, 1)] == -terms[(2, 0)]
        assert time.monotonic() - t0 < 60

        t0 = time.monotonic()
        doubled = relation_search(parse_curve("x, E(x), E(2*x)", 40), 3, 40)
        assert doubled.is_trivial
        assert doubled.evidence_margin >= doubled.monomial_count
        assert time.monotonic() - t0 < 60

        t0 = time.monotonic()
        single = relation_search(parse_curve("x, E(x)", 60), 4, 60)
        assert single.is_trivial
        assert single.evidence_margin >= single.monomial_count
        assert time.monotonic() - t0 < 60
        # re-verification happens inside relation_search; a nonzero jet raises


def test_criterion_08b_returned_relations_reverify():
    with criterion(8, "relation search: returned relations re-verify to zero jets"):
        curve = parse_curve("x, x^2, x^3", 18)
        basis = relation_search(curve, 2, 18)
        assert not basis.is_trivial
        for rel in basis.basis:
            acc = TruncatedSeries.zero(18)
            for exps, coeff in rel.terms:
                term = TruncatedSeries.constant(coeff, 18)
                for i, e in enumerate(exps):
                    for _ in range(e):
                        term = term * curve.components[i]
                acc = acc + term
            assert acc.is_zero()


def degree_evidence_within_a_minute(degree, jet, monomials):
    with criterion(8, f"relation search: degree-{degree} transcendence evidence"):
        t0 = time.monotonic()
        basis = relation_search(parse_curve("x, E(x), E(2*x)", jet), degree, jet)
        assert basis.is_trivial
        assert basis.transcendence_evidence
        assert basis.monomial_count == monomials
        assert time.monotonic() - t0 < 60


def test_criterion_08c_degree_six_relation_search():
    degree_evidence_within_a_minute(6, 168, 84)


def test_criterion_08d_degree_seven_relation_search():
    degree_evidence_within_a_minute(7, 240, 120)


def test_criterion_08e_degree_eight_relation_search():
    degree_evidence_within_a_minute(8, 330, 165)


# -- 9: iterated tangents ------------------------------------------------------------------------


def test_criterion_09_iterated_tangents():
    with criterion(9, "iterated tangents: cusp oracle and line stabilization"):
        cusp = parse_curve("t, t^2, t^3", 6)
        trail = iterated_tangents(cusp, 3)
        assert [s.direction for s in trail] == [(1, 0, 0), (1, 1, 0), (1, 0, 1)]

        axis = parse_curve("t, 0*t, 0*t", 6)
        assert [s.direction for s in iterated_tangents(axis, 4)] == [(1, 0, 0)] * 4
        line = parse_curve("t, 2*t, 3*t", 6)
        steps = iterated_tangents(line, 4)
        assert steps[0].direction == (1, 2, 3)
        assert [s.direction for s in steps[1:]] == [(1, 0, 0)] * 3


# -- 10: suite determinism ------------------------------------------------------------------------


def test_criterion_10_registry_suite_determinism(tmp_path):
    with criterion(10, "two full registry runs are identical modulo timestamps"):
        dir_a = tmp_path / "run_a"
        dir_b = tmp_path / "run_b"
        summary_a = run_suite(dir_a)
        summary_b = run_suite(dir_b)
        assert summary_a["all_ok"] and summary_b["all_ok"]

        files_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            pa, pb = dir_a / rel, dir_b / rel
            if rel.suffix == ".json":
                ja = strip_timestamps(json.loads(pa.read_text()))
                jb = strip_timestamps(json.loads(pb.read_text()))
                assert ja == jb, rel
            else:
                assert pa.read_bytes() == pb.read_bytes(), rel
