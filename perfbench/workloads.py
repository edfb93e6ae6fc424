"""The benchmark workloads: seeded inputs, one op each, and the oracle for it.

Every workload drives the library in-process through public functions only.
Seed 0 reproduces the registry inputs; other seeds vary only inputs whose
correct output a closed form still decides (see ``_pair_inputs``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
_INIT = ROOT / "src" / "interlace" / "__init__.py"
if not _INIT.is_file():
    raise SystemExit(f"perfbench: {_INIT} is missing; run from the root of a checkout")
sys.path.insert(0, str(_INIT.parent.parent))

from interlace import cli, curve, dichotomy, field, integrate, registry, sat  # noqa: E402

PAIR_RTOL, PAIR_ATOL = 1e-12, 1e-14
PAIR_CASES = ("euler_pair", "rotating")
GAP_PROBES = (0.1, 0.05, 0.02)
GAP_REL_TOL = 1e-6
ANGLE_TOL = 1e-3
RELATIONS_CURVE, RELATIONS_DEGREE, RELATIONS_JET = "x,E(x),E(2*x)", 5, 112


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int], dict]
    run: Callable[[dict, Path], object]  # the timed op; the Path is a fresh scratch dir
    check: Callable[[dict, object], list]  # oracle: problems found, empty when correct
    counts: Callable[[object], dict] | None = None  # traced runs only, after the op


# -- suite -----------------------------------------------------------------


def _run_suite(inputs, scratch):
    with contextlib.redirect_stdout(io.StringIO()):  # the last stdout line is the result
        code = cli.main(["suite", "--outdir", str(scratch)])
    return code, scratch


def _check_suite(inputs, result):
    code, outdir = result
    summary = json.loads((outdir / "summary.json").read_text())
    problems = [] if code == 0 else [f"suite exit code {code}"]
    if not summary["all_ok"]:
        bad = [e["name"] for e in summary["entries"] if not e["facts_ok"]]
        problems.append(f"suite facts failed: {bad}")
    return problems


def _suite_counts(result):
    _, outdir = result
    return {"report.bytes": sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())}


# -- pair_tight --------------------------------------------------------------


def _pair_inputs(seed):
    """Initial gaps for the two pair cases; seed 0 is the registry's.

    euler_pair: the gap is eps0 = (g, 0), with closed form z1 = g exp(2 - 1/x).
    rotating: the gap starts at angle phi on the unit circle and turns by
    exactly -(1/x_end - 1/x_start) = -99 rad, so z1 crosses zero wherever
    phi - theta' = pi/2 (mod pi) for theta' in (0, 99).  phi keeps 0.25 rad
    away from a crossing at either end so the count is unambiguous.
    """
    rng = random.Random(seed)
    g, phi = 0.1, 0.0
    if seed != 0:
        g = 0.1 * 2.0 ** rng.uniform(-0.5, 0.5)
        while True:
            phi = rng.uniform(-math.pi, math.pi)
            ends = (phi - math.pi / 2, phi - 99.0 - math.pi / 2)
            if all(abs(e / math.pi - round(e / math.pi)) * math.pi > 0.25 for e in ends):
                break
    hi = math.ceil((phi - math.pi / 2) / math.pi) - 1
    lo = math.floor((phi - 99.0 - math.pi / 2) / math.pi) + 1
    return {
        "euler_pair": {"eps0": (g, 0.0), "gap_scale": g},
        "rotating": {"eps0": (math.cos(phi), math.sin(phi)), "phi": phi, "z1_crossings": hi - lo + 1},
    }


def _run_pair(inputs, scratch):
    out = {}
    for name in PAIR_CASES:
        c = registry.get(name).config
        system = field.ReducedSystem.from_text(c.f1, c.f2, provenance=name)
        ivp = integrate.IVP(system, c.x_start, c.x_end, tuple(c.y0),
                            rtol=PAIR_RTOL, atol=PAIR_ATOL, max_steps=c.max_steps)
        gamma, eps = integrate.solve_pair(ivp, inputs[name]["eps0"])
        th = dichotomy.Thresholds(c.turn_threshold, c.hardy_turn_bound, c.flat_bound, c.final_decade)
        contact = dichotomy.contact_order(eps, c.probes, th.flat_bound)
        w = dichotomy.winding(eps)
        census = dichotomy.sign_census(c.census, gamma, eps)
        verdict = dichotomy.classify(contact, w, census, th, x_end=float(eps.xs[-1]))
        out[name] = (contact, w, census, verdict)
    return out


def _check_pair(inputs, result):
    problems = []
    contact, _, _, verdict = result["euler_pair"]
    if verdict != dichotomy.VERDICT_HARDY:
        problems.append(f"euler_pair verdict {verdict}")
    g = inputs["euler_pair"]["gap_scale"]
    norms = {p.x: p.norm for p in contact.probes}
    for x in GAP_PROBES:
        want = g * math.exp(2.0 - 1.0 / x)
        if abs(norms[x] - want) > GAP_REL_TOL * want:
            problems.append(f"euler_pair gap at x={x}: {norms[x]!r}, closed form {want!r}")

    _, w, census, verdict = result["rotating"]
    if verdict != dichotomy.VERDICT_INTERLACED:
        problems.append(f"rotating verdict {verdict}")
    if abs(w.total_angle + 99.0) > ANGLE_TOL:
        problems.append(f"rotating total angle {w.total_angle!r}, closed form -99")
    z1 = next(e for e in census if e.expr_text == "z1")
    want = inputs["rotating"]["z1_crossings"]
    if z1.sign_changes != want or len(z1.crossings) != want:
        problems.append(f"rotating z1 crossings {z1.sign_changes}, closed form {want}")
    return problems


# -- relations_deg5 ------------------------------------------------------------


def _run_relations(inputs, scratch):
    c = curve.parse_curve(RELATIONS_CURVE, RELATIONS_JET)
    return sat.relation_search(c, RELATIONS_DEGREE, RELATIONS_JET)


def _check_relations(inputs, basis):
    problems = []
    if not basis.is_trivial:
        problems.append(f"kernel dimension {len(basis.basis)}, expected 0")
    if not basis.transcendence_evidence:
        problems.append("no transcendence evidence")
    if basis.monomial_count != 56:
        problems.append(f"monomial count {basis.monomial_count}, expected 56")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "suite",
            "interlace suite end to end; the only workload running report, cli, tangents, qshort and plain solve",
            lambda seed: {},
            _run_suite,
            _check_suite,
            _suite_counts,
        ),
        Workload(
            "pair_tight",
            "euler_pair+rotating at rtol 1e-12: mpmath gap path on one case, DOPRI loop and census on the other",
            _pair_inputs,
            _run_pair,
            _check_pair,
        ),
        Workload(
            "relations_deg5",
            "exact side only: degree-5 relation search on (x,E(x),E(2x)), Fraction elimination plus column build",
            lambda seed: {},
            _run_relations,
            _check_relations,
        ),
    )
}
