"""Command pipelines: pure functions from a RunConfig to a report payload.

The CLI and the registry suite both run through these, so a registry entry
and the equivalent command line produce identical artifacts.  No payload
field depends on wall-clock or environment; the only per-run value is the
``generated_at`` stamp added at write time.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

from . import dichotomy as _dichotomy
from . import report as _report
from . import sat as _sat
from . import series as _series
from .config import RunConfig
from .curve import _split_components, iterated_tangents, parse_curve
from .expr import compile_expr, parse_expr, to_text, variables_of
from .field import ReducedSystem, VectorField3, invariance_check
from .integrate import IVP, solve, solve_pair
from .registry import ENTRIES, RegistryEntry, get as get_entry
from .series import EXACT, Poly, float_mode, q_short_check


def resolve(config: RunConfig, explicit) -> tuple[RunConfig, RegistryEntry | None]:
    """Overlay user settings on the referenced example, if any.

    ``explicit`` is the set of key/value pairs the user actually supplied
    (flags plus config file).
    """
    if config.example is None:
        return config, None
    entry = get_entry(config.example)
    overlay = {k: v for k, v in explicit.items() if k != "example"}
    return replace(entry.config, **overlay), entry


def _coefficient_mode(config):
    return EXACT if config.mode == "exact" else float_mode(config.precision)


def _build_curve(config, entry, order):
    """The run's curve on its half-branch: t < 0 is the substitution t -> -t."""
    mode = _coefficient_mode(config)
    if config.curve is not None:
        curve = parse_curve(config.curve, order, mode)
    elif entry is not None and entry.curve_builder is not None:
        if config.mode != "float":
            raise ValueError(
                f"the {entry.name!r} curve has irrational coefficients and "
                "exists only in float mode"
            )
        curve = entry.curve_builder(order, config.precision)
    else:
        raise ValueError("no curve given: pass --curve or pick an example that has one")
    return curve.reparameterized(-1) if config.branch == "-" else curve


def _log_flag(config):
    return {"auto": None, "on": True, "off": False}[config.log_substitution]


# -- invariance ----------------------------------------------------------


def run_invariance(config, entry=None, outdir=None):
    if config.field_components is None:
        raise ValueError("no field given: pass --field fx fy fz or --example")
    if len(config.field_components) != 3:
        raise ValueError(
            f"field needs three components fx, fy, fz; got {len(config.field_components)}"
        )
    v = VectorField3.from_text(
        config.example or "inline", *config.field_components
    )
    order = config.order if config.order is not None else 30
    if order < 0:
        raise ValueError(f"order must be at least 0, got {order}")
    curve = _build_curve(config, entry, order + 1)
    rep = invariance_check(v, curve, order)
    payload = {
        "command": "invariance",
        "example": config.example,
        "field": list(v.component_texts()),
        "order": order,
        "mode": config.mode,
        "branch": config.branch,
        "invariant": rep.invariant,
        "checked_order": rep.checked_order,
        "pivot_index": rep.pivot_index,
        "multiplier": None if rep.multiplier is None else rep.multiplier.to_json_dict(),
        "residual_max": rep.max_residual,
        "residual_scale": rep.scale,
        "residual_valuation": (
            None if rep.residual_val() == _series.INF else rep.residual_val()
        ),
    }
    if config.mode == "float":
        payload["precision"] = config.precision
        payload["tolerance"] = rep.tolerance
    return payload, (0 if rep.invariant else 1)


# -- pair classification and plain integration -----------------------------


def _ivp(config, runs):
    """The planar initial value problem of a pair or integrate run."""
    if config.f1 is None or config.f2 is None:
        raise ValueError("pair runs need f1 and f2 (inline or from an example)")
    system = ReducedSystem.from_text(config.f1, config.f2,
                                     provenance=config.example or "direct")
    if config.x_start is None or config.x_end is None or config.y0 is None:
        raise ValueError(f"{runs} runs need x_start, x_end and y0")
    return IVP(
        system,
        config.x_start,
        config.x_end,
        tuple(config.y0),
        rtol=config.rtol,
        atol=config.atol,
        max_steps=config.max_steps,
        log_substitution=_log_flag(config),
    )


def _ivp_payload(command, config, ivp, meta, columns, outdir):
    """Payload fields, and trajectory.csv of ``columns``, shared by pair and integrate runs."""
    payload = {
        "command": command,
        "example": config.example,
        "system": {"f1": to_text(ivp.system.f1), "f2": to_text(ivp.system.f2)},
        "x_start": config.x_start,
        "x_end": config.x_end,
        "y0": list(config.y0),
        "integrator": {
            "rtol": config.rtol,
            "atol": config.atol,
            "n_steps": meta.get("n_steps"),
            "log_substitution": meta.get("log_substitution"),
        },
        "artifacts": {},
    }
    if outdir is not None:
        _report.write_csv(Path(outdir) / "trajectory.csv", columns)
        payload["artifacts"]["trajectory_csv"] = "trajectory.csv"
    return payload


def run_pair(config, entry=None, outdir=None):
    ivp = _ivp(config, "pair")
    eps0 = config.eps0 if config.eps0 is not None else (0.0, 0.0)
    thresholds = _dichotomy.Thresholds(
        turn_threshold=config.turn_threshold,
        hardy_turn_bound=config.hardy_turn_bound,
        flat_bound=config.flat_bound,
        final_decade=config.final_decade,
    )
    probes = _contact_probes(config.probes, ivp)
    gamma, eps = solve_pair(ivp, tuple(eps0))
    census_exprs = config.census or ("z1", "z2")
    pair_report = _dichotomy.build_pair_report(
        gamma, eps, probes, census_exprs, thresholds
    )
    columns = (gamma.xs, *gamma.cols, *eps.cols)
    payload = _ivp_payload("classify-pair", config, ivp, gamma.meta, columns, outdir)
    payload["eps0"] = list(eps0)
    payload["integrator"]["n_rejected"] = gamma.meta.get("n_rejected")
    payload["integrator"]["max_error_ratio"] = gamma.meta.get("max_error_ratio")
    payload["report"] = pair_report.to_json_dict()
    if outdir is not None:
        if pair_report.winding is not None:
            _report.theta_plot(pair_report.winding, Path(outdir) / "theta.svg")
            payload["artifacts"]["theta_svg"] = "theta.svg"
        _report.contact_plot(eps, pair_report.contact, Path(outdir) / "contact.svg")
        payload["artifacts"]["contact_svg"] = "contact.svg"
    return payload, 0


def _contact_probes(probes, ivp):
    """The run's contact probes, set or default, checked before the solve.

    The defaults are (x_start/2, 2*x_end, x_end); each probe must lie in
    (0, 1) and in [x_end, x_start].
    """
    x_start, x_end = ivp.x_start, ivp.x_end
    chosen = probes or (x_start / 2, x_end * 2, x_end)
    bad = [x for x in chosen if not (0 < x < 1 and x_end <= x <= x_start)]
    if bad:
        where = f"lie in (0, 1) and in [x_end, x_start] = [{x_end}, {x_start}]"
        if probes:
            raise ValueError(f"contact probes must {where}; got {bad}")
        raise ValueError(
            f"probes not set, and the defaults x_start/2, 2*x_end, x_end = {list(chosen)} "
            f"do not all {where}"
        )
    return chosen


def run_integrate(config, entry=None, outdir=None):
    ivp = _ivp(config, "integrate")
    traj = solve(ivp)
    payload = _ivp_payload("integrate", config, ivp, traj.meta, (traj.xs, *traj.cols), outdir)
    payload["final"] = {"x": traj.xs[-1], "y": [c[-1] for c in traj.cols]}
    return payload, 0


# -- tangents ----------------------------------------------------------------


def run_tangents(config, entry=None, outdir=None):
    steps = config.steps if config.steps is not None else 3
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    order = config.order if config.order is not None else steps + 2
    curve = _build_curve(config, entry, order)
    trail = iterated_tangents(curve, steps)
    payload = {
        "command": "tangents",
        "example": config.example,
        "steps": steps,
        "order": order,
        "branch": config.branch,
        "directions": [
            [_frac_str(a) for a in step.direction] for step in trail
        ],
        "unit_directions": [list(step.unit_direction()) for step in trail],
        "chart_indices": [step.chart_index for step in trail],
    }
    return payload, 0


def _frac_str(a):
    if isinstance(a, Fraction):
        return f"{a.numerator}/{a.denominator}"
    value = float(a)  # a big float beyond the float range, or nonzero below it, keeps its text
    return repr(value) if math.isfinite(value) and (value or not a) else str(a)


# -- q-short ------------------------------------------------------------------


def expr_to_poly(text, var=None) -> Poly:
    """Interpret an expression as a univariate rational polynomial."""
    tree = parse_expr(text, ("x", "t"))
    names = sorted(variables_of(tree))
    if len(names) > 1:
        raise ValueError(f"polynomial must use one variable, found {names}")
    name = var or (names[0] if names else "x")
    to_poly = compile_expr(tree, names, lambda q: Poly.from_coeffs([q], name))
    try:
        return to_poly(*(Poly.from_coeffs([0, 1], name),)[: len(names)])
    except ValueError:
        raise ValueError(f"not a polynomial: {text!r}") from None


def run_qshort(config, entry=None, outdir=None):
    if not config.poly:
        raise ValueError("qshort needs --poly")
    results = []
    all_good = True
    for text in (p.strip() for p in config.poly.split(";") if p.strip()):
        p = expr_to_poly(text)
        rep = q_short_check(p, config.q)
        results.append({"poly": text, **asdict(rep)})
        all_good = all_good and rep.is_short and rep.is_positive
    payload = {"command": "qshort", "example": config.example, "results": results}
    return payload, (0 if all_good else 1)


# -- relation search -----------------------------------------------------------


def run_relations(config, entry=None, outdir=None):
    if config.degree is None:
        raise ValueError("relations needs --deg")
    if config.curve is None and (entry is None or entry.curve_builder is None):
        raise ValueError("relations needs --curve")
    if config.mode != "exact":
        raise ValueError("relation search runs in exact mode only")
    n_components = len(_split_components(config.curve)) if config.curve else 3
    monomials = _sat.monomial_exponents(n_components, config.degree)
    jet = config.jet if config.jet is not None else 2 * len(monomials)
    if jet < 1:
        raise ValueError(f"jet must be at least 1, got {jet}")
    order = config.order if config.order is not None else jet
    curve = _build_curve(config, entry, max(order, jet))
    basis = _sat.relation_search(curve, config.degree, jet)
    names = ["x"] + [f"z{i}" for i in range(1, len(curve.components))]
    payload = {
        "command": "relations",
        "example": config.example,
        "curve": config.curve,
        "branch": config.branch,
        **basis.to_json_dict(names),
    }
    return payload, (0 if basis.is_trivial else 1)


# -- registry suite --------------------------------------------------------------


# entry kind -> runner; every runner takes (config, entry, outdir=None)
RUNNERS = {
    "invariance": run_invariance,
    "pair": run_pair,
    "integrate": run_integrate,
    "tangents": run_tangents,
    "qshort": run_qshort,
    "relations": run_relations,
}


def run_entry(entry: RegistryEntry, outdir=None):
    """Run one registry entry and verify its expected facts."""
    entry_dir = None if outdir is None else Path(outdir) / entry.name
    payload, _ = RUNNERS[entry.kind](entry.config, entry, entry_dir)
    checks = [_check_fact(entry, fact, payload) for fact in entry.expected]
    payload["description"] = entry.description
    payload["facts"] = checks
    payload["facts_ok"] = all(c["ok"] for c in checks)
    if entry_dir is not None:
        _report.write_json(Path(entry_dir) / "report.json", payload)
    return payload


# the entries of a forked suite that this process runs, its child running the
# rest: a longest-job-first split of per-entry times, this half ending last
CALLER_ENTRIES = frozenset({"flat_tower", "log_demo", "rotating", "rotating_radial"})


def run_suite(outdir):
    """Run every registry entry into its own subdirectory; returns the summary.

    Two halves run at once, each in sorted order: the entries in
    ``CALLER_ENTRIES`` here, the rest in one forked child, which hands back
    only its results.  The child compiles its code again on every suite; that
    costs nothing end to end, since this process's half is the longer one.
    Every entry runs; then the exception of the first failing entry in
    sorted order is raised, as a run of all entries one after another would
    raise it; else summary.json is written.  The suite runs in this process
    alone when it may use fewer than two CPUs, has no ``os.fork``, or runs
    another thread.  A tracer or profiler here sees only this process's half
    of a forked run.
    """
    outdir = Path(outdir)
    names = sorted(ENTRIES)
    if _may_fork():
        child = [name for name in names if name not in CALLER_ENTRIES]
        facts_ok, failures = _run_halves(child, [n for n in names if n not in child], outdir)
    else:
        facts_ok, failures = _run_entries(names, outdir)
    if failures:
        raise failures[min(failures)]
    results = [
        {
            "name": name,
            "kind": ENTRIES[name].kind,
            "facts_ok": facts_ok[name],
            "n_facts": len(ENTRIES[name].expected),
        }
        for name in names
    ]
    summary = {
        "command": "suite",
        "entries": results,
        "all_ok": all(r["facts_ok"] for r in results),
    }
    _report.write_json(outdir / "summary.json", summary)
    return summary


def _may_fork():
    """True when the suite may run its halves in two processes."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    # a fork copies only the calling thread, whatever locks the others hold
    return cpus >= 2 and hasattr(os, "fork") and threading.active_count() == 1


def _run_entries(names, outdir):
    """Run every entry of ``names``; ({name: facts_ok}, {name: exception})."""
    facts_ok, failures = {}, {}
    for name in names:
        try:
            facts_ok[name] = run_entry(ENTRIES[name], outdir)["facts_ok"]
        except Exception as exc:
            failures[name] = exc
    return facts_ok, failures


def _run_halves(child_names, own_names, outdir):
    """``_run_entries`` of ``child_names`` in a forked child and of ``own_names`` here, merged.

    The child sends its pickled result through a pipe and always ends in
    ``os._exit``: it never returns into its caller's frames, never flushes
    the buffers it shares with this process and never runs ``atexit``.  The
    code it compiled dies with it.  The child is read and reaped even when
    this half raises.
    """
    import pickle  # only a forked suite needs it; every other run is spared its import

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(_run_entries(child_names, outdir)))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        facts_ok, failures = _run_entries(own_names, outdir)
    finally:
        with open(read_fd, "rb") as pipe:
            data = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        child_facts, child_failures = pickle.loads(data)
    except Exception:  # nothing, or less than a whole result
        how = f"was killed by signal {-status}" if status < 0 else f"exited with status {status}"
        raise ChildProcessError(f"the suite's forked child {how} before it sent its result") from None
    return {**facts_ok, **child_facts}, {**failures, **child_failures}


def _close(actual, expected, rel_tol):
    if rel_tol is None:
        return actual == expected
    if expected == 0:
        return abs(actual) <= rel_tol
    return abs(actual - expected) <= rel_tol * abs(expected)


def _check_fact(entry, fact, payload):
    actual = FACTS[entry.kind](fact.key, payload)
    if isinstance(fact.value, dict) and fact.key == "multiplier":
        ok = _multiplier_matches(fact, payload)
    elif isinstance(fact.value, float):
        ok = actual is not None and _close(float(actual), fact.value, fact.rel_tol)
    else:
        ok = actual == fact.value
    return {
        "key": fact.key,
        "expected": fact.value,
        "actual": actual,
        "provenance": fact.provenance,
        "ok": bool(ok),
    }


def _pair_fact(key, payload):
    rep = payload["report"]
    if key == "verdict":
        return rep["verdict"]
    if key in ("total_angle", "total_turns"):
        w = rep.get("winding")
        return None if w is None else w[key]
    if key.startswith(("eps_norm@", "k_hat@")):
        name, at = key.split("@", 1)
        for probe in rep["contact"]["probes"]:
            if abs(probe["x"] - float(at)) <= 1e-12:
                return probe["norm" if name == "eps_norm" else "k_hat"]
        return None
    if key.endswith("_sign_changes"):
        expr_name = key[: -len("_sign_changes")]
        for c in rep["census"]:
            if c["expr"] == expr_name:
                return c["sign_changes"]
        return None
    return payload.get(key)


def _integrate_fact(key, payload):
    ends = {"y1_end": 0, "y2_end": 1}
    return payload["final"]["y"][ends[key]] if key in ends else payload.get(key)


def _qshort_fact(key, payload):
    for r in payload["results"]:
        if r["poly"].replace(" ", "") == key.replace(" ", ""):
            return {"is_short": r["is_short"], "is_positive": r["is_positive"]}
    return None


def _relations_fact(key, payload):
    if key == "contains_second_component_minus_square":
        return _has_parabola_relation(payload)
    return payload.get(key)


def _tangents_fact(key, payload):
    if key == "directions":
        return [[_fraction_from_str(a) for a in d] for d in payload["directions"]]
    return payload.get(key)


# entry kind -> (fact key, payload) -> the payload's value for that fact
FACTS = {
    "invariance": lambda key, payload: payload.get(key),
    "pair": _pair_fact,
    "integrate": _integrate_fact,
    "tangents": _tangents_fact,
    "qshort": _qshort_fact,
    "relations": _relations_fact,
}


def _fraction_from_str(text):
    f = Fraction(text)
    return int(f) if f.denominator == 1 else f


def _has_parabola_relation(payload):
    for rel in payload.get("relations_raw", []):
        terms = {tuple(t["exponents"]): Fraction(t["coeff"]) for t in rel["terms"]}
        if set(terms) == {(0, 1), (2, 0)} and terms[(0, 1)] == -terms[(2, 0)]:
            return True
    return False


def _multiplier_matches(fact, payload):
    mult = payload.get("multiplier")
    if mult is None:
        return False
    mode_exact = mult["mode"] == "rational"
    expected = {int(k): Fraction(v) for k, v in fact.value.items()}
    for i, text in enumerate(mult["coeffs"]):
        want = expected.get(i, Fraction(0))
        if mode_exact:
            if Fraction(text) != want:
                return False
        else:
            tol = fact.rel_tol if fact.rel_tol is not None else 1e-25
            if abs(float(text) - float(want)) > tol * max(
                1.0, abs(float(want))
            ):
                return False
    return True
