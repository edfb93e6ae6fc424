"""Pairwise trajectory diagnostics: flat contact, winding, ultimate signs.

These are finite-sample estimators for asymptotic notions, so every verdict
is evidence, never proof: the classifier always carries the thresholds it
used and the raw quantities it saw.  Conventions:

* contact order  k(x) = log ||eps(x)|| / log x  (flat contact shows up as k
  growing without bound along shrinking probes);
* the winding angle theta is the continuous lift of atan2(eps_2, eps_1),
  refined until no recorded increment exceeds pi/2, and
  total_turns = (theta(x_end) - theta(x_start)) / 2 pi;
* the sign census counts strict sign changes of expressions in
  (x, y1, y2, z1, z2) along the pair, localizing each crossing by bisection.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import expr as _expr
from .errors import ZeroEpsilonError
from .field import DIFFERENCE_VARS

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ContactProbe:
    x: float
    norm: float
    k_hat: float
    coincident: bool = False


@dataclass(frozen=True)
class ContactReport:
    probes: tuple
    flat_evidence: bool
    flat_bound: float

    def to_json_dict(self):
        return {
            "flat_evidence": self.flat_evidence,
            "flat_bound": self.flat_bound,
            "probes": [
                {"x": p.x, "norm": p.norm, "k_hat": p.k_hat, "coincident": p.coincident}
                for p in self.probes
            ],
        }


def contact_order(eps, probes, flat_bound=10.0) -> ContactReport:
    """k(x) = log||eps(x)||/log x at each probe, plus a flat-contact flag.

    The flag is set when k is strictly increasing over the probes (ordered
    large to small) and exceeds ``flat_bound`` at the smallest one.  An
    exactly zero gap is reported as coincidence, not as an error.  Probes
    must lie in (0, 1), where log x is negative.
    """
    bad = [x for x in probes if not 0 < x < 1]
    if bad:
        raise ValueError(f"contact probes must lie in (0, 1); got {bad}")
    rows = []
    for x in probes:
        v = eps(x)
        norm = math.hypot(*v)
        if norm == 0.0:
            rows.append(ContactProbe(float(x), 0.0, math.inf, coincident=True))
        else:
            rows.append(ContactProbe(float(x), norm, math.log(norm) / math.log(x)))
    ks = [p.k_hat for p in rows if not p.coincident]
    increasing = all(a < b for a, b in zip(ks, ks[1:])) and len(ks) == len(rows)
    flat = increasing and bool(rows) and rows[-1].k_hat > flat_bound
    return ContactReport(tuple(rows), flat, flat_bound)


@dataclass(frozen=True)
class WindingResult:
    xs: tuple
    thetas: tuple
    total_turns: float

    @property
    def total_angle(self):
        return self.thetas[-1] - self.thetas[0]

    def to_json_dict(self, max_samples=4096):
        if max_samples < 1:
            raise ValueError(f"max_samples must be at least 1, got {max_samples}")
        xs, th = list(self.xs), list(self.thetas)
        if len(xs) > max_samples:
            # as np.linspace(0, n - 1, max_samples).round(): one sample is the first
            if max_samples == 1:
                idx = [0]
            else:
                step = (len(xs) - 1) / (max_samples - 1)
                idx = [round(i * step) for i in range(max_samples - 1)] + [len(xs) - 1]
            xs = [xs[i] for i in idx]
            th = [th[i] for i in idx]
        return {"total_turns": self.total_turns, "total_angle": self.total_angle,
                "x": xs, "theta": th}


def winding(eps, max_increment=math.pi / 2, max_refinement=48) -> WindingResult:
    """Continuous winding angle of the gap curve, unwrapped over the grid.

    Samples start from the trajectory grid and intervals are bisected (via
    dense output) until every recorded increment is below ``max_increment``.
    The gap must not vanish at any sample.
    """
    xs = list(eps.xs)
    raw = [_angle_of(v, x) for v, x in zip(zip(*eps.cols), xs)]

    # refine intervals whose raw angle jump is too coarse
    i = 0
    while i + 1 < len(xs):
        depth = 0
        while _gap(raw[i], raw[i + 1]) >= max_increment:
            if depth >= max_refinement:
                raise ZeroEpsilonError(
                    f"cannot resolve the angle near x = {xs[i + 1]!r}; "
                    "the gap curve may pass through the origin"
                )
            mid = 0.5 * (xs[i] + xs[i + 1])
            raw.insert(i + 1, _angle_of(eps(mid), mid))
            xs.insert(i + 1, mid)
            depth += 1
        i += 1

    thetas = [raw[0]]
    for i in range(1, len(xs)):
        d = _gap_signed(thetas[-1], raw[i])
        thetas.append(thetas[-1] + d)
    total_turns = (thetas[-1] - thetas[0]) / TWO_PI
    return WindingResult(tuple(xs), tuple(thetas), total_turns)


def _angle_of(v, x):
    if v[0] == 0.0 and v[1] == 0.0:
        raise ZeroEpsilonError(f"gap curve vanishes at x = {x!r}; direction undefined")
    return math.atan2(v[1], v[0])


def _gap(a, b):
    return abs(_gap_signed(a, b))


def _gap_signed(a, b):
    return (b - a + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class CensusEntry:
    expr_text: str
    sign_changes: int
    final_sign: int
    crossings: tuple = ()
    decay_exponent: float | None = None

    def to_json_dict(self):
        return {
            "expr": self.expr_text,
            "sign_changes": self.sign_changes,
            "final_sign": self.final_sign,
            "crossings": list(self.crossings),
            "decay_exponent": self.decay_exponent,
        }


def sign_census(exprs, gamma, eps, window=None, refine_rel=1e-6):
    """Strict sign changes of each expression along the pair, crossings bisected.

    Samples are the stored knots of the shared grid (dense output there
    returns the knot rows bit for bit); dense output is used only between
    knots, by the bisection.  ``window`` restricts to [x_lo, x_hi].  For
    one-signed expressions the fitted slope of log|f| against log x over the
    window is reported as a lower-bound exponent diagnostic (a power-law
    floor candidate).
    """
    if gamma.xs != eps.xs:
        raise ValueError("the census needs gamma and eps on one grid")
    rows = list(zip(gamma.xs, *gamma.cols, *eps.cols))
    if window is not None:
        lo, hi = window
        rows = [row for row in rows if lo <= row[0] <= hi]
    if len(rows) < 2:
        raise ValueError("census window holds fewer than two samples")
    xs = [row[0] for row in rows]

    entries = []
    for e in exprs:
        tree = e if not isinstance(e, str) else _expr.parse_expr(e, DIFFERENCE_VARS)
        text = _expr.to_text(tree)
        f = _expr.compile_expr(tree, DIFFERENCE_VARS)
        fvals = [f(row) for row in rows]
        crossings = []
        changes = 0
        last_sign = 0
        for i, v in enumerate(fvals):
            s = _sign(v)
            if s == 0:
                continue
            if last_sign != 0 and s != last_sign:
                changes += 1
                if i > 0:
                    crossings.append(_bisect_crossing(
                        f, gamma, eps, xs[i - 1], fvals[i - 1], xs[i], refine_rel
                    ))
            last_sign = s
        decay = None
        if changes == 0 and all(v != 0 for v in fvals):
            logx = [math.log(x) for x in xs]
            logf = [math.log(abs(v)) for v in fvals]
            mx, mf = math.fsum(logx) / len(xs), math.fsum(logf) / len(xs)
            denom = math.fsum((a - mx) * (a - mx) for a in logx)
            if denom > 0:
                decay = math.fsum((a - mx) * (b - mf) for a, b in zip(logx, logf)) / denom
        entries.append(
            CensusEntry(text, changes, last_sign, tuple(crossings), decay)
        )
    return entries


def _dense_value(f, gamma, eps, x):
    return f((x, *gamma(x), *eps(x)))


def _sign(v):
    return (v > 0) - (v < 0)


def _bisect_crossing(f, gamma, eps, x_hi, f_hi, x_lo, refine_rel):
    # trajectory grids are decreasing: x_hi > x_lo
    while (x_hi - x_lo) > refine_rel * x_hi:
        mid = 0.5 * (x_hi + x_lo)
        f_mid = _dense_value(f, gamma, eps, mid)
        if _sign(f_mid) == 0:
            return mid
        if _sign(f_mid) == _sign(f_hi):
            x_hi, f_hi = mid, f_mid
        else:
            x_lo = mid
    return 0.5 * (x_hi + x_lo)


@dataclass(frozen=True)
class Thresholds:
    turn_threshold: float = 3.0
    hardy_turn_bound: float = 0.5
    flat_bound: float = 10.0
    final_decade: float = 10.0  # window [x_end, final_decade * x_end]

    def __post_init__(self):
        for name, value in self.to_json_dict().items():
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")

    def to_json_dict(self):
        return asdict(self)


VERDICT_INTERLACED = "Interlaced"
VERDICT_HARDY = "HardyCandidate"
VERDICT_INCONCLUSIVE = "Inconclusive"
VERDICT_COINCIDENT = "ExactCoincidence"


@dataclass(frozen=True)
class PairReport:
    """Everything measured about one (solution, gap) pair, plus the verdict."""

    contact: ContactReport
    winding: WindingResult | None
    census: tuple
    verdict: str
    thresholds: Thresholds
    notes: tuple = ()

    def to_json_dict(self):
        return {
            "verdict": self.verdict,
            "thresholds": self.thresholds.to_json_dict(),
            "contact": self.contact.to_json_dict(),
            "winding": None if self.winding is None else self.winding.to_json_dict(),
            "census": [c.to_json_dict() for c in self.census],
            "notes": list(self.notes),
        }


def classify(contact, winding_result, census, thresholds=Thresholds(), x_end=None):
    """Evidence-based verdict: Interlaced / HardyCandidate / Inconclusive.

    Interlaced: |total_turns| >= turn_threshold and the angle moves
    monotonically over the final decade of x.  HardyCandidate: bounded
    turning (|total_turns| < hardy_turn_bound) and no censused expression
    changes sign in the final decade.  Anything else is Inconclusive.
    """
    if any(p.coincident for p in contact.probes):
        return VERDICT_COINCIDENT
    if winding_result is None:
        return VERDICT_INCONCLUSIVE
    turns = winding_result.total_turns
    if x_end is None:
        x_end = winding_result.xs[-1]
    decade_hi = thresholds.final_decade * x_end

    if abs(turns) >= thresholds.turn_threshold and _monotone_tail(
        winding_result, x_end, decade_hi
    ):
        return VERDICT_INTERLACED
    if abs(turns) < thresholds.hardy_turn_bound and all(
        _no_crossing_in(c, x_end, decade_hi) for c in census
    ):
        return VERDICT_HARDY
    return VERDICT_INCONCLUSIVE


def _monotone_tail(w, x_lo, x_hi):
    th = [theta for x, theta in zip(w.xs, w.thetas) if x_lo <= x <= x_hi]
    if len(th) < 3:
        return False
    diffs = [b - a for a, b in zip(th, th[1:])]
    return all(d >= 0 for d in diffs) or all(d <= 0 for d in diffs)


def _no_crossing_in(entry, x_lo, x_hi):
    return all(not (x_lo <= x <= x_hi) for x in entry.crossings)


def build_pair_report(gamma, eps, probes, census_exprs, thresholds=Thresholds()):
    """Run the full diagnostic pipeline on a solved pair."""
    contact = contact_order(eps, probes, thresholds.flat_bound)
    notes = []
    if any(p.coincident for p in contact.probes):
        w = None
        census = ()
        notes.append("gap vanishes at a probe: solutions coincide to solver accuracy")
    else:
        w = winding(eps)
        census = tuple(sign_census(census_exprs, gamma, eps))
    x_end = float(eps.xs[-1])
    verdict = classify(contact, w, census, thresholds, x_end=x_end)
    return PairReport(contact, w, census, verdict, thresholds, tuple(notes))
