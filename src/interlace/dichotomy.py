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

Both passes read the trajectories' float columns directly: the raw angles
are one ``map(atan2)`` over the two gap columns, and each census expression
is one generated function mapped over the zipped columns, so no list of
row tuples is built.  Dense output is called only between knots: by the
winding's refinement, and once per census midpoint for all four components.
"""

from __future__ import annotations

import bisect
import copy
import math
import operator
from dataclasses import asdict, dataclass
from itertools import compress, repeat

from . import expr as _expr
from .errors import BlowUpError, ZeroEpsilonError
from .field import DIFFERENCE_VARS

TWO_PI = 2.0 * math.pi
CENSUS_REFINE_REL = 1e-6  # a crossing is bisected to this relative width in x


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
    e1, e2 = eps.cols[0], eps.cols[1]
    raw = list(map(math.atan2, e2, e1))
    if 0.0 in e1:  # the first sample where both components vanish, if any
        for x, a, b in zip(xs, e1, e2):
            if a == 0.0 and b == 0.0:
                raise _vanishing(x)

    # refine intervals whose raw angle jump is too coarse, in grid order
    pi = math.pi
    coarse = [i for i, (a, b) in enumerate(zip(raw, raw[1:]))
              if abs((b - a + pi) % TWO_PI - pi) >= max_increment]
    inserted = 0
    for i in coarse:
        inserted += _refine(eps, xs, raw, i + inserted, max_increment, max_refinement)

    theta = raw[0]
    thetas = [theta]
    for r in raw[1:]:
        theta += (r - theta + pi) % TWO_PI - pi
        thetas.append(theta)
    total_turns = (thetas[-1] - thetas[0]) / TWO_PI
    return WindingResult(tuple(xs), tuple(thetas), total_turns)


def _refine(eps, xs, raw, i, max_increment, max_refinement):
    """Bisect the interval xs[i] .. xs[i + 1] in place; the count of samples inserted.

    Each sub-interval, from the left, is halved toward its left end until
    its raw angle increment drops below ``max_increment``: at most
    ``max_refinement`` times, and never below the spacing of floats.
    """
    end = first = i + 1
    pi = math.pi
    while i < end:
        depth = 0
        while abs((raw[i + 1] - raw[i] + pi) % TWO_PI - pi) >= max_increment:
            mid = 0.5 * (xs[i] + xs[i + 1])
            # an interval too short to halve cannot resolve the angle either;
            # halving it again would repeat the same interval without end
            if depth >= max_refinement or not xs[i] > mid > xs[i + 1]:
                raise ZeroEpsilonError(
                    f"cannot resolve the angle near x = {xs[i + 1]!r}; "
                    "the gap curve may pass through the origin"
                )
            a, b = eps(mid)[:2]
            if a == 0.0 and b == 0.0:
                raise _vanishing(mid)
            raw.insert(i + 1, math.atan2(b, a))
            xs.insert(i + 1, mid)
            depth += 1
            end += 1
        i += 1
    return end - first


def _vanishing(x):
    return ZeroEpsilonError(f"gap curve vanishes at x = {x!r}; direction undefined")


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


def sign_census(exprs, gamma, eps, window=None):
    """Strict sign changes of each expression along the pair, crossings bisected.

    Samples are the stored knots of the shared grid, read column by column
    (dense output there returns the knot values bit for bit); dense output
    is used only between knots, by the bisection, one call per midpoint for
    all four components, down to a bracket of relative width
    ``CENSUS_REFINE_REL``.  ``window`` restricts to [x_lo, x_hi].  For
    one-signed expressions the fitted slope of log|f| against log x over the
    window is reported as a lower-bound exponent diagnostic (a power-law
    floor candidate).  A value that overflows the float range raises
    BlowUpError naming the expression and the x.
    """
    if gamma.xs != eps.xs:
        raise ValueError("the census needs gamma and eps on one grid")
    cols = (gamma.xs, *gamma.cols, *eps.cols)
    if window is not None:
        lo, hi = window
        keep = [lo <= x <= hi for x in gamma.xs]
        cols = [list(compress(c, keep)) for c in cols]
    xs = cols[0]
    if len(xs) < 2:
        raise ValueError("census window holds fewer than two samples")
    joint = copy.copy(gamma)  # one dense-output call gives all four components
    joint.cols, joint.dcols = gamma.cols + eps.cols, gamma.dcols + eps.dcols

    dx = None  # log x minus its mean, shared by every decay fit
    entries = []
    for e in exprs:
        tree = e if not isinstance(e, str) else _expr.parse_expr(e, DIFFERENCE_VARS)
        text = _expr.to_text(tree)
        f = _expr.compile_expr(tree, DIFFERENCE_VARS, label=f"census {text}")
        fvals = []
        try:
            fvals.extend(map(f, zip(*cols)))  # keeps the values before a failure
        except OverflowError as exc:
            raise _overflow(text, xs[len(fvals)]) from exc
        pos = map(operator.gt, fvals, repeat(0.0))
        neg = map(operator.lt, fvals, repeat(0.0))
        signs = list(map(operator.sub, pos, neg))  # the sign of each value; NaN has none
        signed = list(compress(range(len(signs)), signs))  # the samples with a sign
        seen = [signs[i] for i in signed]
        flips = list(compress(signed[1:], map(operator.ne, seen, seen[1:])))
        crossings = tuple(
            _bisect_crossing(f, text, joint, xs[i - 1], signs[i - 1], xs[i])
            for i in flips
        )
        decay = None
        if not flips and 0.0 not in fvals:
            if dx is None:
                logx = list(map(math.log, xs))
                mx = math.fsum(logx) / len(xs)
                dx = [a - mx for a in logx]
                denom = math.fsum(map(operator.mul, dx, dx))
            logf = list(map(math.log, map(abs, fvals)))
            mf = math.fsum(logf) / len(xs)
            if denom > 0:
                decay = math.fsum(map(operator.mul, dx, [b - mf for b in logf])) / denom
        entries.append(
            CensusEntry(text, len(flips), seen[-1] if seen else 0, crossings, decay)
        )
    return entries


def _bisect_crossing(f, text, joint, x_hi, s_hi, x_lo):
    # trajectory grids are decreasing: x_hi > x_lo, and s_hi is the sign at x_hi
    while (x_hi - x_lo) > CENSUS_REFINE_REL * x_hi:
        mid = 0.5 * (x_hi + x_lo)
        try:
            v = f((mid, *joint(mid)))
        except OverflowError as exc:
            raise _overflow(text, mid) from exc
        s_mid = (v > 0) - (v < 0)
        if s_mid == 0:
            return mid
        if s_mid == s_hi:
            x_hi = mid
        else:
            x_lo = mid
    return 0.5 * (x_hi + x_lo)


def _overflow(text, x):
    return BlowUpError(f"census expression {text!r} overflows the float range", last_x=x)


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
    if not x_lo <= x_hi:  # an empty window, NaN bounds included
        return False
    # winding samples run from large x to small, so the window is one slice
    start = bisect.bisect_left(w.xs, -x_hi, key=operator.neg)
    stop = bisect.bisect_right(w.xs, -x_lo, key=operator.neg)
    th = w.thetas[start:stop]
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
