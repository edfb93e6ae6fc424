"""The pair diagnostics that the column-wise versions in ``interlace.dichotomy`` replaced.

``winding``, ``sign_census`` and ``_monotone_tail`` with their helpers,
verbatim apart from this docstring and the imports: they walk one row tuple
per knot and call dense output once per trajectory at each census midpoint.
The fast versions must return the same results, or raise the same errors.
"""

import math

from interlace import expr as _expr
from interlace.dichotomy import TWO_PI, CensusEntry, WindingResult
from interlace.errors import ZeroEpsilonError
from interlace.field import DIFFERENCE_VARS


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


def _monotone_tail(w, x_lo, x_hi):
    th = [theta for x, theta in zip(w.xs, w.thetas) if x_lo <= x <= x_hi]
    if len(th) < 3:
        return False
    diffs = [b - a for a, b in zip(th, th[1:])]
    return all(d >= 0 for d in diffs) or all(d <= 0 for d in diffs)
