"""Every artifact format: canonical JSON, the trajectory CSV and SVG plots.

Each writer builds its file as one string and writes it with one call, and
formats the file's floats in one C-level call: the CSV by one ``%`` format
of its repeated row template, each plot line by one ``%`` format of its
interleaved screen coordinates, and each JSON list of finite floats by one
``join``.  JSON is rendered as ``json.dumps(indent=2, sort_keys=True)``
renders it, with repr-exact floats, so repeated runs are byte-identical
apart from the single ``generated_at`` field.  The plots are the unwrapped
angle against log10(1/x), and log10 of the gap norm against log10(x) with
the per-probe contact orders.
"""

from __future__ import annotations

import datetime
import json
import math
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _ascii
from operator import add, and_, gt, mul, truediv
from pathlib import Path

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 48
BLUE, RED = "#1f5fa8", "#b33"


def timestamp():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write(path, text):
    """Write ``text`` to ``path`` in one call, making its directory first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def write_json(path, payload):
    payload = {**payload, "generated_at": timestamp()}
    return _write(path, _json(payload, "\n", set()) + "\n")


def _key(k):
    """A dict key as the string that ``json.dumps`` coerces it to."""
    if isinstance(k, str):
        return k
    if isinstance(k, (float, int)) or k is None:
        return _json(k, "", None)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _json(o, newline, seen):
    """``o`` as ``json.dumps(o, indent=2, sort_keys=True)`` renders it, at the
    indentation that ``newline`` opens; ``seen`` holds the containers open above it."""
    if isinstance(o, str):
        return _ascii(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        return float.__repr__(o) if math.isfinite(o) else "Infinity" if o > 0 else "-Infinity"
    if not isinstance(o, (list, tuple, dict)):
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
    brackets = "{}" if isinstance(o, dict) else "[]"
    if not o:
        return brackets
    if id(o) in seen:
        raise ValueError("Circular reference detected")
    seen.add(id(o))
    inner = newline + "  "
    if isinstance(o, dict):
        items = [_ascii(_key(k)) + ": " + _json(v, inner, seen) for k, v in sorted(o.items())]
    elif {*map(type, o)} == {float} and all(map(math.isfinite, o)):
        items = map(float.__repr__, o)
    else:
        items = [_json(v, inner, seen) for v in o]
    seen.remove(id(o))
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def write_csv(path, columns):
    """``columns`` are x and then each component, one value per knot."""
    header = ",".join(("x", "y1", "y2", "z1", "z2")[: len(columns)]) + "\n"
    values = tuple(chain.from_iterable(zip(*columns)))
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    return _write(path, header + row * (len(values) // (len(columns) or 1)) % values)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timestamps(obj):
    """Recursively drop generated_at fields (for determinism comparisons)."""
    if isinstance(obj, dict):
        return {k: strip_timestamps(v) for k, v in obj.items() if k != "generated_at"}
    if isinstance(obj, list):
        return [strip_timestamps(v) for v in obj]
    return obj


def _svg(title, xlabel, ylabel, lines, markers=()):
    """A self-contained SVG plot of ``lines``, each (xs, ys, color, width) with
    the point coordinates as two sequences, and ``markers``, each (x, y, label).

    A point with a non-finite coordinate is dropped, and so is a line left
    with no point.  Each polyline is one ``%`` format over its interleaved
    screen coordinates.
    """
    kept = []
    for xs, ys, color, width in lines:
        finite = list(map(and_, map(math.isfinite, xs), map(math.isfinite, ys)))
        if any(finite):
            kept.append(([*compress(xs, finite)], [*compress(ys, finite)], color, width))
    xs = list(chain(*(line[0] for line in kept), (m[0] for m in markers)))
    ys = list(chain(*(line[1] for line in kept), (m[1] for m in markers)))
    x0, x1, y0, y1 = (min(xs), max(xs), min(ys), max(ys)) if xs else (0.0, 1.0, 0.0, 1.0)
    if x0 == x1:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y0 == y1:
        y0, y1 = y0 - 0.5, y1 + 0.5
    iw = WIDTH - MARGIN_L - MARGIN_R
    ih = HEIGHT - MARGIN_T - MARGIN_B
    dx, dy = x1 - x0, y1 - y0

    def sx(x):
        return MARGIN_L + (x - x0) / dx * iw

    def sy(y):
        return HEIGHT - MARGIN_B - (y - y0) / dy * ih

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH/2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{iw}" height="{ih}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    for i in range(5):  # ticks
        fx = x0 + dx * i / 4
        fy = y0 + dy * i / 4
        out += [
            f'<text x="{sx(fx):.1f}" y="{HEIGHT - MARGIN_B + 16}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="10">{fx:.4g}</text>',
            f'<text x="{MARGIN_L - 6}" y="{sy(fy):.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10" dominant-baseline="middle">{fy:.4g}</text>',
        ]
    out += [
        f'<text x="{MARGIN_L + iw/2:.1f}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{MARGIN_T + ih/2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {MARGIN_T + ih/2:.1f})">{ylabel}</text>',
    ]
    for xs, ys, color, width in kept:
        px = [MARGIN_L + (x - x0) / dx * iw for x in xs]
        py = [HEIGHT - MARGIN_B - (y - y0) / dy * ih for y in ys]
        coords = " ".join(["%.2f,%.2f"] * len(px)) % tuple(chain.from_iterable(zip(px, py)))
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="{width}"/>')
    for x, y, label in markers:
        out += [
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{RED}"/>',
            f'<text x="{sx(x) + 6:.2f}" y="{sy(y) - 6:.2f}" '
            f'font-family="sans-serif" font-size="10" fill="{RED}">{label}</text>',
        ]
    out.append("</svg>")
    return "\n".join(out) + "\n"


def theta_plot(winding_result, path):
    """Unwrapped angle against log10(1/x)."""
    xs = list(map(math.log10, map(truediv, repeat(1.0), winding_result.xs)))
    line = (xs, winding_result.thetas, BLUE, 1.5)
    return _write(path, _svg("winding angle", "log10(1/x)", "theta [rad]", [line]))


def contact_plot(eps, contact_report, path):
    """log10 gap norm against log10 x, with fitted contact-order slopes.

    Each probe carries a short segment of slope k through its point: the
    local power law the probe's order estimate asserts.
    """
    a, b = eps.cols
    norms = list(map(math.sqrt, map(add, map(mul, a, a), map(mul, b, b))))
    positive = list(map(gt, norms, repeat(0)))
    lines = [(list(map(math.log10, compress(eps.xs, positive))),
              list(map(math.log10, compress(norms, positive))), BLUE, 1.5)]
    markers = []
    half_width = 0.12  # decades on each side of the probe
    for p in contact_report.probes:
        if p.coincident or p.norm <= 0:
            continue
        cx, cy = math.log10(p.x), math.log10(p.norm)
        slope = half_width * p.k_hat
        lines.append(([cx - half_width, cx + half_width], [cy - slope, cy + slope], RED, 1.0))
        markers.append((cx, cy, f"k={p.k_hat:.3f}"))
    return _write(path, _svg("gap norm and contact order", "log10(x)", "log10||eps||", lines, markers))
