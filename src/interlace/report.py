"""Every artifact format: canonical JSON, the trajectory CSV and SVG plots.

Each writer builds its file as one string and writes it with one call.
JSON has sorted keys and repr-exact floats, so repeated runs are
byte-identical apart from the single ``generated_at`` field.  The plots are
the unwrapped angle against log10(1/x), and log10 of the gap norm against
log10(x) with the per-probe contact orders.
"""

from __future__ import annotations

import datetime
import json
import math
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
    return _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path, columns):
    """``columns`` are x and then each component, one value per knot."""
    lines = [",".join(("x", "y1", "y2", "z1", "z2")[: len(columns)])]
    lines.extend(",".join(f"{v:.17g}" for v in row) for row in zip(*columns))
    return _write(path, "\n".join(lines) + "\n")


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
    """A self-contained SVG plot of ``lines``, each (points, color, width), and
    ``markers``, each (x, y, label); points with a non-finite coordinate are dropped.
    """
    kept = []
    for points, color, width in lines:
        points = [(float(x), float(y)) for x, y in points if math.isfinite(x) and math.isfinite(y)]
        if points:
            kept.append((points, color, width))
    xs = [p[0] for pts, _, _ in kept for p in pts] + [m[0] for m in markers]
    ys = [p[1] for pts, _, _ in kept for p in pts] + [m[1] for m in markers]
    x0, x1, y0, y1 = (min(xs), max(xs), min(ys), max(ys)) if xs else (0.0, 1.0, 0.0, 1.0)
    if x0 == x1:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y0 == y1:
        y0, y1 = y0 - 0.5, y1 + 0.5
    iw = WIDTH - MARGIN_L - MARGIN_R
    ih = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * iw

    def sy(y):
        return HEIGHT - MARGIN_B - (y - y0) / (y1 - y0) * ih

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
        fx = x0 + (x1 - x0) * i / 4
        fy = y0 + (y1 - y0) * i / 4
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
    for pts, color, width in kept:
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
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
    xs = [math.log10(1.0 / x) for x in winding_result.xs]
    line = (zip(xs, winding_result.thetas), BLUE, 1.5)
    return _write(path, _svg("winding angle", "log10(1/x)", "theta [rad]", [line]))


def contact_plot(eps, contact_report, path):
    """log10 gap norm against log10 x, with fitted contact-order slopes.

    Each probe carries a short segment of slope k through its point: the
    local power law the probe's order estimate asserts.
    """
    norms = [math.sqrt(a * a + b * b) for a, b in zip(*eps.cols)]
    points = ((math.log10(x), math.log10(n)) for x, n in zip(eps.xs, norms) if n > 0)
    lines = [(points, BLUE, 1.5)]
    markers = []
    half_width = 0.12  # decades on each side of the probe
    for p in contact_report.probes:
        if p.coincident or p.norm <= 0:
            continue
        cx, cy = math.log10(p.x), math.log10(p.norm)
        slope = half_width * p.k_hat
        lines.append(([(cx - half_width, cy - slope), (cx + half_width, cy + slope)], RED, 1.0))
        markers.append((cx, cy, f"k={p.k_hat:.3f}"))
    return _write(path, _svg("gap norm and contact order", "log10(x)", "log10||eps||", lines, markers))
