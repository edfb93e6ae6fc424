"""The artifact writers that ``interlace.report``'s string builders replaced.

``timestamp``, ``write_json``, the plot geometry, ``SvgCanvas``,
``theta_plot`` and ``contact_plot`` from ``interlace.report``, and
``Trajectory.write_csv`` from ``interlace.integrate`` as the function
``write_csv(self, fh)``, verbatim apart from this docstring and the
imports.  The new writers must produce the same bytes, or raise the same
errors.
"""

import datetime
import json
import math
from pathlib import Path

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 48


def timestamp():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def write_json(path, payload):
    payload = {**payload, "generated_at": timestamp()}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_csv(self, fh):
    names = ["x", "y1", "y2", "z1", "z2"][: 1 + self.dimension]
    fh.write(",".join(names) + "\n")
    for row in zip(self.xs, *self.cols):
        fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


class SvgCanvas:
    """Minimal deterministic SVG line-plot writer (no external assets)."""

    def __init__(self, title, xlabel, ylabel):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.series = []  # (points, color, width)
        self.markers = []  # (x, y, label)

    def add_line(self, xs, ys, color="#1f5fa8", width=1.5):
        pts = [(float(a), float(b)) for a, b in zip(xs, ys)
               if math.isfinite(a) and math.isfinite(b)]
        if pts:
            self.series.append((pts, color, width))

    def add_marker(self, x, y, label, color="#b33"):
        self.markers.append((float(x), float(y), label, color))

    def _bounds(self):
        xs = [p[0] for pts, _, _ in self.series for p in pts]
        ys = [p[1] for pts, _, _ in self.series for p in pts]
        xs += [m[0] for m in self.markers]
        ys += [m[1] for m in self.markers]
        if not xs:
            return (0.0, 1.0, 0.0, 1.0)
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x0 == x1:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y0 == y1:
            y0, y1 = y0 - 0.5, y1 + 0.5
        return x0, x1, y0, y1

    def render(self):
        x0, x1, y0, y1 = self._bounds()
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
            f'font-family="sans-serif" font-size="14">{self.title}</text>',
        ]
        # axes box and ticks
        out.append(
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{iw}" height="{ih}" '
            'fill="none" stroke="#444" stroke-width="1"/>'
        )
        for i in range(5):
            fx = x0 + (x1 - x0) * i / 4
            fy = y0 + (y1 - y0) * i / 4
            out.append(
                f'<text x="{sx(fx):.1f}" y="{HEIGHT - MARGIN_B + 16}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="10">'
                f"{fx:.4g}</text>"
            )
            out.append(
                f'<text x="{MARGIN_L - 6}" y="{sy(fy):.1f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="10" dominant-baseline="middle">'
                f"{fy:.4g}</text>"
            )
        out.append(
            f'<text x="{MARGIN_L + iw/2:.1f}" y="{HEIGHT - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{self.xlabel}</text>'
        )
        out.append(
            f'<text x="14" y="{MARGIN_T + ih/2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {MARGIN_T + ih/2:.1f})">{self.ylabel}</text>'
        )
        for pts, color, width in self.series:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="{width}"/>'
            )
        for x, y, label, color in self.markers:
            out.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>'
            )
            out.append(
                f'<text x="{sx(x) + 6:.2f}" y="{sy(y) - 6:.2f}" '
                f'font-family="sans-serif" font-size="10" fill="{color}">{label}</text>'
            )
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def write(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.render())
        return path


def theta_plot(winding_result, path):
    """Unwrapped angle against log10(1/x)."""
    canvas = SvgCanvas("winding angle", "log10(1/x)", "theta [rad]")
    xs = [math.log10(1.0 / x) for x in winding_result.xs]
    canvas.add_line(xs, winding_result.thetas)
    return canvas.write(path)


def contact_plot(eps, contact_report, path):
    """log10 gap norm against log10 x, with fitted contact-order slopes.

    Each probe carries a short segment of slope k through its point: the
    local power law the probe's order estimate asserts.
    """
    canvas = SvgCanvas("gap norm and contact order", "log10(x)", "log10||eps||")
    norms = [math.sqrt(a * a + b * b) for a, b in zip(*eps.cols)]
    kept = [(x, n) for x, n in zip(eps.xs, norms) if n > 0]
    if kept:
        xs, norms = zip(*kept)
        canvas.add_line(map(math.log10, xs), map(math.log10, norms))
    half_width = 0.12  # decades on each side of the probe
    for p in contact_report.probes:
        if p.coincident or p.norm <= 0:
            continue
        cx, cy = math.log10(p.x), math.log10(p.norm)
        canvas.add_line(
            [cx - half_width, cx + half_width],
            [cy - half_width * p.k_hat, cy + half_width * p.k_hat],
            color="#b33",
            width=1.0,
        )
        canvas.add_marker(cx, cy, f"k={p.k_hat:.3f}")
    return canvas.write(path)
