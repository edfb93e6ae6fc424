#!/usr/bin/env python3
"""Winding demo: sweep the rotation strength and watch the verdict flip.

The gap field (a z + b z_perp)/x^2 turns through b (1/x_end - 1/x_start)
radians; small b stays HardyCandidate, large b interlaces, and intermediate
runs come out Inconclusive -- the classifier reports its thresholds.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # this checkout first

from interlace.dichotomy import build_pair_report  # noqa: E402
from interlace.field import ReducedSystem  # noqa: E402
from interlace.integrate import IVP, solve_pair  # noqa: E402


def run(a, b, x_end=0.05):
    f1 = f"({a}*y1 - {b}*y2)/x^2"
    f2 = f"({a}*y2 + {b}*y1)/x^2"
    system = ReducedSystem.from_text(f1, f2)
    gamma, eps = solve_pair(IVP(system, 1.0, x_end, (0.0, 0.0)), (1.0, 0.0))
    report = build_pair_report(gamma, eps, (0.5, 0.1, x_end), ("z1", "z2"))
    return report


def main():
    print(f"{'b':>6} {'total turns':>12} {'z1 changes':>11} verdict")
    for b in (0, 0.05, 0.5, 1, 2):
        rep = run(0.1, b)
        turns = 0.0 if rep.winding is None else rep.winding.total_turns
        changes = {c.expr_text: c.sign_changes for c in rep.census}.get("z1", "-")
        print(f"{b:6.2f} {turns:12.4f} {changes:>11} {rep.verdict}")


if __name__ == "__main__":
    main()
