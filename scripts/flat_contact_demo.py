#!/usr/bin/env python3
"""Flat contact demo: how fast does the gap between two solutions die?

Integrates the pair system for y' = (y-x)/x^2 with a gap started at 0.1 and
compares the measured gap against the closed form 0.1 exp(2 - 1/x), printing
the contact-order estimate at a sweep of probes.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # this checkout first

from interlace.dichotomy import contact_order  # noqa: E402
from interlace.field import ReducedSystem  # noqa: E402
from interlace.integrate import IVP, solve_pair  # noqa: E402


def main():
    system = ReducedSystem.from_text("(y1-x)/x^2", "(y2-2*x)/(2*x^2)")
    ivp = IVP(system, 0.5, 0.02, (1.0, 2.0))
    gamma, eps = solve_pair(ivp, (0.1, 0.0))

    probes = [0.2, 0.1, 0.05, 0.03, 0.02]
    report = contact_order(eps, probes)
    print(f"{'x':>8} {'gap':>14} {'closed form':>14} {'contact order':>14}")
    for p in report.probes:
        want = 0.1 * math.exp(2 - 1 / p.x)
        print(f"{p.x:8.3f} {p.norm:14.6e} {want:14.6e} {p.k_hat:14.4f}")
    print("flat-contact evidence:", report.flat_evidence)


if __name__ == "__main__":
    main()
