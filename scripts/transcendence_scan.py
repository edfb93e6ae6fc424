#!/usr/bin/env python3
"""Relation-search scan over tail test curves built from the Euler series.

Usage: python scripts/transcendence_scan.py [--degree D]   (default 2)

For a grid of tail indices k and polynomial tuples, build the test curve
(x, (T_k E)(P_1(x)), ...) and search for polynomial relations of degree at
most D on a jet twice the monomial count.  Trivial kernels are evidence of
transcendence at that degree; any kernel vector found is printed.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # this checkout first

from interlace.sat import SatCurveSpec, build_sat_curve, monomial_exponents, relation_search  # noqa: E402
from interlace.series import Poly, euler_series  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--degree", type=int, default=2, help="maximal relation degree")
    degree = parser.parse_args().degree
    if degree < 1:
        parser.error("--degree must be at least 1")
    cases = [
        ("P = (x)", (Poly.from_coeffs([0, 1]),), 0),
        ("P = (x, 2x)", (Poly.from_coeffs([0, 1]), Poly.from_coeffs([0, 2])), 0),
        ("P = (x, 2x), k = 1", (Poly.from_coeffs([0, 1]), Poly.from_coeffs([0, 2])), 1),
        ("P = (2x, 3x), k = 2", (Poly.from_coeffs([0, 2]), Poly.from_coeffs([0, 3])), 2),
    ]
    for label, polys, k in cases:
        jet = 2 * len(monomial_exponents(1 + len(polys), degree))
        spec = SatCurveSpec((euler_series(jet + k),), polys, k=k, q=1)
        curve = build_sat_curve(spec)
        basis = relation_search(curve, degree, jet)
        tag = "evidence" if basis.transcendence_evidence else f"kernel dim {len(basis.basis)}"
        print(f"{label:24s} degree {degree}, jet {jet}: {tag}")
        for w in spec.warnings():
            print(f"{'':24s} note: {w}")
        names = ["x"] + [f"z{i}" for i in range(1, len(curve.components))]
        for rel in basis.basis:
            print(f"{'':24s} {rel.text(names)} = 0")


if __name__ == "__main__":
    main()
