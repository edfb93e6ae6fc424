"""Catalog of the worked example fields, curves and scenarios.

Every expected fact carries a provenance tag: ``literature`` for statements
taken from published sources, ``derived`` for values computed here from
closed forms or exact series algebra, ``trivial`` for bookkeeping facts.
The suite runner re-derives each fact and reports agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .config import RunConfig
from .curve import FormalCurve
from .series import TruncatedSeries, euler_series, exp_series, float_mode, tail_T

LITERATURE = "literature"
DERIVED = "derived"
TRIVIAL = "trivial"


@dataclass(frozen=True)
class Fact:
    key: str
    value: object
    provenance: str
    rel_tol: float | None = None


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    kind: str  # invariance | pair | integrate | qshort | relations | tangents
    description: str
    config: RunConfig
    expected: tuple = ()
    curve_builder: object = None  # optional callable(order, precision) -> FormalCurve


def _flat_tower_curve(order, precision=128):
    """(t, E(t), t*exp(E(t)/t)) in big-float mode.

    E(t)/t has constant term 1, so the third component is t e exp(T_1 E)
    with an irrational factor; this curve exists only in float mode and is
    assembled directly from series primitives (the DSL's division is
    unit-only by design).
    """
    mode = float_mode(precision)
    e_high = euler_series(order + 1, mode, "t")
    t = TruncatedSeries.identity(order, mode, "t")
    one = TruncatedSeries.constant(1, order, mode, "t")
    ratio = one + tail_T(e_high, 1)  # E(t)/t exactly, valuation shift by hand
    z = t * exp_series(ratio)
    return FormalCurve((t, e_high.truncated(order), z))


_ENTRIES = [
    RegistryEntry(
        name="xi1",
        kind="invariance",
        description=(
            "2x^2 d/dx + 2(y-x) d/dy + (z-2x) d/dz with invariant curve "
            "(t, E(t), E(2t)); separated pencil, Euler-series center curve"
        ),
        config=RunConfig(
            field_components=("2*x^2", "2*(y-x)", "z-2*x"),
            curve="t, E(t), E(2*t)",
            order=30,
        ),
        expected=(
            Fact("invariant", True, LITERATURE),
            Fact("multiplier", {"2": "2"}, DERIVED),
        ),
    ),
    RegistryEntry(
        name="xi2",
        kind="invariance",
        description=(
            "x^2 d/dx + (y-x) d/dy - (z+x) d/dz with invariant curve "
            "(t, E(t), E(-t)); mirrored-argument Euler tail"
        ),
        config=RunConfig(
            field_components=("x^2", "y-x", "-(z+x)"),
            curve="t, E(t), E(-t)",
            order=30,
        ),
        expected=(
            Fact("invariant", True, LITERATURE),
            Fact("multiplier", {"2": "1"}, DERIVED),
        ),
    ),
    RegistryEntry(
        name="xi3",
        kind="invariance",
        description=(
            "x^2 d/dx + (y-x) d/dy + ((1+2x)/(1+x)^2 z - x(1+2x)/(1+x)) d/dz "
            "with invariant curve (t, E(t), E(t+t^2))"
        ),
        config=RunConfig(
            field_components=(
                "x^2",
                "y-x",
                "(1+2*x)/(1+x)^2*z - x*(1+2*x)/(1+x)",
            ),
            curve="t, E(t), E(t+t^2)",
            order=30,
        ),
        expected=(
            Fact("invariant", True, LITERATURE),
            Fact("multiplier", {"2": "1"}, DERIVED),
        ),
    ),
    RegistryEntry(
        name="xi4_mu1",
        kind="invariance",
        description=(
            "x^2 d/dx + (y-x) d/dy + yz d/dz with invariant curve "
            "(t, E(t), t exp(E(t)))"
        ),
        config=RunConfig(
            field_components=("x^2", "y-x", "y*z"),
            curve="t, E(t), t*exp(E(t))",
            order=30,
        ),
        expected=(
            Fact("invariant", True, LITERATURE),
            Fact("multiplier", {"2": "1"}, DERIVED),
        ),
    ),
    RegistryEntry(
        name="xi4_mu2",
        kind="invariance",
        description="same field as xi4_mu1 with the doubled curve (t, E(t), 2t exp(E(t)))",
        config=RunConfig(
            field_components=("x^2", "y-x", "y*z"),
            curve="t, E(t), 2*t*exp(E(t))",
            order=30,
        ),
        expected=(
            Fact("invariant", True, LITERATURE),
            Fact("multiplier", {"2": "1"}, DERIVED),
        ),
    ),
    RegistryEntry(
        name="flat_tower",
        kind="invariance",
        description=(
            "x^3 d/dx + x(y-x) d/dy + z(y-x)(1-x) d/dz with the big-float "
            "curve (t, E(t), t exp(E(t)/t)); the exp factor e is irrational"
        ),
        config=RunConfig(
            field_components=("x^3", "x*(y-x)", "z*(y-x)*(1-x)"),
            order=20,
            mode="float",
            precision=128,
        ),
        expected=(
            Fact("invariant", True, LITERATURE),
            Fact("multiplier", {"3": "1"}, DERIVED, rel_tol=1e-30),
        ),
        curve_builder=_flat_tower_curve,
    ),
    RegistryEntry(
        name="log_demo",
        kind="integrate",
        description=(
            "x^2 d/dx + y^2 x d/dy + z d/dz reduced to y' = y^2/x, z' = z/x^2; "
            "solutions carry log terms, so this entry is numeric only"
        ),
        config=RunConfig(
            f1="y1^2/x",
            f2="y2/x^2",
            x_start=0.5,
            x_end=0.05,
            y0=(1.4426950408889634, 0.3),  # 1/log(2), arbitrary z
        ),
        expected=(
            # y(x) = 1/log(alpha/x) with alpha = 1 fixed by the start value
            Fact("y1_end", 0.33380820069533407, DERIVED, rel_tol=1e-7),
            # z(x) = z0 exp(1/x0 - 1/x); z sits below atol/rtol, so the
            # absolute floor governs its accuracy here
            Fact("y2_end", 4.568993923413789e-09, DERIVED, rel_tol=1e-3),
        ),
    ),
    RegistryEntry(
        name="euler_pair",
        kind="pair",
        description=(
            "gap dynamics of the doubled-curve system: dz1/dx = z1/x^2 decays "
            "like exp(-1/x), a flat contact exemplar"
        ),
        config=RunConfig(
            f1="(y1-x)/x^2",
            f2="(y2-2*x)/(2*x^2)",
            x_start=0.5,
            x_end=0.02,
            y0=(1.0, 2.0),
            eps0=(0.1, 0.0),
            probes=(0.1, 0.05, 0.02),
            census=("z1", "z2", "y1-x"),
        ),
        expected=(
            Fact("verdict", "HardyCandidate", DERIVED),
            # eps(x) = 0.1 exp(2 - 1/x)
            Fact("eps_norm@0.1", 3.354626279025119e-05, DERIVED, rel_tol=1e-3),
            Fact("eps_norm@0.05", 1.522997974471263e-09, DERIVED, rel_tol=1e-3),
            Fact("k_hat@0.1", 4.4743558552260145, DERIVED, rel_tol=1e-2),
            Fact("k_hat@0.05", 6.7771693993562545, DERIVED, rel_tol=1e-2),
            Fact("z1_sign_changes", 0, DERIVED),
        ),
    ),
    RegistryEntry(
        name="rotating",
        kind="pair",
        description=(
            "gap field (a z + b z_perp)/x^2 with a=0.1, b=1: the gap spirals, "
            "theta(x) = theta0 - b (1/x - 1/x0)"
        ),
        config=RunConfig(
            f1="(y1/10 - y2)/x^2",
            f2="(y2/10 + y1)/x^2",
            x_start=1.0,
            x_end=0.01,
            y0=(0.0, 0.0),
            eps0=(1.0, 0.0),
            probes=(0.5, 0.1, 0.02),
            census=("z1",),
        ),
        expected=(
            Fact("verdict", "Interlaced", DERIVED),
            Fact("total_angle", -99.0, DERIVED, rel_tol=1e-3),
            Fact("total_turns", -15.756339366097638, DERIVED, rel_tol=1e-3),
            Fact("z1_sign_changes", 32, DERIVED),
        ),
    ),
    RegistryEntry(
        name="rotating_radial",
        kind="pair",
        description="pure radial gap field (b=0): no turning, one-signed gap",
        config=RunConfig(
            f1="y1/(10*x^2)",
            f2="y2/(10*x^2)",
            x_start=1.0,
            x_end=0.01,
            y0=(0.0, 0.0),
            eps0=(1.0, 0.0),
            probes=(0.5, 0.1, 0.02),
            census=("z1",),
        ),
        expected=(
            Fact("verdict", "HardyCandidate", DERIVED),
            Fact("total_turns", 0.0, DERIVED, rel_tol=1e-6),
            Fact("z1_sign_changes", 0, DERIVED),
        ),
    ),
    RegistryEntry(
        name="qshort_catalog",
        kind="qshort",
        description="shortness/positivity verdicts for the catalog polynomials, q = 1",
        config=RunConfig(poly="x; 2*x; -x; x+x^2", q=1),
        expected=(
            Fact("x", {"is_short": True, "is_positive": True}, LITERATURE),
            Fact("2*x", {"is_short": True, "is_positive": True}, LITERATURE),
            Fact("-x", {"is_short": True, "is_positive": False}, LITERATURE),
            Fact("x+x^2", {"is_short": False, "is_positive": True}, LITERATURE),
        ),
    ),
    RegistryEntry(
        name="relations_parabola",
        kind="relations",
        description="algebraic control case (x, x^2): the kernel must contain y - x^2",
        config=RunConfig(curve="x, x^2", degree=2, jet=12, order=12),
        expected=(
            Fact("kernel_dimension", 1, TRIVIAL),
            Fact("contains_second_component_minus_square", True, TRIVIAL),
        ),
    ),
    RegistryEntry(
        name="relations_e_doubled",
        kind="relations",
        description="(x, E(x), E(2x)): degree-3 search, jet twice the monomial count",
        config=RunConfig(curve="x, E(x), E(2*x)", degree=3, jet=40, order=40),
        expected=(Fact("transcendence_evidence", True, DERIVED),),
    ),
    RegistryEntry(
        name="relations_e_alone",
        kind="relations",
        description="(x, E(x)): degree-4 search on a long jet",
        config=RunConfig(curve="x, E(x)", degree=4, jet=60, order=60),
        expected=(Fact("transcendence_evidence", True, DERIVED),),
    ),
    RegistryEntry(
        name="relations_mixed_tail",
        kind="relations",
        description=(
            "(x, E(x), E(x+x^2)): an analytic relation is known to exist for "
            "this curve, so the polynomial search is reported descriptively, "
            "with no pass/fail reading"
        ),
        config=RunConfig(curve="x, E(x), E(x+x^2)", degree=3, jet=40, order=40),
        expected=(),
    ),
    RegistryEntry(
        name="cusp_tangents",
        kind="tangents",
        description="iterated tangents of the cusp-like curve (t, t^2, t^3)",
        config=RunConfig(curve="t, t^2, t^3", steps=3, order=6),
        expected=(
            Fact("directions", [[1, 0, 0], [1, 1, 0], [1, 0, 1]], DERIVED),
        ),
    ),
]

ENTRIES = {e.name: replace(e, config=replace(e.config, example=e.name)) for e in _ENTRIES}


def get(name) -> RegistryEntry:
    try:
        return ENTRIES[name]
    except KeyError:
        known = ", ".join(sorted(ENTRIES))
        raise KeyError(f"unknown example {name!r}; known: {known}") from None


def names():
    return list(ENTRIES)
