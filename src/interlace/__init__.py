"""interlace: exact series algebra and numerical dichotomy diagnostics.

Library layout:

* ``series``    exact truncated power series, J_k/T_k, Euler series, q-short test
* ``expr``      rational expression trees, parser, printer, generated code
                (``compile_expr``), series substitution
* ``field``     vector fields, invariance multiplier test, chart reduction,
                difference systems
* ``curve``     formal curves, spherical blow-ups / iterated tangents,
                Puiseux deviation probes, the curve DSL
* ``integrate`` adaptive embedded Runge-Kutta with dense output, pair solver
* ``dichotomy`` contact order, winding angle, sign census, verdict
* ``sat``       tail test curves and exact polynomial-relation search
* ``config``    ``RunConfig``: every settable key, config-file text
* ``registry``  catalog of worked examples with their expected facts
* ``pipelines`` one runner per command, from a ``RunConfig`` to a report
                payload, and the registry suite
* ``report``    every artifact format: canonical JSON, trajectory CSV, SVG plots
* ``errors``    error taxonomy and its exit codes
* ``cli``       command-line front end
"""

from .series import (
    EXACT,
    CoefficientMode,
    Poly,
    TruncatedSeries,
    compose,
    derive,
    divide,
    euler_series,
    exp_series,
    float_mode,
    q_short_check,
    tail_T,
    truncate_J,
)
from .curve import (
    FormalCurve,
    PuiseuxCurve,
    TangentStep,
    asymptotic_deviation,
    iterated_tangents,
    leading_direction,
    parse_curve,
    spherical_blowup_step,
)
from .field import (
    DifferenceSystem,
    InvarianceReport,
    ReducedSystem,
    VectorField3,
    chart_reduce,
    difference_system,
    invariance_check,
    parse_field_expr,
)
from .integrate import IVP, Trajectory, solve, solve_pair
from .dichotomy import (
    PairReport,
    Thresholds,
    build_pair_report,
    classify,
    contact_order,
    sign_census,
    winding,
)
from .sat import (
    RelationBasis,
    SatCurveSpec,
    build_sat_curve,
    relation_search,
    verify_tail_identities,
)

__version__ = "0.1.0"
