"""Projective transforms of sets and nonnegative functions.

The package turns nonnegative maximization into an equivalent minimization
through a projective point transform: exact formulas for halfspaces,
polyhedra, ellipsoids, and normal vectors; bisection evaluation of the
upper/lower value transforms of arbitrary function oracles; a calculus of
transform rules, gauges, and dual derivatives; and the solution
correspondences between the two problems.
"""

from .calculus import (
    KthKind,
    dual_gradient,
    dual_hessian,
    dual_subgradient,
    gauge,
    general_point_map,
    general_transform,
    indicator_oracle,
    rule_kth,
    rule_linear,
    rule_max,
    rule_min,
    rule_scale,
)
from .core import (
    INF,
    ZERO,
    ExtPos,
    LiftedPoint,
    gamma_point,
    gamma_point_many,
    optimality_product,
)
from .errors import (
    DegenerateNormalError,
    ExpressionRangeError,
    InfiniteValueError,
    NonMonotonePerspectiveError,
    NotDifferentiableError,
    NotStationaryError,
    OriginNotInSetError,
    OverflowRiskError,
    ParseError,
    RadialError,
    RadialityRequiredError,
    SchemaError,
    StrictnessViolatedError,
)
from .grammar import GRAMMAR_EBNF, parse_function
from .optimize import (
    DualSolution,
    PrimalSolution,
    SolveParams,
    map_dual_to_primal,
    map_primal_to_dual,
    map_stationary,
    solve_via_dual,
)
from .oracle import (
    FunctionOracle,
    RadialityMeta,
    gradient,
    perspective,
)
from .sets import (
    Ellipsoid,
    Halfspace,
    NormalKind,
    NormalVector,
    Polyhedron,
    SetOracle,
    ball_set,
    box_set,
    constraint_from_json,
    halfspace_set,
    membership,
    set_from_json,
    set_to_json,
    transform_ellipsoid,
    transform_halfspace,
    transform_normal,
    transform_polyhedron,
    transform_set,
)
from .transform import (
    BracketCertificate,
    DualHandle,
    MonotoneWitness,
    RadialityReport,
    Sense,
    Verdict,
    check_radial,
    duality_residual,
    extpos_gap,
)

__version__ = "0.1.0"
