"""Convex feasibility by Douglas-Rachford splitting.

Exact projectors for the common convex set classes, iteration drivers for
the DR algorithm and its classical competitors (alternating projections,
reflection-projection, Spingarn's partial inverses), closed-form handling
of 1-D epigraph problems, a product-space lifting for many-set problems,
and a benchmark CLI emitting reproducible CSV data.
"""

from .epigraph import (
    EpiPoint,
    Epigraph1D,
    NoConvergenceError,
    PreconditionViolatedError,
    Region,
    WitnessFamily,
    classify_region,
    dr_step_epi,
    luque_witness,
    project_epigraph,
    run_epi,
)
from .functions import ConvexFunction1D, absshift, custom, function_from_name, quadratic
from .lifting import LiftedProblem, lift, solve_lifted
from .methods import (
    InvalidSubspaceError,
    MethodKind,
    SpingarnState,
    dra_step,
    map_step,
    mrp_step,
    run,
    run_rows,
    spingarn_step,
)
from .sets import (
    Affine,
    Ball,
    Box,
    ConvexSet,
    Diagonal,
    DimensionMismatchError,
    Halfspace,
    Hyperplane,
    Orthant,
    Polygon2D,
    Product,
    RankDeficientError,
    Shifted,
    as_vector,
)
from .trace import (
    ExactFixedPoint,
    Feasibility,
    IterationTrace,
    MaxIter,
    Monitor,
    Reason,
    Termination,
)

__version__ = "0.1.0"
