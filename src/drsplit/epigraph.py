"""Projection onto 1-D epigraphs and the hyperplane/epigraph DR iteration.

Works in the plane: points are (x, rho), the first set is the x-axis, the
second is epi f = {(x, rho) : f(x) <= rho} for a scalar convex f, whose
projection lives here whole: its kernels, ``project_epigraph`` and the
descriptor ``Epigraph1D``.  The DR step here is a closed-form case analysis
on the region of the input point; it agrees with the generic two-set step.
Full runs (``run_epi``) go through ``methods.run`` from the x-axis built at
import, and their region tags are derived from the trace on first read.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Tuple

import numpy as np

from .functions import ConvexFunction1D, FunctionKind, absshift, quadratic
from .methods import MethodKind, run
from .sets import Hyperplane, _Immutable
from .trace import DEFAULT_ETA, DEFAULT_MAX_ITER, ExactFixedPoint, IterationTrace, MaxIter

# Membership at machine-boundary points: residuals within this of zero on
# both sides classify as IN_BOTH (the benign terminal region).
BOUNDARY_TIE = 1e-14

_BISECT_TOL = 1e-12
# a finite bracket is narrower than 2^1025 and _BISECT_TOL is above 2^-40,
# so halving reaches the tolerance, or adjacent floats, within about 1,065
# steps; the cap only guards against a loop that does not halve
_BISECT_MAX_STEPS = 1100

_X_AXIS = Hyperplane([0.0, 1.0], 0.0)  # run_epi's first set, shared by every run
_LAST_EPIGRAPH = [None]  # the last run_epi's epigraph, reused while f is the same object


class NoConvergenceError(RuntimeError):
    """Bracketed root search failed to meet tolerance within its step cap."""


class PreconditionViolatedError(ValueError):
    """An operation's hypothesis does not hold for the given inputs."""


class EpiPoint(NamedTuple):
    x: float
    rho: float


class Region(Enum):
    """Position of a point relative to B = epi f and its reflection
    B' = {(x, rho) : rho <= -f(x)} through the x-axis."""

    IN_B_ONLY = "in_b_only"
    IN_BPRIME_ONLY = "in_bprime_only"
    IN_BOTH = "in_both"
    IN_NEITHER = "in_neither"


class WitnessFamily(Enum):
    ABS_SHIFT = "absshift"
    QUADRATIC = "quadratic"


# family -> (f, sign of the witness point's second coordinate)
_WITNESSES = {WitnessFamily.ABS_SHIFT: (absshift(1.0, -1.0), 1.0),
              WitnessFamily.QUADRATIC: (quadratic(1.0, 0.0, -1.0), -1.0)}


def _as_point(z) -> Tuple[float, float]:
    x, rho = z
    x, rho = float(x), float(rho)
    if not (math.isfinite(x) and math.isfinite(rho)):
        raise ValueError("epigraph points must have finite coordinates")
    return x, rho


def _residual(f: ConvexFunction1D, x: float, rho: float, p: float) -> float:
    """Optimality residual p + (f(p) - rho)*subgrad(p) - x of the boundary
    projection equation."""
    return p + (f(p) - rho) * f.subgrad(p) - x


def _bisect_projection(f: ConvexFunction1D, x: float, rho: float) -> float:
    """Root of the projection equation by bisection on [min(x,u), max(x,u)].

    Requires f(x) > rho and x != u, as ``project_epigraph`` ensures.  Every
    sign change of the residual on the bracket lies where f >= rho, and the
    residual is strictly increasing there (for x > u; mirrored otherwise),
    so bisection isolates the unique projection abscissa.
    """
    u = f.minimizer
    lo, hi = (u, x) if x >= u else (x, u)
    g_lo = _residual(f, x, rho, lo)
    g_hi = _residual(f, x, rho, hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo > 0) == (g_hi > 0):
        raise NoConvergenceError(
            "projection residual does not change sign on the bracket; "
            "is the subgradient selection consistent with the minimizer?"
        )
    steps = 0
    while hi - lo > _BISECT_TOL:
        if steps >= _BISECT_MAX_STEPS:
            raise NoConvergenceError(
                f"bisection did not reach tolerance in {_BISECT_MAX_STEPS} steps"
            )
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        g_mid = _residual(f, x, rho, mid)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0) == (g_hi > 0):
            hi = mid
        else:
            lo = mid
        steps += 1
    return 0.5 * (lo + hi)


def _quadratic_projection(f: ConvexFunction1D, x: float, rho: float) -> float:
    """Projection abscissa for a builtin quadratic f with f(x) > rho: the
    root of g(p) = p + (f(p) - rho) f'(p) - x between x and u = argmin f,
    by Newton's method from p = x.

    g'(p) = 1 + f'(p)^2 + 2 q2 (f(p) - rho) and g''(p) = 6 q2 f'(p), so g
    is convex on [u, inf) and concave on (-inf, u].  g(u) = u - x and
    g(x) = (f(x) - rho) f'(x) have opposite signs, so g has exactly one
    root in the bracket, and g' > 0 there.  Newton from x therefore moves
    monotonically toward u onto that root without leaving the bracket
    (Fourier's condition); the first step that does not move strictly
    toward u ends the loop.  When rho lies far below f(x) the first step
    lands within rounding of u and can pass it, so a step that would cross
    u stops at u, and the next step, which moves back toward x, ends the
    loop there.  Raises OverflowError where f(x) - rho, f'(x) or 2 q2 is
    beyond the float range.  f - rho and f' are evaluated from the
    coefficients in the builtin's own order: the bits of f and f.subgrad.
    """
    q2, q1, q0 = f.params
    if q2 == 0.0:
        # constant f: the epigraph is a halfplane, abscissa unchanged
        return x
    u = f.minimizer
    side = 1.0 if x > u else -1.0
    # g and g' are divided by c and c^2, c = 2^k above |f'| and sqrt(q2 (f - rho))
    # at x, where both are largest: exact scalings, so the step keeps the bits
    # of g/g' but cannot overflow ((f - rho) f' alone overflows from |x| ~ 1e103)
    k = max(0, math.frexp(2.0 * q2 * x + q1)[1],
            (math.frexp(q2)[1] + math.frexp((q2 * x + q1) * x + q0 - rho)[1]) // 2)
    inv = math.ldexp(1.0, -k)
    p = x
    while True:
        excess = (q2 * p + q1) * p + q0 - rho
        slope = (2.0 * q2 * p + q1) * inv
        dg = inv * inv + slope * slope + 2.0 * q2 * (excess * inv) * inv
        p_next = p - ((p - x) * inv * inv / dg + excess * (slope * inv / dg))
        if side * (p_next - u) < 0:
            p_next = u
        if not side * (p - p_next) > 0:
            if not math.isfinite(dg):  # then the first step is 0 or NaN
                raise OverflowError(f"projecting ({x!r}, {rho!r}) overflows")
            return p
        p = p_next


def _quadratic_projection_rows(f: ConvexFunction1D, x: np.ndarray,
                               rho: np.ndarray) -> np.ndarray:
    """``_quadratic_projection`` on arrays of points with f(x) > rho, under
    np.errstate(over="ignore", invalid="ignore"): the same Newton steps in
    the same elementwise arithmetic, and the same stop at u, so each entry
    has the bits of the scalar rule.  The entries with x != u step in
    lockstep, each frozen in place from its first step that does not move
    strictly toward u; the others come back as given."""
    q2 = f.params[0]
    if q2 == 0.0:
        return x.copy()
    side = np.where(x > f.minimizer, 1.0, -1.0)
    k = np.maximum(np.maximum(0, np.frexp(f.subgrad(x))[1]),
                   (np.frexp(q2)[1] + np.frexp(f(x) - rho)[1]) // 2)
    inv = np.ldexp(1.0, -k)
    moving = x != f.minimizer
    p = x
    while moving.any():
        excess = f(p) - rho
        slope = f.subgrad(p) * inv
        dg = inv * inv + slope * slope + 2.0 * q2 * (excess * inv) * inv
        p_next = p - ((p - x) * inv * inv / dg + excess * (slope * inv / dg))
        p_next = np.where(side * (p_next - f.minimizer) < 0, f.minimizer, p_next)
        stops = moving & ~(side * (p - p_next) > 0)
        bad = np.flatnonzero(stops & ~np.isfinite(dg))
        if bad.size:
            j = bad[0]
            raise OverflowError(f"projecting ({float(x[j])!r}, {float(rho[j])!r}) overflows")
        moving = moving & ~stops
        p = np.where(moving, p_next, p)
    return p


def _absshift_projection(f: ConvexFunction1D, x: float, rho: float) -> float:
    """Closed-form projection abscissa for f = alpha|x| + beta: project
    onto the active branch line, clamped at the kink."""
    alpha, beta = f.params
    denom = 1.0 + alpha * alpha
    if x >= 0:
        return max((x + alpha * (rho - beta)) / denom, 0.0)
    return min((x - alpha * (rho - beta)) / denom, 0.0)


def project_epigraph(f: ConvexFunction1D, z) -> Tuple[float, float]:
    """Nearest point of epi f to z = (x, rho), returned as (p, f(p)).

    Points already in the epigraph are their own projection and are
    returned unchanged.  Otherwise the result lies on the boundary graph
    of f, with abscissa p between x and the minimizer of f: the root of
    p + (f(p) - rho) f'(p) = x, found by Newton's method from x for
    quadratics, in closed form for absshift, and by bisection for custom
    functions.  For a quadratic whose f(x) - rho overflows a float this
    raises OverflowError.
    """
    x, rho = _as_point(z)
    if f(x) <= rho:
        return (x, rho)
    if x == f.minimizer:
        return (x, f(x))
    if f.kind is FunctionKind.QUADRATIC:
        p = _quadratic_projection(f, x, rho)
    elif f.kind is FunctionKind.ABS_SHIFT:
        p = _absshift_projection(f, x, rho)
    else:
        p = _bisect_projection(f, x, rho)
    return (p, f(p))


class Epigraph1D(_Immutable):
    """{(x, rho) : f(x) <= rho} for a scalar convex f."""

    dim = 2

    def __init__(self, f: ConvexFunction1D):
        self.f = f

    def _project(self, x: np.ndarray) -> np.ndarray:
        # the module attribute, which a timing wrapper may replace, not an alias
        return np.asarray(project_epigraph(self.f, x.tolist()))

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        # a function family gets a row kernel when a benchmark workload sweeps
        # it: only the quadratic is swept, so absshift and custom go row by row
        f = self.f
        if f.kind is not FunctionKind.QUADRATIC:
            return super()._project_rows(X)
        if not np.isfinite(X).all():
            raise ValueError("epigraph points must have finite coordinates")
        # an overflow in f or in a Newton step is silent, as in float arithmetic
        with np.errstate(over="ignore", invalid="ignore"):
            i = np.flatnonzero(~(f(X[:, 0]) <= X[:, 1]))
            p = _quadratic_projection_rows(f, X[i, 0], X[i, 1])
        out = X.copy()
        out[i, 0] = p
        out[i, 1] = f(p)
        return out


def classify_region(f: ConvexFunction1D, z) -> Region:
    """Classify z against B = epi f and B' (its x-axis reflection).

    Boundaries count as membership; when both membership residuals vanish
    to machine precision the point counts as IN_BOTH.
    """
    x, rho = _as_point(z)
    fx = f(x)
    in_b = fx <= rho
    in_bprime = rho <= -fx
    if in_b and in_bprime:
        return Region.IN_BOTH
    if in_b:
        return Region.IN_B_ONLY
    if in_bprime:
        return Region.IN_BPRIME_ONLY
    if abs(fx - rho) <= BOUNDARY_TIE and abs(rho + fx) <= BOUNDARY_TIE:
        return Region.IN_BOTH
    return Region.IN_NEITHER


def dr_step_epi(f: ConvexFunction1D, z) -> Tuple[EpiPoint, Region]:
    """One DR step for (x-axis, epi f), by case analysis on the region.

    From B' the step lands on the x-axis at (x, 0); otherwise the x-axis
    reflection (x, -rho) is outside the epigraph and the step moves to
    (p, rho + f(p)) with (p, f(p)) its epigraph projection.  Returns the
    new point together with the region tag of the input.
    """
    x, rho = _as_point(z)
    region = classify_region(f, (x, rho))
    if region in (Region.IN_BPRIME_ONLY, Region.IN_BOTH):
        return EpiPoint(x, 0.0), region
    p, fp = project_epigraph(f, (x, -rho))
    return EpiPoint(p, rho + fp), region


class EpiTrace(IterationTrace):
    """A ``run_epi`` trace: an IterationTrace whose ``cases``, the region
    tag of each record, is ``classify_region`` of each row of ``z`` against
    ``set_b.f``, computed on first read and then kept, as the other
    derived columns are."""

    @cached_property
    def cases(self) -> tuple:
        f = self.set_b.f
        return tuple(classify_region(f, z) for z in self.z.tolist())


def run_epi(
    f: ConvexFunction1D,
    z0,
    eta: float = DEFAULT_ETA,
    max_iter: int = DEFAULT_MAX_ITER,
) -> EpiTrace:
    """Iterate DR on (x-axis, epi f) until an exact fixed point.

    Requires inf f < 0 (the epigraph then meets the open lower halfplane,
    which makes the iteration finitely convergent).  The run goes through
    ``methods.run`` on (Hyperplane([0, 1], 0), Epigraph1D(f)), whose step
    is the closed form of ``dr_step_epi``; every run shares the x-axis built
    at import, and consecutive runs on one f share its epigraph (only the
    last f's is kept).  The trace is an ``EpiTrace``, whose region tags
    ``cases`` are classified on first read.
    """
    if not f.inf_value < 0:
        raise PreconditionViolatedError("run_epi requires inf f < 0")
    epi = _LAST_EPIGRAPH[0]
    if epi is None or epi.f is not f:
        epi = _LAST_EPIGRAPH[0] = Epigraph1D(f)
    return run(
        _X_AXIS,
        epi,
        MethodKind.DRA,
        z0,
        [ExactFixedPoint(eta), MaxIter(max_iter)],
        trace_type=EpiTrace,
    )


def _fix_segment_distance(pt: EpiPoint) -> float:
    """Euclidean distance of a point to the segment [-1, 1] x {0}."""
    return math.hypot(max(abs(pt.x) - 1.0, 0.0), pt.rho)


def luque_witness(family: WitnessFamily, eps: float) -> Tuple[float, float]:
    """Evaluate the small-step/far-from-fixed-points witness at one eps.

    For f = |x| - 1 the witness point is (1 + eps, eps); for f = x^2 - 1 it
    is (1 + eps, -eps).  Returns (step_residual, fix_distance): the norm of
    one DR step at the witness, and the distance of the stepped point to
    the fixed-point segment [-1, 1] x {0}.  The residual tends to 0 with
    eps while the stepped point never enters the segment, so no uniform
    step-size threshold certifies fixedness.
    """
    eps = float(eps)
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not isinstance(family, WitnessFamily):
        raise ValueError(f"unknown witness family {family!r}")
    f, sign = _WITNESSES[family]
    z = EpiPoint(1.0 + eps, sign * eps)
    z_next, _ = dr_step_epi(f, z)
    step_residual = math.hypot(z_next.x - z.x, z_next.rho - z.rho)
    return step_residual, _fix_segment_distance(z_next)
