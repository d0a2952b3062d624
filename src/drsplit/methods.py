"""Iteration drivers for two-set convex feasibility.

Four methods over a pair of sets (A, B):

* DRA  -- governing step z -> z - P_A(z) + P_B(2 P_A(z) - z)
* MAP  -- alternating projections z -> P_A(P_B(z))
* MRP  -- reflection-projection z -> P_A(2 P_B(z) - z)
* SPINGARN -- the partial-inverse update on pairs (a, b) in A x A-perp,
  equivalent to the DRA applied to z = a - b when A is a linear subspace

All drivers share the same trace format and stopping rules; a single run
is strictly sequential, distinct runs share nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from .sets import (
    Affine,
    ConvexSet,
    DimensionMismatchError,
    Hyperplane,
    Shifted,
    as_vector,
    is_linear_subspace,
)
from .trace import (
    DEFAULT_ETA,
    ExactFixedPoint,
    Feasibility,
    IterationTrace,
    MaxIter,
    Monitor,
    Reason,
    Termination,
    _norm,
    normalize_rules,
)


class MethodKind(Enum):
    DRA = "DRA"
    MAP = "MAP"
    MRP = "MRP"
    SPINGARN = "SPINGARN"


class InvalidSubspaceError(ValueError):
    """Spingarn's method needs a linear (or translatable affine) subspace."""


def dra_step(set_a: ConvexSet, set_b: ConvexSet, z) -> Tuple[np.ndarray, ...]:
    """One governing step; returns (z_next, a, r, pbr) with a = P_A z,
    r = 2a - z, pbr = P_B r and z_next = z - a + pbr."""
    z = as_vector(z, set_a.dim)
    a = set_a.project(z)
    r = 2.0 * a - z
    pbr = set_b.project(r)
    return z - a + pbr, a, r, pbr


def map_step(set_a: ConvexSet, set_b: ConvexSet, z) -> np.ndarray:
    """Alternating projections: P_A(P_B z)."""
    return set_a.project(set_b.project(as_vector(z, set_a.dim)))


def mrp_step(set_a: ConvexSet, set_b: ConvexSet, z) -> np.ndarray:
    """Reflection-projection: P_A(2 P_B z - z)."""
    z = as_vector(z, set_a.dim)
    return set_a.project(2.0 * set_b.project(z) - z)


@dataclass(frozen=True)
class SpingarnState:
    """A pair (a, b) with a in the subspace and b in its orthogonal
    complement."""

    a: np.ndarray
    b: np.ndarray

    def validate(self, set_a: ConvexSet, tol: float = 1e-10) -> None:
        na = _norm(self.a)
        nb = _norm(self.b)
        if abs(float(self.a @ self.b)) > tol * max(na * nb, 1.0):
            raise ValueError("state components are not orthogonal")
        if _norm(set_a.project(self.a) - self.a) > tol * (1.0 + na):
            raise ValueError("first component is not in the subspace")
        if _norm(set_a.project(self.b)) > tol * (1.0 + nb):
            raise ValueError("second component is not in the orthogonal complement")


def spingarn_step(
    set_a: ConvexSet, set_b: ConvexSet, state: SpingarnState
) -> SpingarnState:
    """One partial-inverse update:

        a' = P_B(a + b),  b' = a + b - a'
        a+ = P_A(a'),     b+ = b' - P_A(b')
    """
    if not is_linear_subspace(set_a):
        raise InvalidSubspaceError(
            "spingarn_step requires a linear-subspace descriptor for the first set"
        )
    s = state.a + state.b
    a_mid = set_b.project(s)
    b_mid = s - a_mid
    return SpingarnState(
        a=set_a.project(a_mid),
        b=b_mid - set_a.project(b_mid),
    )


def _linearize(set_a: ConvexSet, set_b: ConvexSet):
    """Reduce an affine first set to a linear subspace by translating both
    sets by a point of A; returns (lin_a, shifted_b, shift or None)."""
    if is_linear_subspace(set_a):
        return set_a, set_b, None
    if isinstance(set_a, Affine):
        shift = set_a.project(np.zeros(set_a.dim))
        return Affine(set_a.L, np.zeros(set_a.L.shape[0])), Shifted(set_b, shift), shift
    if isinstance(set_a, Hyperplane):
        shift = set_a.project(np.zeros(set_a.dim))
        return Hyperplane(set_a.normal, 0.0), Shifted(set_b, shift), shift
    raise InvalidSubspaceError(
        "Spingarn's method requires the first set to be a linear or affine subspace"
    )


def run(
    set_a: ConvexSet,
    set_b: ConvexSet,
    method: MethodKind,
    z0,
    stop=None,
) -> IterationTrace:
    """Iterate the chosen method from z0 until a stopping rule fires.

    ``stop`` may be a single rule or a sequence (first satisfied wins);
    a MaxIter safeguard is appended when absent.  Feasibility rules are
    checked at each iterate before stepping (including z0); the exact
    fixed-point rule compares consecutive iterates.  Exceeding the
    iteration cap is recorded as the termination reason, not raised.
    z0 is checked once; an iterate that is not finite (an overflow)
    raises ValueError.  A step makes only the projections its update and
    the active rules use; the trace derives P_B r_n and d_B(z_n) on first
    access.
    """
    if set_a.dim != set_b.dim:
        raise DimensionMismatchError(
            f"sets have dimensions {set_a.dim} and {set_b.dim}"
        )
    z = as_vector(z0, set_a.dim)
    rules = normalize_rules(stop)
    eta = next((r.eta for r in rules if isinstance(r, ExactFixedPoint)), None)
    feas = next((r for r in rules if isinstance(r, Feasibility)), None)
    n_max = min(r.n_max for r in rules if isinstance(r, MaxIter))

    translation = None
    state = None
    if method is MethodKind.SPINGARN:
        lin_a, lin_b, translation = _linearize(set_a, set_b)
        w = z - translation if translation is not None else z
        a0 = lin_a.project(w)
        state = SpingarnState(a=a0, b=a0 - w)

    # P_B z is needed at every record only by a feasibility rule on the
    # iterate; MAP and MRP otherwise project it when they step
    b_rule = feas is not None and feas.monitor is Monitor.ITERATE
    z_list, a_list = [], []
    n = 0
    exact_hit = False
    last_residual = None
    last_scale = None
    while True:
        a = set_a._project(z)
        pbz = set_b._project(z) if b_rule else None

        if feas is None:
            feasible = False
        elif feas.monitor is Monitor.SHADOW:
            feasible = max(_norm(a - set_a._project(a)),
                           _norm(a - set_b._project(a))) < feas.tol
        else:
            feasible = max(_norm(z - a), _norm(z - pbz)) < feas.tol
        if feasible:
            reason = Reason.FEASIBILITY
        elif exact_hit:
            reason = Reason.EXACT_FIXED_POINT
        elif n >= n_max:
            reason = Reason.MAX_ITER
        else:
            reason = None
        z_list.append(z)
        a_list.append(a)
        if reason is not None:
            break

        if method is MethodKind.DRA:
            z_next = z - a + set_b._project(2.0 * a - z)
        elif method is MethodKind.MAP:
            z_next = set_a._project(set_b._project(z) if pbz is None else pbz)
        elif method is MethodKind.MRP:
            pbz = set_b._project(z) if pbz is None else pbz
            z_next = set_a._project(2.0 * pbz - z)
        elif method is MethodKind.SPINGARN:
            state = spingarn_step(lin_a, lin_b, state)
            z_next = state.a - state.b
            if translation is not None:
                z_next = z_next + translation
        else:
            raise ValueError(f"unknown method {method!r}")

        last_residual = _norm(z_next - z)
        # z0 was checked once and the projectors take unchecked input, so an
        # overflow shows up here; z is finite, so a finite residual means a
        # finite z_next
        if not math.isfinite(last_residual) and not np.isfinite(z_next).all():
            raise ValueError("vector coordinates must be finite")
        last_scale = 1.0 + _norm(z)
        if eta is not None and last_residual <= eta * last_scale:
            exact_hit = True
        z = z_next
        n += 1

    exact = (
        last_residual is not None
        and last_residual <= (eta if eta is not None else DEFAULT_ETA) * last_scale
    )
    return IterationTrace(
        z=tuple(z_list),
        a=tuple(a_list),
        set_b=set_b,
        termination=Termination(
            reason=reason,
            iterations=n,
            final_point=z,
            exact=exact,
            step_residual=last_residual,
        ),
        translation=translation,
    )


def shadow(trace: IterationTrace) -> tuple:
    """The shadow sequence (P_A z_n) stored in a trace."""
    return trace.a
