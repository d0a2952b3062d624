"""Iteration drivers for two-set convex feasibility.

Four methods over a pair of sets (A, B):

* DRA  -- governing step z -> z - P_A(z) + P_B(2 P_A(z) - z)
* MAP  -- alternating projections z -> P_A(P_B(z))
* MRP  -- reflection-projection z -> P_A(2 P_B(z) - z)
* SPINGARN -- the partial-inverse update on pairs (a, b) in A x A-perp,
  equivalent to the DRA applied to z = a - b when A is a linear subspace

All drivers share the trace format, the stopping rules and the one
definition of each update rule (``_step``, ``_Spingarn``); runs share nothing.
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
    IterationTrace,
    Monitor,
    Reason,
    Termination,
    _exact_step,
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


def _step(method, project_a, project_b, z, a=None, pbz=None):
    """The next DRA, MAP or MRP iterate from z, given a = P_A z for DRA and,
    for MAP and MRP, pbz = P_B z or None to project it here.  Callers pass
    their own projectors, on one point or on a stack of rows."""
    if method is MethodKind.DRA:
        return z - a + project_b(2.0 * a - z)
    if method is MethodKind.MAP:
        return project_a(project_b(z) if pbz is None else pbz)
    if method is MethodKind.MRP:
        return project_a(2.0 * (project_b(z) if pbz is None else pbz) - z)
    raise ValueError(f"unknown method {method!r}")


def _pair_step(project_a, project_b, a, b):
    """Spingarn's partial-inverse update of the pair (a, b):

        a' = P_B(a + b),  b' = a + b - a'
        a+ = P_A(a'),     b+ = b' - P_A(b')
    """
    s = a + b
    a_mid = project_b(s)
    b_mid = s - a_mid
    return project_a(a_mid), b_mid - project_a(b_mid)


def dra_step(set_a: ConvexSet, set_b: ConvexSet, z) -> Tuple[np.ndarray, ...]:
    """One governing step; returns (z_next, a, r, pbr) with a = P_A z,
    r = 2a - z, pbr = P_B r and z_next = z - a + pbr."""
    z = as_vector(z, set_a.dim)
    a = set_a._project(z)
    r = 2.0 * a - z
    pbr = set_b.project(r)
    return _step(MethodKind.DRA, set_a._project, lambda _: pbr, z, a), a, r, pbr


def map_step(set_a: ConvexSet, set_b: ConvexSet, z) -> np.ndarray:
    """Alternating projections: P_A(P_B z)."""
    return _step(MethodKind.MAP, set_a.project, set_b.project, as_vector(z, set_a.dim))


def mrp_step(set_a: ConvexSet, set_b: ConvexSet, z) -> np.ndarray:
    """Reflection-projection: P_A(2 P_B z - z)."""
    return _step(MethodKind.MRP, set_a.project, set_b.project, as_vector(z, set_a.dim))


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
    """One partial-inverse update of the pair (see ``_pair_step``)."""
    if not is_linear_subspace(set_a):
        raise InvalidSubspaceError(
            "spingarn_step requires a linear-subspace descriptor for the first set"
        )
    return SpingarnState(*_pair_step(set_a.project, set_b.project, state.a, state.b))


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


class _Spingarn:
    """Spingarn's pair (a, b) of one point z or of each row of a stack, on
    the linearized sets, from a = P_A w and b = a - w with w = z - shift."""

    def __init__(self, set_a: ConvexSet, set_b: ConvexSet, z: np.ndarray):
        lin_a, lin_b, self.shift = _linearize(set_a, set_b)
        self.project_a, self.project_b = ((lin_a._project_rows, lin_b._project_rows)
                                          if z.ndim == 2 else (lin_a._project, lin_b._project))
        w = z - self.shift if self.shift is not None else z
        self.a = self.project_a(w)
        self.b = self.a - w

    def step(self):
        """Step the pair by ``_pair_step``; return the iterate a - b + shift."""
        self.a, self.b = _pair_step(self.project_a, self.project_b, self.a, self.b)
        return self.a - self.b if self.shift is None else self.a - self.b + self.shift


def run(
    set_a: ConvexSet,
    set_b: ConvexSet,
    method: MethodKind,
    z0,
    stop=None,
) -> IterationTrace:
    """Iterate the chosen method from z0 until a stopping rule fires.

    ``stop`` is a rule, a sequence of rules or None, read by
    ``normalize_rules``.  At each record (z0 included) the feasibility rule
    tests its monitored point w, z_n or a_n = P_A z_n: d_B(w) < tol, then
    d_A(w) < tol only where that passes, so a nan never passes.  The run
    ends at the first record where a rule fires; feasibility wins over
    exactness and exactness over the cap, which is recorded as the reason,
    not raised.  ``exact`` is the last step's ``_exact_step`` flag.  z0 is
    checked once; an iterate that is not finite (an overflow) raises
    ValueError.  A step makes only the projections its update and the
    active rules use; the trace derives P_B r_n and d_B(z_n) on first access.
    """
    if set_a.dim != set_b.dim:
        raise DimensionMismatchError(
            f"sets have dimensions {set_a.dim} and {set_b.dim}"
        )
    z = as_vector(z0, set_a.dim)
    eta, feas, n_max = normalize_rules(stop)

    project_a, project_b = set_a._project, set_b._project
    pair = _Spingarn(set_a, set_b, z) if method is MethodKind.SPINGARN else None

    # P_B z is needed at every record only by a feasibility rule on the
    # iterate; MAP and MRP otherwise project it when they step
    b_rule = feas is not None and feas.monitor is Monitor.ITERATE
    z_list, a_list = [], []
    n = 0
    hit = False
    residual = None
    while True:
        a = project_a(z)
        pbz = project_b(z) if b_rule else None

        if feas is None:
            feasible = False
        elif b_rule:
            feasible = _norm(z - pbz) < feas.tol and _norm(z - a) < feas.tol
        else:
            feasible = (_norm(a - project_b(a)) < feas.tol
                        and _norm(a - project_a(a)) < feas.tol)
        if feasible:
            reason = Reason.FEASIBILITY
        elif hit and eta is not None:
            reason = Reason.EXACT_FIXED_POINT
        elif n >= n_max:
            reason = Reason.MAX_ITER
        else:
            reason = None
        z_list.append(z)
        a_list.append(a)
        if reason is not None:
            break

        z_next = pair.step() if pair else _step(method, project_a, project_b, z, a, pbz)

        residual = _norm(z_next - z)
        # z0 was checked once and the projectors take unchecked input, so an
        # overflow shows up here; z is finite, so a finite residual means a
        # finite z_next
        if not math.isfinite(residual) and not np.isfinite(z_next).all():
            raise ValueError("vector coordinates must be finite")
        hit = _exact_step(residual, 1.0 + _norm(z), eta)
        z = z_next
        n += 1

    return IterationTrace(
        z=tuple(z_list),
        a=tuple(a_list),
        set_b=set_b,
        termination=Termination(
            reason=reason,
            iterations=n,
            final_point=z,
            exact=hit,
            step_residual=residual,
        ),
        translation=pair.shift if pair else None,
    )


def shadow(trace: IterationTrace) -> tuple:
    """The shadow sequence (P_A z_n) stored in a trace."""
    return trace.a
