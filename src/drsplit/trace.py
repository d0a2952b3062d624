"""Iteration records and stopping rules shared by all iteration drivers.

A trace stores each fact once: the iterates, the two sets and the run's
decision; every other column is derived with the row kernels of ``sets``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .sets import ConvexSet, _norms, _read_only, _size

DEFAULT_ETA = 1e-14
DEFAULT_MAX_ITER = 100_000


class Monitor(Enum):
    """Which point a feasibility rule measures: the iterate z_n itself or
    its shadow P_A(z_n)."""

    ITERATE = "iterate"
    SHADOW = "shadow"


@dataclass(frozen=True)
class ExactFixedPoint:
    """Stop once ||z_{n+1} - z_n|| <= eta * (1 + ||z_n||).

    Stands in for exact fixed-point equality, which is unreliable in
    floating point; the raw residual is kept on the termination record
    for audit.
    """

    eta: float = DEFAULT_ETA


@dataclass(frozen=True)
class Feasibility:
    """Stop once d_B(w) < tol, then d_A(w) < tol, at the monitored point w."""

    tol: float
    monitor: Monitor = Monitor.ITERATE


@dataclass(frozen=True)
class MaxIter:
    n_max: int = DEFAULT_MAX_ITER


class Reason(Enum):
    EXACT_FIXED_POINT = "exact_fixed_point"
    FEASIBILITY = "feasibility"
    MAX_ITER = "max_iter"


@dataclass(frozen=True, slots=True)
class Termination:
    """The run's decision: why it stopped, the last step's exactness flag
    and that step's residual ||z_n - z_{n-1}||.  The step count and the
    final point are the trace's own: ``len(z) - 1`` and ``z[-1]``.  Slotted:
    a kept trace holds one, with no instance dict."""

    reason: Reason
    exact: bool
    step_residual: Optional[float] = None


@dataclass(frozen=True)
class IterationTrace:
    """Full per-iteration record of a run.

    Stores, for each step n = 0 .. iterations, the governing iterate z_n
    as row n of ``z``, plus the two sets ``set_a`` and ``set_b``; every
    other column is a function of z_n.  The shadow ``a`` (a_n = P_A z_n),
    the reflection ``r`` (r_n = 2 a_n - z_n), its projection ``pbr`` onto
    the second set, the distances ``d_a`` = ||z_n - a_n|| and ``d_b`` =
    d_B(z_n), and ``steps`` are computed on first access.  Each derived
    column is one row call on a stacked column: ``a`` one ``_project_rows``
    onto the first set, ``pbr`` and ``d_b`` one onto the second, and the
    distances one ``_norms``.  The row forms have the bits of the scalar
    projectors that ``run`` calls (see ``sets``), so ``a`` holds the
    shadows that ``run`` computed.  Every column is one read-only float
    array, (iterations + 1, dim) for the points and (iterations + 1,) for
    the distances; ``run`` builds ``z`` as one C-contiguous array that owns
    its data (no base array kept alive).  ``iterations`` is len(z) - 1 and
    ``final_point`` the read-only view z[-1].
    """

    z: np.ndarray
    set_a: ConvexSet
    set_b: ConvexSet
    termination: Termination
    translation: Optional[np.ndarray] = None

    @cached_property
    def a(self) -> np.ndarray:
        return _read_only(self.set_a._project_rows(self.z))

    @cached_property
    def r(self) -> np.ndarray:
        return _read_only(2.0 * self.a - self.z)

    @cached_property
    def pbr(self) -> np.ndarray:
        return _read_only(self.set_b._project_rows(self.r))

    @cached_property
    def d_a(self) -> np.ndarray:
        return _read_only(_norms(self.z - self.a))

    @cached_property
    def d_b(self) -> np.ndarray:
        return _read_only(_norms(self.z - self.set_b._project_rows(self.z)))

    @property
    def steps(self) -> tuple:
        return tuple(range(len(self.z)))

    @property
    def iterations(self) -> int:
        return len(self.z) - 1

    @property
    def final_point(self) -> np.ndarray:
        return self.z[-1]

    def __len__(self) -> int:
        return len(self.z)


def normalize_rules(stop) -> tuple:
    """Read a rule, a sequence of rules or None as (eta, feas, n_max): the
    ExactFixedPoint eta or None, the Feasibility rule or None, and the least
    MaxIter cap (DEFAULT_MAX_ITER without one).  Only one rule of each of
    the first two kinds can decide a run; a second one raises ValueError,
    as do an entry that is no rule, an eta or tol that is no real number
    above 0, a monitor that is no Monitor member and a cap that is no
    positive integer (a bool is neither number)."""
    try:
        rules = () if stop is None else (stop,) if isinstance(stop, (ExactFixedPoint, Feasibility, MaxIter)) else tuple(stop)
    except TypeError:
        raise ValueError(f"not a stopping rule: {stop!r}") from None
    eta = feas = None
    caps = []
    for rule in rules:
        if isinstance(rule, ExactFixedPoint):
            if eta is not None or not _positive(rule.eta):
                raise ValueError("give at most one ExactFixedPoint rule, with eta > 0")
            eta = rule.eta
        elif isinstance(rule, Feasibility):
            if feas is not None or not _positive(rule.tol):
                raise ValueError("give at most one Feasibility rule, with tol > 0")
            if not isinstance(rule.monitor, Monitor):
                raise ValueError(f"Feasibility.monitor must be a Monitor, got {rule.monitor!r}")
            feas = rule
        elif isinstance(rule, MaxIter):
            caps.append(_size(rule.n_max, "MaxIter.n_max"))
        else:
            raise ValueError(f"not a stopping rule: {rule!r}")
    return eta, feas, min(caps, default=DEFAULT_MAX_ITER)


def _positive(x) -> bool:
    """x is a Python or numpy int or float above 0, and not a bool."""
    real = isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
    return real and x > 0


def _exact_step(residual, scale, eta):
    """A step's exactness flag, on floats or row arrays: residual <= eta *
    scale, with scale = 1 + ||z_n|| and eta the rule's or DEFAULT_ETA.  A
    scale that is not finite (||z_n|| overflows) certifies nothing at any eta."""
    bound = (DEFAULT_ETA if eta is None else eta) * scale
    return (residual <= bound) & (scale < math.inf)
