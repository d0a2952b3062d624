"""Iteration records and stopping rules shared by all iteration drivers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Union

import numpy as np

DEFAULT_ETA = 1e-14
DEFAULT_MAX_ITER = 100_000


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real vector: the same bits as np.linalg.norm,
    which computes sqrt(v.dot(v)), without its per-call overhead."""
    return math.sqrt(v.dot(v))


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
    """Stop once max(d_A(w), d_B(w)) < tol at the monitored point w."""

    tol: float
    monitor: Monitor = Monitor.ITERATE


@dataclass(frozen=True)
class MaxIter:
    n_max: int = DEFAULT_MAX_ITER


StoppingRule = Union[ExactFixedPoint, Feasibility, MaxIter]


class Reason(Enum):
    EXACT_FIXED_POINT = "exact_fixed_point"
    FEASIBILITY = "feasibility"
    MAX_ITER = "max_iter"


@dataclass(frozen=True)
class Termination:
    reason: Reason
    iterations: int
    final_point: np.ndarray
    exact: bool
    step_residual: Optional[float] = None


@dataclass(frozen=True)
class IterationTrace:
    """Full per-iteration record of a run.

    Stores, for each step n = 0 .. iterations: the governing iterate z_n,
    its projection a_n onto the first set, the projection pbr_n of the
    reflection r_n = 2 a_n - z_n onto the second set, and the distance
    d_B(z_n) of z_n to the second set.  ``r``, ``d_a`` = ||z_n - a_n||
    and ``steps`` are computed from these on first access, with the
    arithmetic ``run`` uses.
    """

    z: tuple
    a: tuple
    pbr: tuple
    d_b: tuple
    termination: Termination
    cases: Optional[tuple] = None
    translation: Optional[np.ndarray] = None

    @cached_property
    def r(self) -> tuple:
        return tuple(2.0 * a - z for z, a in zip(self.z, self.a))

    @cached_property
    def d_a(self) -> tuple:
        return tuple(_norm(z - a) for z, a in zip(self.z, self.a))

    @property
    def steps(self) -> tuple:
        return tuple(range(len(self.z)))

    @property
    def iterations(self) -> int:
        return self.termination.iterations

    @property
    def final_point(self) -> np.ndarray:
        return self.termination.final_point

    def __len__(self) -> int:
        return len(self.z)


def normalize_rules(stop) -> list:
    """Accept a single rule, a sequence, or None; always append a MaxIter
    safeguard if none is present."""
    if stop is None:
        rules = []
    elif isinstance(stop, (ExactFixedPoint, Feasibility, MaxIter)):
        rules = [stop]
    else:
        rules = list(stop)
    for rule in rules:
        if isinstance(rule, Feasibility) and not rule.tol > 0:
            raise ValueError("Feasibility.tol must be positive")
        if isinstance(rule, MaxIter) and rule.n_max < 1:
            raise ValueError("MaxIter.n_max must be at least 1")
        if isinstance(rule, ExactFixedPoint) and not rule.eta > 0:
            raise ValueError("ExactFixedPoint.eta must be positive")
    if not any(isinstance(rule, MaxIter) for rule in rules):
        rules.append(MaxIter())
    return rules
