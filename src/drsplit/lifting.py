"""Product-space reduction of M-set feasibility to a two-set problem.

A point of the intersection of C_1, ..., C_M (all in R^N) corresponds to a
diagonal point (x, ..., x) in the product space R^(MN); the two lifted sets
are the diagonal subspace and the Cartesian product of the C_j.  The lifted
inner product is the unweighted sum of blockwise inner products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .methods import MethodKind, run
from .sets import ConvexSet, Diagonal, DimensionMismatchError, Product, as_rows, as_vector
from .trace import IterationTrace


@dataclass(frozen=True)
class LiftedProblem:
    """The two-set image of an M-set feasibility problem.

    ``embed`` and ``restrict`` take one point or an (N, dim) stack of
    rows.  ``restrict`` returns the mean block, which equals any block at
    a diagonal point and is the diagonal projection's block elsewhere.
    """

    copies: int
    base_dim: int
    set_a: Diagonal
    set_b: Product

    def embed(self, x) -> np.ndarray:
        return np.concatenate((_points(x, self.base_dim),) * self.copies, axis=-1)

    def restrict(self, xx) -> np.ndarray:
        xx = _points(xx, self.copies * self.base_dim)
        blocks = xx.reshape(*xx.shape[:-1], self.copies, self.base_dim)
        return np.add.reduce(blocks, axis=-2) / self.copies


def _points(x, dim: int) -> np.ndarray:
    """x checked as one point, or as an (N, dim) stack when it is 2-D."""
    x = np.asarray(x, dtype=float)
    return as_rows(x, dim) if x.ndim == 2 else as_vector(x, dim)


def lift(sets: Sequence[ConvexSet]) -> LiftedProblem:
    """Lift sets sharing one ambient dimension into the product space."""
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one set")
    base_dim = sets[0].dim
    for s in sets:
        if s.dim != base_dim:
            raise DimensionMismatchError(
                f"all sets must share dimension {base_dim}, got {s.dim}"
            )
    copies = len(sets)
    return LiftedProblem(
        copies=copies,
        base_dim=base_dim,
        set_a=Diagonal(copies, base_dim),
        set_b=Product(sets),
    )


def solve_lifted(
    lp: LiftedProblem,
    method: MethodKind,
    x0,
    stop=None,
) -> Tuple[np.ndarray, IterationTrace]:
    """Run a method on the lifted pair from the embedded start.

    Returns the mean-block restriction of the final lifted point together
    with the full lifted trace.
    """
    trace = run(lp.set_a, lp.set_b, method, lp.embed(x0), stop)
    return lp.restrict(trace.final_point), trace
