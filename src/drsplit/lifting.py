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
    """The two-set image of an M-set feasibility problem: the diagonal,
    which holds the layout, and the product of the sets.

    ``embed`` and ``restrict`` take one point or an (N, dim) stack of
    rows.  ``restrict`` returns the diagonal projection's block, to the
    bit: the mean block, which equals any block at a diagonal point.
    """

    set_a: Diagonal
    set_b: Product

    def embed(self, x) -> np.ndarray:
        return np.concatenate((_points(x, self.set_a.base_dim),) * self.set_a.copies, axis=-1)

    def restrict(self, xx) -> np.ndarray:
        xx = _points(xx, self.set_a.dim)
        if xx.ndim == 1:
            return np.array(self.set_a._means(xx.tolist()))
        return np.array(self.set_a._means(list(xx.T))).T.copy()


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
    return LiftedProblem(Diagonal(len(sets), base_dim), Product(sets))


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
