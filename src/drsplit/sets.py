"""Convex set descriptors with exact, closed-form projectors.

Every descriptor knows its ambient dimension and provides ``project``,
``reflect`` (2 P - Id) and ``distance``, plus ``project_rows`` for a stack
of points, one per row.  All projectors here are exact nearest-point maps
in closed form; ``epigraph.Epigraph1D``, whose projector is iterative,
lives beside its kernels.  All operations are pure functions of immutable
inputs: a descriptor keeps read-only copies of the arrays it is given, so
a later write to the caller's array changes nothing, and a write to its
arrays raises, as does rebinding or deleting an attribute it holds.

Each projector is one algorithm in two shapes.  ``project_rows`` works
elementwise on the coordinate columns X[:, k], never with a matrix product
over the stack, so a row's bits do not depend on the other rows;
``project`` makes the same operations in the same order on one point,
mostly in Python floats, so it has the row form's bits on that point, at
every dim.  The inner products and norms defined here (``_dot``,
``_dots``, ``_norm``, ``_norms``) add the products left to right from 0.0
below 8 terms, the bits of numpy's ``sum(axis=1)`` there, and take numpy's
pairwise sum from 8; that is numpy's order, not a promise of numpy's, so
the tests are the guarantee.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from typing import Sequence

import numpy as np

# Relative pivot threshold for declaring the Gram matrix of an affine
# descriptor numerically singular.
RANK_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Input vector dimension does not match a set's ambient dimension."""


class RankDeficientError(ValueError):
    """The constraint matrix of an affine set is not of full row rank."""


def _dot(x: np.ndarray, w: np.ndarray) -> float:
    """<x, w> of two vectors with the bits of ``_dots`` on one row: below 8
    terms the products added left to right from 0.0 in Python floats, from
    8 numpy's pairwise sum of them."""
    if len(x) >= 8:
        return np.add.reduce(x * w)
    acc = 0.0
    for xk, wk in zip(x.tolist(), w.tolist()):
        acc += xk * wk
    return acc


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real vector, with the bits of ``_norms``: the
    square root of ``_dot(v, v)``, below 8 terms in one loop over one list
    of floats, which takes half of ``_dot``'s time at dim 2."""
    if len(v) >= 8:
        return math.sqrt(_dot(v, v))
    acc = 0.0
    for vk in v.tolist():
        acc += vk * vk
    return math.sqrt(acc)


def _dots(X: np.ndarray, W) -> np.ndarray:
    """<x_i, w_i> for each row x_i of a stack, against one vector W or the
    rows of a stack W, with the bits of ``(X * W).sum(axis=1)``: below 8
    terms numpy adds left to right from 0.0, as the column loop does; from
    8 its order is pairwise, and that sum is taken."""
    if X.shape[1] >= 8:
        return (X * W).sum(axis=1)
    acc = np.zeros(X.shape[0])
    for k in range(X.shape[1]):
        acc += X[:, k] * W[..., k]
    return acc


def _norms(D: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a stack, with the bits of sqrt(_dots(D, D)):
    from 1 to 7 columns the sum starts from the first square, which is never -0.0."""
    if D.shape[1] >= 8 or not D.shape[1]:
        return np.sqrt(_dots(D, D))
    acc = D[:, 0] * D[:, 0]
    for k in range(1, D.shape[1]):
        acc += D[:, k] * D[:, k]
    return np.sqrt(acc)


def _read_only(v: np.ndarray) -> np.ndarray:
    """v, marked read-only, as every trace column is."""
    v.flags.writeable = False
    return v


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally checking length."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector coordinates must be finite")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.shape[0]}")
    return v


def as_rows(X, dim: int) -> np.ndarray:
    """Coerce to a finite (N, dim) float array of points, one per row."""
    R = np.asarray(X, dtype=float)
    if R.ndim != 2:
        raise ValueError(f"expected an (N, {dim}) array, got shape {R.shape}")
    if R.shape[1] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {R.shape[1]}")
    if not np.isfinite(R).all():
        raise ValueError("vector coordinates must be finite")
    return R


def _own(v: np.ndarray) -> np.ndarray:
    """A read-only copy of v, for a descriptor to keep."""
    return _read_only(v.copy())


def _size(value, name: str) -> int:
    """A size or a count: a positive Python or numpy integer, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return operator.index(value)


class ConvexSet:
    """Base class: a closed convex subset of R^dim with a nearest-point map."""

    dim: int
    # an affine set's (subspace through the origin, shift s = P_A 0), for
    # Spingarn's method: Affine and Hyperplane build the pair once and keep it
    _through_origin = None

    def _project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        # row by row: the row form of any subclass that defines only
        # ``_project``, and of an epigraph of any function but a quadratic
        out = np.empty((X.shape[0], self.dim))
        for i, x in enumerate(X):
            out[i] = self._project(x)
        return out

    def project(self, x) -> np.ndarray:
        return self._project(as_vector(x, self.dim))

    def project_rows(self, X) -> np.ndarray:
        """Project each row of an (N, dim) array; row i of the result is
        the nearest point of the set to X[i]."""
        return self._project_rows(as_rows(X, self.dim))

    def reflect(self, x) -> np.ndarray:
        x = as_vector(x, self.dim)
        return 2.0 * self._project(x) - x

    def distance(self, x) -> float:
        x = as_vector(x, self.dim)
        return _norm(x - self._project(x))

    def is_linear(self) -> bool:
        """True for a descriptor of a linear subspace."""
        return False


class _Immutable(ConvexSet):
    """A library descriptor: what it holds is fixed at construction; only a
    method may be shadowed on an instance and unshadowed (timing wrappers)."""

    def __setattr__(self, name, value):
        if hasattr(self, name) and not callable(getattr(type(self), name, None)):
            raise AttributeError(f"{type(self).__name__}.{name} cannot be rebound")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if not callable(getattr(type(self), name, None)):
            raise AttributeError(f"{type(self).__name__}.{name} cannot be deleted")
        object.__delattr__(self, name)


def _cho_solve(C: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve (C C^T) X = B for a lower-triangular C with a positive
    diagonal: forward substitution, then back substitution.  Each pivot is
    applied as a product with its reciprocal, as LAPACK's potrs does."""
    inv = 1.0 / np.diag(C)
    X = np.array(B, dtype=float)
    m = C.shape[0]
    for k in range(m):
        X[k] = (X[k] - C[k, :k] @ X[:k]) * inv[k]
    for k in reversed(range(m)):
        X[k] = (X[k] - C[k + 1:, k] @ X[k + 1:]) * inv[k]
    return X


class Affine(_Immutable):
    """{x : L x = a} for a full-row-rank matrix L.

    The projector applies the Moore-Penrose action x - L^+(Lx - a), with
    L^+(r) obtained by solving (L L^T) w = r through a Cholesky
    factorization of the Gram matrix.  Rank deficiency (a squared pivot
    below RANK_TOL times the squared norm of its row) is rejected at
    construction.  A stack of N rows is projected as P x + q with the
    products x_k P[:, k] added column by column, left to right, in
    O(N * dim) memory; one point in the same order, in Python floats.
    """

    def __init__(self, L, a):
        L = np.atleast_2d(L)
        L = _own(as_rows(L, L.shape[-1]))
        a = _own(as_vector(a, L.shape[0]))
        # scale row k of L and a_k by a power of two that brings the row's
        # largest |entry| into [0.5, 1): the set is the same, the Gram matrix
        # can neither overflow nor underflow, and rows in the normal range
        # keep every bit of P and q, since powers of two scale exactly
        e = np.frexp(np.abs(L).max(axis=1, initial=0.0))[1]
        Ls = np.ldexp(L, -e[:, None])
        gram = Ls @ Ls.T
        try:
            C = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as e:
            raise RankDeficientError("L L^T is not positive definite") from e
        # squared pivot k is the squared distance of row k from the span of
        # the rows before it; measured against that row's own squared norm,
        # the test does not depend on how the rows are scaled
        pivots = np.diag(C) ** 2
        small = pivots < RANK_TOL * np.diag(gram)
        if np.any(small):
            k = int(np.argmax(small))
            raise RankDeficientError(
                f"Gram pivot {pivots[k]:.3e} of row {k} below {RANK_TOL:.0e} "
                "* the row's squared norm"
            )
        self.L = L
        self.a = a
        self.dim = L.shape[1]
        # cache the affine form P x + q of the projector
        w = _cho_solve(C, Ls)
        self._P = _read_only(np.eye(self.dim) - Ls.T @ w)
        self._q = _read_only(Ls.T @ _cho_solve(C, np.ldexp(a, -e)))
        # P's rows and q as Python floats for ``_project``
        self._Pq = tuple(zip(self._P.tolist(), self._q.tolist()))

    def _project(self, x: np.ndarray) -> np.ndarray:
        # the row form's order: x_0 P_j0, each later x_k P_jk added, then q_j
        xs = x.tolist()
        out = []
        for row, q in self._Pq:
            acc = xs[0] * row[0]
            for k in range(1, len(xs)):
                acc += xs[k] * row[k]
            out.append(acc + q)
        return np.array(out)

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        P = self._P
        acc = X[:, :1] * P[:, 0]
        for k in range(1, self.dim):
            acc += X[:, k:k + 1] * P[:, k]
        return acc + self._q

    def is_linear(self) -> bool:
        return bool(np.all(self.a == 0.0))

    @cached_property
    def _through_origin(self):
        return Affine(self.L, np.zeros(self.L.shape[0])), _read_only(self.project(np.zeros(self.dim)))


class _NormalSet(_Immutable):
    """Hyperplane's and Halfspace's constructor: ``normal`` and ``offset``
    stay as given, the projectors scale both by the power of two that brings
    the normal's largest |entry| into [0.5, 1), as ``Affine`` does."""

    def __init__(self, normal, offset: float):
        self.normal = _own(as_vector(normal))
        self.offset = as_vector(float(offset)).item()
        e = int(np.frexp(np.abs(self.normal).max(initial=0.0))[1])
        self._n = _read_only(np.ldexp(self.normal, -e))
        self._nn = float(self._n @ self._n)
        if self._nn == 0.0:
            raise ValueError(f"{type(self).__name__.lower()} normal must be nonzero")
        self._c = math.ldexp(self.offset, -e)
        self.dim = self.normal.shape[0]


class Hyperplane(_NormalSet):
    """{x : <normal, x> = offset}."""

    def _project(self, x: np.ndarray) -> np.ndarray:
        t = (_dot(x, self._n) - self._c) / self._nn
        return x - t * self._n

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        t = (_dots(X, self._n) - self._c) / self._nn
        return X - t[:, None] * self._n

    def is_linear(self) -> bool:
        return self.offset == 0.0

    @cached_property
    def _through_origin(self):
        return Hyperplane(self.normal, 0.0), _read_only(self.project(np.zeros(self.dim)))


class Halfspace(_NormalSet):
    """{x : <normal, x> <= offset}."""

    def _project(self, x: np.ndarray) -> np.ndarray:
        excess = _dot(x, self._n) - self._c
        if not excess > 0.0:
            return x.copy()
        return x - (excess / self._nn) * self._n

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        excess = _dots(X, self._n) - self._c
        outside, t = excess > 0.0, excess / self._nn
        out = np.empty(X.shape)
        for k, n in enumerate(self._n.tolist()):
            out[:, k] = np.where(outside, X[:, k] - t * n, X[:, k])
        return out


class Box(_Immutable):
    """{x : lo <= x <= hi} componentwise, with finite bounds."""

    def __init__(self, lo, hi):
        self.lo = _own(as_vector(lo))
        self.hi = _own(as_vector(hi, self.lo.shape[0]))
        if np.any(self.lo > self.hi):
            raise ValueError("box requires lo <= hi componentwise")
        self.dim = self.lo.shape[0]

    def _project(self, x: np.ndarray) -> np.ndarray:
        # the bits of ``np.clip``, without its per-call wrapper cost
        return np.minimum(np.maximum(x, self.lo), self.hi)

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape)
        for k, (lo, hi) in enumerate(zip(self.lo.tolist(), self.hi.tolist())):
            np.minimum(np.maximum(X[:, k], lo, out=out[:, k]), hi, out=out[:, k])
        return out


class Orthant(_Immutable):
    """The nonnegative orthant of R^dim."""

    def __init__(self, dim: int):
        self.dim = _size(dim, "dimension")

    def _project(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    _project_rows = _project


class Ball(_Immutable):
    """Closed Euclidean ball of positive radius."""

    def __init__(self, center, radius: float):
        self.center = _own(as_vector(center))
        self.radius = float(radius)
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if not self.radius < math.inf:
            raise ValueError("radius must be finite")
        self.dim = self.center.shape[0]

    def _project(self, x: np.ndarray) -> np.ndarray:
        d = x - self.center
        nd = _norm(d)
        if not nd > self.radius:
            return x.copy()
        return self.center + (self.radius / nd) * d

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        D = np.empty(X.shape)
        for k, c in enumerate(self.center.tolist()):
            np.subtract(X[:, k], c, out=D[:, k])
        nd = _norms(D)
        outside = nd > self.radius
        scale = self.radius / np.where(outside, nd, 1.0)
        out = np.empty(X.shape)
        for k, c in enumerate(self.center.tolist()):
            out[:, k] = np.where(outside, c + scale * D[:, k], X[:, k])
        return out


class Polygon2D(_Immutable):
    """Convex polygon in the plane, vertices in counterclockwise order.

    The projector is exact: interior points pass through; otherwise the
    nearest point is the closest of the clamped projections onto the edge
    segments (vertices included via clamping).
    """

    dim = 2

    def __init__(self, vertices):
        v = _own(as_rows(vertices, 2))
        if v.shape[0] < 3:
            raise ValueError("need at least three 2-D vertices")
        edges = np.roll(v, -1, axis=0) - v
        cross = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] - edges[:, 1] * np.roll(
            edges, -1, axis=0
        )[:, 0]
        area2 = float(np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]))
        scale = float(np.max(np.abs(v))) or 1.0
        if area2 <= 0.0:
            raise ValueError("vertices must enclose positive area, counterclockwise")
        if np.any(cross < -1e-12 * scale * scale):
            raise ValueError("vertices do not describe a convex polygon")
        sq = np.einsum("ij,ij->i", edges, edges)
        self.vertices = v
        # (vx, vy, ex, ey, |e|^2) per edge, as Python floats for ``_project``
        self._edge_list = tuple(zip(*v.T.tolist(), *edges.T.tolist(), sq.tolist()))

    def _project(self, x: np.ndarray) -> np.ndarray:
        # the row form's operations in its order, in float arithmetic: the
        # sum in t starts from +0.0 (a -0.0 t would carry into the point), a
        # zero edge has t = 0, a NaN t survives the clamp, and the first
        # least distance or the first NaN wins, as in argmin.  An overflow
        # is silent.
        px, py = x.tolist()
        edges = self._edge_list
        if all(ex * (py - vy) - ey * (px - vx) >= 0.0 for vx, vy, ex, ey, _ in edges):
            return x.copy()
        best = None
        for vx, vy, ex, ey, sq in edges:
            t = 0.0
            if sq > 0.0:
                t = ((px - vx) * ex + (py - vy) * ey + 0.0) / sq
                t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
            cx, cy = vx + t * ex, vy + t * ey
            dx, dy = cx - px, cy - py
            dist = dx * dx + dy * dy
            if dist != dist:
                return np.array((cx, cy))
            if best is None or dist < best:
                best, out = dist, (cx, cy)
        return np.array(out)

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        # ``_project`` on the coordinate columns, edge by edge: the inside
        # test, then the rows outside, where a later edge wins only on a
        # strictly smaller distance or on the first NaN, as in argmin
        x, y = X[:, 0], X[:, 1]
        inside = True
        for vx, vy, ex, ey, _ in self._edge_list:
            inside = inside & (ex * (y - vy) - ey * (x - vx) >= 0.0)
        i = np.flatnonzero(~inside)
        x, y = x.take(i), y.take(i)
        best, px, py = (np.empty(i.size) for _ in range(3))
        for k, (vx, vy, ex, ey, sq) in enumerate(self._edge_list):
            t = ((x - vx) * ex + (y - vy) * ey + 0.0) / sq if sq > 0.0 else 0.0
            t = np.minimum(np.maximum(t, 0.0), 1.0)
            cx, cy = vx + t * ex, vy + t * ey
            dx, dy = cx - x, cy - y
            dist = dx * dx + dy * dy
            take = ~(dist >= best) & (best == best) if k else True
            for kept, new in ((best, dist), (px, cx), (py, cy)):
                np.copyto(kept, new, where=take)
        out = np.array(X)
        out[i, 0], out[i, 1] = px, py
        return out


class Diagonal(_Immutable):
    """{(x, ..., x) : x in R^base_dim} inside R^(copies * base_dim).

    The projection replaces every block with the mean of the blocks, and
    ``lifting.LiftedProblem.restrict`` is that mean, with the same bits.
    """

    def __init__(self, copies: int, base_dim: int):
        self.copies = _size(copies, "copies")
        self.base_dim = _size(base_dim, "base_dim")
        self.dim = self.copies * self.base_dim

    def _means(self, cols: list) -> list:
        """The blocks' mean from the floats of one point or the columns of
        a stack: block 0, then each later block added to it, so both forms
        have one arithmetic and a -0.0 sum stays -0.0."""
        means = []
        for j in range(self.base_dim):
            total = cols[j]
            for k in range(j + self.base_dim, self.dim, self.base_dim):
                total = total + cols[k]
            means.append(total / self.copies)
        return means

    def _project(self, x: np.ndarray) -> np.ndarray:
        return np.array(self._means(x.tolist()) * self.copies)

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        return np.array(self._means(list(X.T)) * self.copies).T.copy()

    def is_linear(self) -> bool:
        return True


class Product(_Immutable):
    """Cartesian product of descriptors; projects blockwise."""

    def __init__(self, components: Sequence[ConvexSet]):
        components = tuple(components)
        if not components:
            raise ValueError("product needs at least one component")
        self.components = components
        offsets = np.cumsum([0] + [c.dim for c in components]).tolist()
        self._slices = tuple(slice(lo, hi) for lo, hi in zip(offsets, offsets[1:]))
        self.dim = offsets[-1]

    def _project(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [c._project(x[s]) for c, s in zip(self.components, self._slices)]
        )

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [c._project_rows(X[:, s]) for c, s in zip(self.components, self._slices)],
            axis=1,
        )


class Shifted(_Immutable):
    """base - shift, i.e. {y : y + shift in base}, projected by
    P(y) = P_base(y + shift) - shift; a stack goes row by row."""

    def __init__(self, base: ConvexSet, shift):
        self.base = base
        self.shift = _own(as_vector(shift, base.dim))
        self.dim = base.dim

    def _project(self, x: np.ndarray) -> np.ndarray:
        return self.base._project(x + self.shift) - self.shift
