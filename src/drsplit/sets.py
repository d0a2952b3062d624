"""Convex set descriptors with exact, closed-form projectors.

Every descriptor knows its ambient dimension and provides ``project``,
``reflect`` (2 P - Id) and ``distance``, plus ``project_rows`` for a stack
of points, one per row.  All projectors are exact nearest-point maps,
in closed form except ``Epigraph1D``, which finds the boundary abscissa by
Newton's method (quadratics) or bisection (custom functions).  All
operations are pure functions of immutable inputs.

Row-wise projectors use elementwise arithmetic only, never a matrix
product over the stack, so each row's result is the same bits whichever
other rows share the stack.  Every descriptor projects a stack at once
except an epigraph of a custom function, whose ``fn`` and ``subgrad`` take
one float, so its rows are projected one by one.  Polygon and epigraph
rows have the bits of ``project`` on that row.  Affine rows accumulate
P x column by column, left to right, in O(N * dim) memory for N rows.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from . import epigraph as _epigraph
from .functions import ConvexFunction1D, FunctionKind
from .trace import _norm, _norms

# Relative pivot threshold for declaring the Gram matrix of an affine
# descriptor numerically singular.
RANK_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Input vector dimension does not match a set's ambient dimension."""


class RankDeficientError(ValueError):
    """The constraint matrix of an affine set is not of full row rank."""


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally checking length."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {v.shape}")
    if not np.all(np.isfinite(v)):
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


def _size(value, name: str) -> int:
    """A set size: a positive Python or numpy integer, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return operator.index(value)


class ConvexSet:
    """Base class: a closed convex subset of R^dim with a nearest-point map."""

    dim: int

    def _project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        # row by row; only an epigraph of a custom function still needs this
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

    def contains(self, x, tol: float = 1e-10) -> bool:
        return self.distance(x) <= tol


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


class Affine(ConvexSet):
    """{x : L x = a} for a full-row-rank matrix L.

    The projector applies the Moore-Penrose action x - L^+(Lx - a), with
    L^+(r) obtained by solving (L L^T) w = r through a Cholesky
    factorization of the Gram matrix.  Rank deficiency (a squared pivot
    below RANK_TOL times the squared norm of its row) is rejected at
    construction.  A stack of N rows is projected as P x + q with the
    products x_k P[:, k] added column by column, left to right, in
    O(N * dim) memory.
    """

    def __init__(self, L, a):
        L = np.atleast_2d(L)
        L = as_rows(L, L.shape[-1])
        a = as_vector(a, L.shape[0])
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
        self._P = np.eye(self.dim) - Ls.T @ w
        self._q = Ls.T @ _cho_solve(C, np.ldexp(a, -e))

    def _project(self, x: np.ndarray) -> np.ndarray:
        return self._P @ x + self._q

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        P = self._P
        acc = X[:, :1] * P[:, 0]
        for k in range(1, self.dim):
            acc += X[:, k:k + 1] * P[:, k]
        return acc + self._q

    def is_linear(self) -> bool:
        return bool(np.all(self.a == 0.0))


class _NormalSet(ConvexSet):
    """Hyperplane's and Halfspace's constructor: ``normal`` and ``offset``
    stay as given, the projectors scale both by the power of two that brings
    the normal's largest |entry| into [0.5, 1), as ``Affine`` does."""

    def __init__(self, normal, offset: float):
        self.normal = as_vector(normal)
        self.offset = as_vector(float(offset)).item()
        e = int(np.frexp(np.abs(self.normal).max(initial=0.0))[1])
        self._n = np.ldexp(self.normal, -e)
        self._nn = float(self._n @ self._n)
        if self._nn == 0.0:
            raise ValueError(f"{type(self).__name__.lower()} normal must be nonzero")
        self._c = math.ldexp(self.offset, -e)
        self.dim = self.normal.shape[0]


class Hyperplane(_NormalSet):
    """{x : <normal, x> = offset}."""

    def _project(self, x: np.ndarray) -> np.ndarray:
        return x - ((self._n @ x - self._c) / self._nn) * self._n

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        t = ((X * self._n).sum(axis=1) - self._c) / self._nn
        return X - t[:, None] * self._n

    def is_linear(self) -> bool:
        return self.offset == 0.0


class Halfspace(_NormalSet):
    """{x : <normal, x> <= offset}."""

    def _project(self, x: np.ndarray) -> np.ndarray:
        excess = self._n @ x - self._c
        if excess <= 0.0:
            return x.copy()
        return x - (excess / self._nn) * self._n

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        excess = (X * self._n).sum(axis=1) - self._c
        moved = X - (excess / self._nn)[:, None] * self._n
        return np.where((excess > 0.0)[:, None], moved, X)


class Box(ConvexSet):
    """{x : lo <= x <= hi} componentwise, with finite bounds."""

    def __init__(self, lo, hi):
        self.lo = as_vector(lo)
        self.hi = as_vector(hi, self.lo.shape[0])
        if np.any(self.lo > self.hi):
            raise ValueError("box requires lo <= hi componentwise")
        self.dim = self.lo.shape[0]

    def _project(self, x: np.ndarray) -> np.ndarray:
        # the bits of ``np.clip``, without its per-call wrapper cost
        return np.minimum(np.maximum(x, self.lo), self.hi)

    _project_rows = _project


class Orthant(ConvexSet):
    """The nonnegative orthant of R^dim."""

    def __init__(self, dim: int):
        self.dim = _size(dim, "dimension")

    def _project(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    _project_rows = _project


class Ball(ConvexSet):
    """Closed Euclidean ball of positive radius."""

    def __init__(self, center, radius: float):
        self.center = as_vector(center)
        self.radius = float(radius)
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        self.dim = self.center.shape[0]

    def _project(self, x: np.ndarray) -> np.ndarray:
        d = x - self.center
        nd = _norm(d)
        if nd <= self.radius:
            return x.copy()
        return self.center + (self.radius / nd) * d

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        D = X - self.center
        nd = _norms(D)
        outside = nd > self.radius
        scale = self.radius / np.where(outside, nd, 1.0)
        return np.where(outside[:, None], self.center + scale[:, None] * D, X)


class Polygon2D(ConvexSet):
    """Convex polygon in the plane, vertices in counterclockwise order.

    The projector is exact: interior points pass through; otherwise the
    nearest point is the closest of the clamped projections onto the edge
    segments (vertices included via clamping).
    """

    dim = 2

    def __init__(self, vertices):
        v = as_rows(vertices, 2)
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
        self._edges = edges
        self._edge_pos = sq > 0
        self._edge_div = np.where(self._edge_pos, sq, 1.0)
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
        # ``_project`` over an (N, edges) array, for the rows outside
        v, e = self.vertices, self._edges
        rel_x = X[:, :1] - v[:, 0]
        rel_y = X[:, 1:] - v[:, 1]
        i = np.flatnonzero(~(e[:, 0] * rel_y - e[:, 1] * rel_x >= 0.0).all(axis=1))
        # take, not [i]: far cheaper on 2-D rows
        rel_x, rel_y, Xi = (a.take(i, axis=0) for a in (rel_x, rel_y, X))
        t = (rel_x * e[:, 0] + rel_y * e[:, 1] + 0.0) / self._edge_div
        t = np.minimum(np.maximum(np.where(self._edge_pos, t, 0.0), 0.0), 1.0)
        cand_x = v[:, 0] + t * e[:, 0]
        cand_y = v[:, 1] + t * e[:, 1]
        dx, dy = cand_x - Xi[:, :1], cand_y - Xi[:, 1:]
        k = np.argmin(dx * dx + dy * dy, axis=1)
        rows = np.arange(i.size)
        out = X.copy()
        out[i, 0] = cand_x[rows, k]
        out[i, 1] = cand_y[rows, k]
        return out


class Epigraph1D(ConvexSet):
    """{(x, rho) : f(x) <= rho} for a scalar convex f."""

    dim = 2

    def __init__(self, f: ConvexFunction1D):
        self.f = f

    def _project(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(_epigraph.project_epigraph(self.f, (x[0], x[1])))

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        # ``project_epigraph`` on every row at once
        f = self.f
        if f.kind is FunctionKind.CUSTOM:
            return super()._project_rows(X)
        if not np.isfinite(X).all():
            raise ValueError("epigraph points must have finite coordinates")
        # an overflow in f or in a projector is silent, as in float arithmetic
        with np.errstate(over="ignore", invalid="ignore"):
            i = np.flatnonzero(~(f(X[:, 0]) <= X[:, 1]))
            x, rho = X[i, 0], X[i, 1]
            move = x != f.minimizer
            if f.kind is FunctionKind.QUADRATIC:
                p = _epigraph._quadratic_projection_rows(f, x, rho, move)
            else:
                p = np.where(move, _epigraph._absshift_projection_rows(f, x, rho), x)
        out = X.copy()
        out[i, 0] = p
        out[i, 1] = f(p)
        return out


class Diagonal(ConvexSet):
    """{(x, ..., x) : x in R^base_dim} inside R^(copies * base_dim).

    The projection replaces every block with the mean of the blocks.
    """

    def __init__(self, copies: int, base_dim: int):
        self.copies = _size(copies, "copies")
        self.base_dim = _size(base_dim, "base_dim")
        self.dim = self.copies * self.base_dim

    def _project(self, x: np.ndarray) -> np.ndarray:
        # ``mean(axis=0)`` and ``np.tile`` with the same bits, without their
        # per-call wrapper cost
        c = self.copies
        mean = np.add.reduce(x.reshape(c, self.base_dim), axis=0) / c
        return np.concatenate((mean,) * c)

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        # block by block, in the order ``mean(axis=0)`` adds them
        b = self.base_dim
        total = X[:, :b].copy()
        for k in range(1, self.copies):
            total += X[:, k * b : (k + 1) * b]
        return np.tile(total / self.copies, (1, self.copies))

    def is_linear(self) -> bool:
        return True


class Product(ConvexSet):
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


class Shifted(ConvexSet):
    """base - shift, i.e. {y : y + shift in base}.

    Used to reduce affine-subspace problems to linear-subspace ones; the
    projector is P(y) = P_base(y + shift) - shift.
    """

    def __init__(self, base: ConvexSet, shift):
        self.base = base
        self.shift = as_vector(shift, base.dim)
        self.dim = base.dim

    def _project(self, x: np.ndarray) -> np.ndarray:
        return self.base._project(x + self.shift) - self.shift

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        return self.base._project_rows(X + self.shift) - self.shift


def is_linear_subspace(s: ConvexSet) -> bool:
    """True for descriptors of linear subspaces: affine sets and
    hyperplanes through the origin, and diagonals."""
    checker = getattr(s, "is_linear", None)
    return bool(checker()) if checker is not None else False


def project(s: ConvexSet, x) -> np.ndarray:
    """Nearest point of the set to x."""
    return s.project(x)


def reflect(s: ConvexSet, x) -> np.ndarray:
    """Reflection of x through its projection: 2 P(x) - x."""
    return s.reflect(x)


def distance(s: ConvexSet, x) -> float:
    """Euclidean distance of x to the set."""
    return s.distance(x)


def project_affine(L, a, x) -> np.ndarray:
    """Project x onto {y : L y = a}; L must have full row rank."""
    return Affine(L, a).project(x)


def project_orthant(x) -> np.ndarray:
    """Componentwise positive part."""
    return np.maximum(as_vector(x), 0.0)
