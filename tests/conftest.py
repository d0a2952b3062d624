"""Shared fixtures and randomized-instance factories."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

import drsplit as d

# the line x + 5y = 6 against the nonnegative quadrant: the reference
# instance used throughout
LINE_L = [[1.0, 5.0]]
LINE_A = [6.0]

# desk-scale truncation of {(x, y) : -y <= x <= 2}, counterclockwise
DESK_POLYGON = [(2.0, -2.0), (2.0, 10.0), (-10.0, 10.0)]


@pytest.fixture
def line_orthant():
    return d.Affine(LINE_L, LINE_A), d.Orthant(2)


def affine_line_oracle(x, c=6):
    """Exact rational projection onto {x + 5y = c}: x - L^T (Lx - c) / 26."""
    x = [Fraction(v) for v in x]
    w = (x[0] + 5 * x[1] - c) / 26
    return (x[0] - w, x[1] - 5 * w)


def orthant_oracle(x):
    """Exact rational projection onto the nonnegative orthant."""
    return tuple(Fraction(max(v, 0)) for v in x)


def affine_oracle(L, b, x):
    """Exact rational projection onto {Lx = b}: x - L^T (L L^T)^{-1} (Lx - b),
    with the Gram system solved by Gauss-Jordan in Fractions.  Floats are
    read as the binary rationals they are.  Raises ValueError where L has
    not full row rank."""
    L = [[Fraction(v) for v in row] for row in L]
    x = [Fraction(v) for v in x]
    m = len(L)
    # the augmented system [L L^T | L x - b]
    rows = [[sum(p * q for p, q in zip(L[i], L[j])) for j in range(m)]
            + [sum(p * q for p, q in zip(L[i], x)) - Fraction(b[i])] for i in range(m)]
    for k in range(m):
        pivot = next((i for i in range(k, m) if rows[i][k] != 0), None)
        if pivot is None:
            raise ValueError("L has not full row rank")
        rows[k], rows[pivot] = rows[pivot], rows[k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(m):
            factor = rows[i][k]
            if i != k and factor != 0:
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[k])]
    y = [row[m] for row in rows]
    return tuple(xi - sum(L[j][i] * y[j] for j in range(m)) for i, xi in enumerate(x))


def dra_line_orthant_oracle(z, c=6):
    """One DRA step in Fractions on ({x + 5y = c}, orthant):
    z - P_A z + P_B(2 P_A z - z)."""
    a = affine_line_oracle(z, c)
    pbr = orthant_oracle([2 * ak - zk for ak, zk in zip(a, z)])
    return tuple(zk - ak + pk for zk, ak, pk in zip(z, a, pbr))


@pytest.fixture
def constructions(monkeypatch):
    """The classes of the Affine, Hyperplane and Shifted descriptors built
    while the test runs, in order."""
    built = []
    for cls in (d.Affine, d.Hyperplane, d.Shifted):
        def init(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self))
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    return built


def descriptor_zoo():
    """One instance of every descriptor class, for property suites."""
    return [
        ("affine", d.Affine(LINE_L, LINE_A)),
        ("affine3", d.Affine([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]], [1.0, 2.0])),
        ("hyperplane", d.Hyperplane([1.0, 5.0], 6.0)),
        ("hyperplane0", d.Hyperplane([0.0, 1.0, 0.0], 0.0)),
        ("halfspace", d.Halfspace([1.0, 1.0], 2.0)),
        ("box", d.Box([-1.0, 0.0, -3.0], [2.0, 0.5, 4.0])),
        ("orthant", d.Orthant(4)),
        ("ball", d.Ball([1.0, -2.0], 3.0)),
        ("polygon", d.Polygon2D(DESK_POLYGON)),
        ("epi_quad", d.Epigraph1D(d.quadratic(1.0, 0.0, -1.0))),
        ("epi_abs", d.Epigraph1D(d.absshift(1.0, -1.0))),
        ("diagonal", d.Diagonal(3, 2)),
        (
            "product",
            d.Product([d.Halfspace([1.0], 2.0), d.Box([-1.0], [1.0]), d.Orthant(2)]),
        ),
        ("shifted", d.Shifted(d.Orthant(2), [1.5, -0.5])),
    ]


def zoo_params():
    return [pytest.param(s, id=name) for name, s in descriptor_zoo()]


def sample_point(s, rng, radius=8.0):
    """A point of the set: project a random ambient point onto it."""
    return s.project(rng.uniform(-radius, radius, s.dim))


def random_linear_subspace(rng):
    """A random linear-subspace descriptor (affine a=0, hyperplane through
    0, or diagonal)."""
    kind = rng.integers(0, 3)
    if kind == 0:
        dim = int(rng.integers(2, 6))
        rows = int(rng.integers(1, dim))
        while True:
            L = rng.normal(size=(rows, dim))
            try:
                return d.Affine(L, np.zeros(rows))
            except d.RankDeficientError:
                continue
    if kind == 1:
        dim = int(rng.integers(2, 6))
        n = rng.normal(size=dim)
        while np.linalg.norm(n) < 1e-3:
            n = rng.normal(size=dim)
        return d.Hyperplane(n, 0.0)
    copies = int(rng.integers(2, 4))
    base = int(rng.integers(1, 3))
    return d.Diagonal(copies, base)


def random_closed_convex(rng, dim):
    """A random closed convex descriptor of the given ambient dimension."""
    kind = rng.integers(0, 5)
    if kind == 0:
        lo = rng.uniform(-4, 0, dim)
        return d.Box(lo, lo + rng.uniform(0.5, 4, dim))
    if kind == 1:
        return d.Ball(rng.uniform(-3, 3, dim), float(rng.uniform(0.5, 4)))
    if kind == 2:
        n = rng.normal(size=dim)
        while np.linalg.norm(n) < 1e-3:
            n = rng.normal(size=dim)
        return d.Halfspace(n, float(rng.uniform(-2, 2)))
    if kind == 3:
        return d.Orthant(dim)
    return d.Shifted(d.Orthant(dim), rng.uniform(-2, 2, dim))


def random_linear_instance(rng):
    """A random (linear subspace, closed convex set) pair of matching dim."""
    set_a = random_linear_subspace(rng)
    return set_a, random_closed_convex(rng, set_a.dim)
