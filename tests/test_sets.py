import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import drsplit as d
from conftest import (
    DESK_POLYGON,
    LINE_A,
    LINE_L,
    affine_line_oracle,
    descriptor_zoo,
    sample_point,
    zoo_params,
)
from drsplit import cli

# ---------------------------------------------------------------------------
# affine projection


def test_project_affine_matches_rational_oracle():
    expected = affine_line_oracle((0, 0))
    assert expected == (Fraction(3, 13), Fraction(15, 13))
    p = d.Affine(LINE_L, LINE_A).project([0.0, 0.0])
    assert np.allclose(p, [float(v) for v in expected], rtol=0, atol=1e-15)


def test_project_affine_fixes_points_of_the_set():
    for x in ([6.0, 0.0], [1.0, 1.0], [-4.0, 2.0]):
        p = d.Affine(LINE_L, LINE_A).project(x)
        assert np.allclose(p, x, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rows", [1, 2, 5, 20])
def test_project_affine_residual_and_orthogonality(rows):
    # P x + q is the projection onto {L x = a} exactly when P is the
    # orthogonal projector onto ker L (symmetric, idempotent, L P = 0) and
    # L q = a.  Rows are scaled by 10^U(-3, 3), so every bound is relative
    # to the norm of its row; an entry of P @ P sums n products.  The rank
    # test is relative to each row's norm too, so every draw is accepted.
    rng = np.random.default_rng(rows)
    tol = 1e-12
    for _ in range(10):
        n = rows + int(rng.integers(0, 11))
        L = rng.normal(size=(rows, n)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
        a = rng.normal(size=rows)
        s = d.Affine(L, a)
        P, q = s._P, s._q
        row_norm = np.linalg.norm(L, axis=1)
        assert np.abs(P - P.T).max() <= tol
        assert np.abs(P @ P - P).max() <= n * tol
        assert np.all(np.abs(L @ P) <= tol * row_norm[:, None])
        assert np.all(np.abs(L @ q - a) <= tol * (np.abs(a) + row_norm * np.linalg.norm(q)))
        # x - p must be orthogonal to ker L: check against a basis of ker L,
        # taken from the rows scaled to unit length
        kernel = np.linalg.svd(L / row_norm[:, None])[2][rows:]
        for _ in range(5):
            x = rng.uniform(-10, 10, n)
            p = s.project(x)
            size = np.linalg.norm(x) + np.linalg.norm(p)
            assert np.all(np.abs(L @ p - a) <= tol * (np.abs(a) + row_norm * size))
            assert np.all(np.abs(kernel @ (x - p)) <= tol * size)


def test_vertical_axis_projection_drops_second_coordinate():
    s = d.Affine([[0.0, 1.0]], [0.0])
    p = s.project([3.7, -2.5])
    assert p[0] == 3.7 and p[1] == 0.0


def test_rank_deficient_rejected():
    with pytest.raises(d.RankDeficientError):
        d.Affine([[0.0, 0.0]], [0.0])
    with pytest.raises(d.RankDeficientError):
        d.Affine([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0])
    with pytest.raises(d.RankDeficientError):
        d.Affine([[1.0, 2.0], [1.0, 2.0 + 1e-9]], [1.0, 1.0])


def test_rank_test_ignores_row_scale():
    # scaling a row leaves {L x = a} unchanged, so a short row of a
    # well-conditioned L is accepted; a row nearly in the span of the rows
    # before it is rejected at any scale
    L = np.array([[1.0, 0.0], [0.0, 1e-6]])
    a = np.array([2.0, -3e-6])
    s = d.Affine(L, a)
    assert np.array_equal(L @ s._q, a)
    assert np.array_equal(s.project([5.0, 5.0]), [2.0, -3.0])
    for scale in (1e-3, 1.0, 1e3):
        with pytest.raises(d.RankDeficientError):
            d.Affine([[scale, 0.0], [scale, 1e-7 * scale]], [0.0, 0.0])


def test_affine_rows_beyond_the_gram_range():
    # the line x = 0 written with a row whose square overflows or underflows
    for row in ([1e200, 0.0], [1e-170, 0.0]):
        s = d.Affine([row], [0.0])
        assert np.array_equal(s.project([1.0, 2.0]), [0.0, 2.0])


def _random_affine(rng, rows, dim):
    while True:
        try:
            return d.Affine(rng.normal(size=(rows, dim)), rng.normal(size=rows))
        except d.RankDeficientError:
            continue


@pytest.mark.parametrize("dim", range(1, 8))
def test_affine_rows_have_the_bits_of_the_summed_products(dim):
    # rows add x_k P[:, k] column by column, left to right; below dim 8
    # numpy's sum over the last axis of the products adds in that order too
    rng = np.random.default_rng(300 + dim)
    for _ in range(20):
        s = _random_affine(rng, int(rng.integers(1, max(dim, 2))), dim)
        X = rng.normal(size=(200, dim)) * 10.0 ** rng.uniform(-3, 3, size=(200, 1))
        X[rng.random(X.shape) < 0.1] = -0.0
        want = (X[:, None, :] * s._P).sum(axis=-1) + s._q
        got = s._project_rows(X)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_affine_rows_do_not_depend_on_the_stack():
    # every descriptor of the zoo, and wide ones (dim >= 8): each row of an
    # odd stack has the bits of that row projected alone, of the reversed
    # stack's row and of the row 5 places down a longer stack, and a (0, dim)
    # stack projects to an empty (0, dim) result
    rng = np.random.default_rng(350)
    wide = [
        ("affine20x50", _random_affine(rng, 20, 50)),
        ("hyperplane9", d.Hyperplane(rng.normal(size=9), 1.5)),
        ("halfspace8", d.Halfspace(rng.normal(size=8), -0.5)),
        ("box9", d.Box(-np.arange(9.0), np.arange(9.0))),
        ("ball20", d.Ball(rng.normal(size=20), 4.0)),
        ("diagonal4x3", d.Diagonal(4, 3)),
        ("diagonal9x1", d.Diagonal(9, 1)),
        ("product8", d.Product([d.Ball([0.0, 1.0], 2.0), d.Halfspace(np.ones(8), 1.0)])),
    ]
    for name, s in descriptor_zoo() + wide:
        X = rng.normal(size=(63, s.dim)) * 10.0
        X[rng.random(X.shape) < 0.1] = -0.0
        whole = s.project_rows(X).view(np.int64)
        assert np.array_equal(s.project_rows(X[::-1]).view(np.int64), whole[::-1]), name
        shifted = s.project_rows(np.concatenate([X[-5:], X])).view(np.int64)
        assert np.array_equal(shifted[5:], whole), name
        for k in range(63):
            assert np.array_equal(s.project_rows(X[k:k + 1]).view(np.int64), whole[k:k + 1]), name
        for k, x in enumerate(X):
            assert np.array_equal(s.project(x).view(np.int64), whole[k]), name
        empty = s.project_rows(np.zeros((0, s.dim)))
        assert empty.shape == (0, s.dim) and empty.dtype == float, name


def test_affine_rows_take_memory_linear_in_the_stack():
    # 1,681 rows in R^50: the inputs and the result take 0.67 MB each, an
    # N x dim x dim temporary of the products would take 34 MB
    rng = np.random.default_rng(351)
    s = _random_affine(rng, 20, 50)
    X = rng.normal(size=(1681, 50))
    tracemalloc.start()
    try:
        s._project_rows(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("kind", [d.Hyperplane, d.Halfspace])
def test_normal_beyond_the_gram_range(kind):
    # the line x + y = 0 with a normal whose square overflows, and the line
    # x = 0 with one whose square underflows; both keep the normal as given
    big = kind([1e200, 1e200], 0.0)
    assert np.array_equal(big.project([1.0, 1.0]), [0.0, 0.0])
    assert np.array_equal(big.project_rows([[1.0, 1.0]]), [[0.0, 0.0]])
    tiny = kind([1e-170, 0.0], 0.0)
    assert np.array_equal(tiny.project([3.0, 4.0]), [0.0, 4.0])
    assert np.array_equal(tiny.project_rows([[3.0, 4.0]]), [[0.0, 4.0]])
    assert np.array_equal(tiny.normal, [1e-170, 0.0]) and tiny.offset == 0.0
    assert cli.set_to_config(big)["normal"] == [1e200, 1e200]
    # an offset whose scaled form leaves the float range: the set has no
    # representable point
    with pytest.raises(OverflowError):
        kind([1e-170, 0.0], 1e200)


@pytest.mark.parametrize("kind", [d.Hyperplane, d.Halfspace])
def test_normal_scaling_keeps_the_bits(kind):
    # powers of two scale exactly, so a normal in the normal range projects
    # to the bits of the unscaled formula
    rng = np.random.default_rng(71)
    for _ in range(50):
        n = rng.normal(size=3) * 10.0 ** rng.uniform(-100, 100)
        c = float(rng.normal()) * float(np.abs(n).max())
        s = kind(n, c)
        X = rng.normal(size=(5, 3)) * 10.0
        # both forms take <n, x> as the row sum of the products
        e = (X * n).sum(axis=1) - c
        want = X - (e / (n @ n))[:, None] * n
        if kind is d.Halfspace:
            want = np.where((e > 0.0)[:, None], want, X)
        for got in (np.array([s.project(x) for x in X]), s.project_rows(X)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_dimension_mismatch():
    s = d.Affine(LINE_L, LINE_A)
    with pytest.raises(d.DimensionMismatchError):
        s.project([1.0, 2.0, 3.0])
    with pytest.raises(d.DimensionMismatchError):
        d.Orthant(2).distance([1.0, 2.0, 3.0])


def test_vectors_must_be_finite():
    with pytest.raises(ValueError):
        d.Orthant(2).project([np.nan, 1.0])
    with pytest.raises(ValueError):
        d.Ball([0.0, np.inf], 1.0)
    # a non-finite offset or function parameter is refused at construction,
    # before a projector can hand back NaN or pass a point through unchanged
    for offset in (np.nan, np.inf, -np.inf):
        for kind in (d.Hyperplane, d.Halfspace):
            with pytest.raises(ValueError):
                kind([1.0, 1.0], offset)
    for params in ((np.nan, 0.0, -1.0), (1.0, np.inf, 0.0), (1.0, 0.0, -np.inf)):
        with pytest.raises(ValueError):
            d.quadratic(*params)
    for params in ((np.inf, -1.0), (np.nan, -1.0), (1.0, np.nan)):
        with pytest.raises(ValueError):
            d.absshift(*params)


def test_degenerate_inputs_are_refused():
    # each check with its own message: a stack is no vector, a normal must
    # be nonzero, a box's bounds ordered, a radius positive and finite and a
    # product nonempty
    with pytest.raises(ValueError, match=r"^expected a vector, got array of shape \(2, 2\)$"):
        d.sets.as_vector(np.zeros((2, 2)))
    for kind in (d.Hyperplane, d.Halfspace):
        with pytest.raises(ValueError, match=f"^{kind.__name__.lower()} normal must be nonzero$"):
            kind([0.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="^box requires lo <= hi componentwise$"):
        d.Box([0.0, 1.0], [1.0, 0.0])
    for radius in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="^radius must be positive$"):
            d.Ball([0.0, 0.0], radius)
    with pytest.raises(ValueError, match="^radius must be finite$"):
        d.Ball([0.0, 0.0], math.inf)
    with pytest.raises(ValueError, match="^product needs at least one component$"):
        d.Product([])


def test_set_sizes_are_positive_integers():
    # a fraction is not truncated and a bool is not a size
    for make in (lambda: d.Orthant(2.7), lambda: d.Orthant(True),
                 lambda: d.Diagonal(2.9, 1), lambda: d.Diagonal(2, 1.5)):
        with pytest.raises(ValueError):
            make()
    assert d.Orthant(np.int64(2)).dim == 2


# ---------------------------------------------------------------------------
# orthant, ball, diagonal, polygon examples


def test_project_orthant_clamps():
    assert np.array_equal(d.Orthant(2).project([100.0, -100.0]), [100.0, 0.0])
    p = d.Orthant(2).project([3 / 13, 15 / 13])
    assert np.array_equal(p, [3 / 13, 15 / 13])
    assert np.array_equal(d.Orthant(3).project([-1.0, -2.0, 0.5]), [0.0, 0.0, 0.5])


def test_diagonal_projects_to_block_mean():
    assert np.array_equal(d.Diagonal(2, 1).project([0.0, 4.0]), [2.0, 2.0])


def test_ball_projects_radially():
    assert np.array_equal(d.Ball([0.0, 0.0], 1.0).project([2.0, 0.0]), [1.0, 0.0])


def _polygon_brute_force(vertices, x, samples=20001):
    """Independent oracle: nearest of dense boundary samples (or x itself
    when inside)."""
    v = np.asarray(vertices, float)
    x = np.asarray(x, float)
    edges = np.roll(v, -1, axis=0) - v
    inside = all(
        e[0] * (x - p)[1] - e[1] * (x - p)[0] >= 0 for p, e in zip(v, edges)
    )
    if inside:
        return x, 0.0
    best, best_d = None, np.inf
    for p, e in zip(v, edges):
        ts = np.linspace(0.0, 1.0, samples)
        pts = p + ts[:, None] * e
        dist = np.linalg.norm(pts - x, axis=1)
        k = int(np.argmin(dist))
        if dist[k] < best_d:
            best, best_d = pts[k], float(dist[k])
    return best, best_d


def test_polygon_example_point():
    s = d.Polygon2D(DESK_POLYGON)
    assert np.allclose(s.project([3.0, 1.0]), [2.0, 1.0], rtol=0, atol=1e-14)


def test_polygon_against_brute_force():
    s = d.Polygon2D(DESK_POLYGON)
    rng = np.random.default_rng(5)
    spacing = 12 * math.sqrt(2) / 20000
    for _ in range(40):
        x = rng.uniform(-12, 12, 2)
        p = s.project(x)
        ref, ref_d = _polygon_brute_force(DESK_POLYGON, x)
        assert np.linalg.norm(p - ref) <= 2 * spacing
        assert abs(np.linalg.norm(x - p) - ref_d) <= 2 * spacing


def test_polygon_validation():
    with pytest.raises(ValueError):
        d.Polygon2D([(0, 0), (1, 0)])
    with pytest.raises(ValueError):  # clockwise
        d.Polygon2D([(0, 0), (0, 1), (1, 0)])
    with pytest.raises(ValueError):  # not convex
        d.Polygon2D([(0, 0), (2, 0), (1, 0.2), (2, 2), (0, 2)])


# ---------------------------------------------------------------------------
# reflect / distance


def test_reflect_affine_example():
    ox, oy = affine_line_oracle((0, 0))
    expected = (2 * ox, 2 * oy)
    assert expected == (Fraction(6, 13), Fraction(30, 13))
    r = d.Affine(LINE_L, LINE_A).reflect([0.0, 0.0])
    assert np.allclose(r, [float(v) for v in expected], rtol=0, atol=1e-15)


def test_reflect_fixes_set_points():
    rng = np.random.default_rng(1)
    for s in (d.Affine(LINE_L, LINE_A), d.Box([-1.0], [1.0]), d.Ball([0.0, 0.0], 2.0)):
        c = sample_point(s, rng)
        assert np.linalg.norm(s.reflect(c) - c) <= 1e-12 * (1 + np.linalg.norm(c))


def test_reflect_orthant_is_absolute_value():
    rng = np.random.default_rng(2)
    x = rng.uniform(-5, 5, 6)
    assert np.array_equal(d.Orthant(6).reflect(x), np.abs(x))


def test_distance_examples():
    assert d.Orthant(2).distance([1.0, 2.0]) == 0.0
    assert d.Orthant(2).distance([-3.0, 4.0]) == 3.0
    # |<n, x> - offset| / ||n|| for the line through (0, 0)
    expected = 6 / math.sqrt(26)
    assert abs(d.Hyperplane([1.0, 5.0], 6.0).distance([0.0, 0.0]) - expected) < 1e-14
    assert abs(d.Affine(LINE_L, LINE_A).distance([0.0, 0.0]) - expected) < 1e-14


# ---------------------------------------------------------------------------
# property suites over the descriptor zoo


@pytest.mark.parametrize("s", zoo_params())
def test_projection_idempotent(s):
    rng = np.random.default_rng(10)
    for _ in range(200):
        x = rng.uniform(-8, 8, s.dim)
        p = s.project(x)
        assert np.linalg.norm(s.project(p) - p) <= 1e-12 * (1 + np.linalg.norm(x))


@pytest.mark.parametrize("s", zoo_params())
def test_projection_firmly_nonexpansive(s):
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.uniform(-8, 8, s.dim)
        y = rng.uniform(-8, 8, s.dim)
        px, py = s.project(x), s.project(y)
        gap = float((px - py) @ (px - py)) - float((px - py) @ (x - y))
        assert gap <= 1e-10


@pytest.mark.parametrize("s", zoo_params())
def test_variational_inequality(s):
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = rng.uniform(-8, 8, s.dim)
        px = s.project(x)
        for _ in range(50):
            c = sample_point(s, rng)
            assert float((x - px) @ (c - px)) <= 1e-10


@pytest.mark.parametrize("count", [0, 1, 64])
@pytest.mark.parametrize("s", zoo_params())
def test_project_rows_matches_project(s, count):
    rng = np.random.default_rng(13)
    X = rng.uniform(-8, 8, (count, s.dim))
    for i in range(1, count, 2):
        X[i] = s.project(X[i])  # every other point lies in the set
    rows = s.project_rows(X)
    assert rows.shape == (count, s.dim)
    for i, x in enumerate(X):
        assert np.array_equal(rows[i].view(np.int64), s.project(x).view(np.int64))
        # a row's bits do not depend on the other rows of the stack
        assert np.array_equal(s.project_rows(X[i : i + 1])[0], rows[i])


@pytest.mark.parametrize("s", zoo_params())
def test_project_rows_rejects_bad_input(s):
    for bad in (np.nan, np.inf, -np.inf):
        X = np.zeros((3, s.dim))
        X[1, -1] = bad
        with pytest.raises(ValueError):
            s.project_rows(X)
    with pytest.raises(d.DimensionMismatchError):
        s.project_rows(np.zeros((3, s.dim + 1)))
    with pytest.raises(ValueError):
        s.project_rows(np.zeros(s.dim))


def _rebuilt_from_arrays(s):
    """s built again from writable float64 copies of its array inputs, and
    those copies."""
    if isinstance(s, d.Shifted):
        fields, cls = ("base", "shift"), d.Shifted
    else:
        cls, fields = cli._DESCRIPTORS[cli.set_to_config(s)["type"]]
    args = [getattr(s, key) for key in fields]
    args = [np.array(v) if isinstance(v, np.ndarray) else v for v in args]
    return cls(*args), [v for v in args if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("s", zoo_params())
def test_descriptors_keep_their_own_read_only_arrays(s):
    # a write to the caller's arrays after construction moves neither the
    # projections nor the problem-file form (-5.0 everywhere would give a
    # Box lo > hi), and a write into any array the descriptor holds raises
    t, inputs = _rebuilt_from_arrays(s)
    X = np.random.default_rng(27).uniform(-8.0, 8.0, (16, s.dim))

    def observed():
        config = None if isinstance(t, d.Shifted) else cli.set_to_config(t)
        return t.project_rows(X).tobytes(), [t.project(x).tobytes() for x in X], config

    before = observed()
    for v in inputs:
        v[...] = -5.0
    assert observed() == before
    held = [v for v in vars(t).values() if isinstance(v, np.ndarray)]
    assert len(held) >= len(inputs)
    for v in held:
        with pytest.raises(ValueError, match="read-only"):
            v.flat[0] = 1.0


@pytest.mark.parametrize("s", zoo_params())
def test_descriptors_refuse_rebinding_what_they_hold(s):
    # a rebound field left the caches built from the old one: the desk
    # polygon with new vertices projected by its old edges and wrote the
    # new ones to its problem-file form, and a Box with a new hi projected
    # with lo > hi.  Every field of the problem-file form and everything
    # else the constructor set refuses rebinding, to the same value or
    # another, and deletion, and neither the projections' bits nor the
    # form move
    if isinstance(s, d.Shifted):
        fields = ("base", "shift")
    else:
        fields = cli._DESCRIPTORS[cli.set_to_config(s)["type"]][1]
    X = np.random.default_rng(28).uniform(-8.0, 8.0, (16, s.dim))

    def observed():
        config = None if isinstance(s, d.Shifted) else cli.set_to_config(s)
        return s.project_rows(X).tobytes(), [s.project(x).tobytes() for x in X], config

    before = observed()
    names = {"dim", *fields, *vars(s)}
    for name in sorted(names):
        value = getattr(s, name)
        for new in (value, None):
            with pytest.raises(AttributeError, match="cannot be rebound"):
                setattr(s, name, new)
        # a deletion would let a later assignment rebind the field
        with pytest.raises(AttributeError, match="cannot be deleted"):
            delattr(s, name)
        assert getattr(s, name) is value
    assert observed() == before


def test_methods_can_still_be_shadowed_on_a_descriptor():
    # timing wrappers set project/distance/reflect on an instance and pop
    # them from its __dict__ afterwards; tests shadow _project and
    # _project_rows
    s = d.Orthant(2)
    calls = []
    for name in ("project", "distance", "reflect", "_project", "_project_rows"):
        method = getattr(s, name)
        setattr(s, name, lambda *args, _m=method: calls.append(1) or _m(*args))
        setattr(s, name, getattr(s, name))  # a shadow may be rebound
    assert s.project([-1.0, 2.0]).tolist() == [0.0, 2.0]
    assert s.project_rows([[-1.0, 2.0]]).tolist() == [[0.0, 2.0]]
    assert len(calls) == 3  # project, its _project, and _project_rows
    for name in ("distance", "reflect"):
        s.__dict__.pop(name)
    del s.project, s._project, s._project_rows  # the class methods come back
    assert vars(s) == {"dim": 2}
    assert s.project([-1.0, 2.0]).tolist() == [0.0, 2.0] and len(calls) == 3


def _signed_magnitudes():
    m = np.logspace(-8, 8, 17)
    return np.concatenate([-m[::-1], [-0.0, 0.0], m])


def _polygon_probes(vertices):
    """Vertices, edge midpoints, the integer grid (where the nearest
    candidates of two edges tie) and far points, and their negatives (so
    that -0.0 coordinates occur)."""
    v = np.asarray(vertices, float)
    mids = 0.5 * (v + np.roll(v, -1, axis=0))
    grid = np.stack(np.meshgrid(np.arange(-12.0, 13.0), np.arange(-12.0, 13.0)), -1)
    ring = np.array([[1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0], [-1, -1], [0, -1], [1, -1]])
    X = np.concatenate([v, mids, grid.reshape(-1, 2), 1e8 * ring, 1e8 * ring + 3.0])
    return np.concatenate([X, -X])


def _huge_probes():
    """Points of size 1e300 and 1e308, and their negatives: a polygon's
    candidate distances overflow there, and some are NaN."""
    huge = np.array([[1e300, -1e300], [1e300, 1e300], [-1e300, 0.0], [-0.0, 1e300], [1e308, 1e308]])
    return np.concatenate([huge, -huge])


def _epigraph_probes(f):
    """Points on the graph of f, inside and outside its epigraph, at x == u
    and at magnitudes from 1e-8 to 1e8."""
    xs = np.append(_signed_magnitudes(), f.minimizer)
    return np.array([(x, f(x) + r) for x in xs for r in _signed_magnitudes()])


BIT_CASES = [
    ("desk", d.Polygon2D(DESK_POLYGON)),
    # (-0.0, -1.0) projects onto the -0.0 vertex, whose y sign then follows
    # the sign of the edge parameter t, +0.0 in ``project``
    ("zero_edge", d.Polygon2D([(0.0, -0.0), (4, 0), (4, 0), (4, 3), (0, 3)])),
    # every edge slanted: the huge probes give NaN distances on early edges
    ("diamond", d.Polygon2D([(4, 0), (0, 4), (-4, 0), (0, -4)])),
    ("quad", d.Epigraph1D(d.quadratic(1, 0, -1))),
    ("quad_shifted", d.Epigraph1D(d.quadratic(0.5, 1, -3))),
    ("constant", d.Epigraph1D(d.quadratic(0, 0, -1))),
    ("absshift", d.Epigraph1D(d.absshift(1, -1))),
    # the scalar forms below follow their row forms' operations in order
    ("affine1x2", d.Affine(LINE_L, LINE_A)),
    ("affine3x7", _random_affine(np.random.default_rng(2600), 3, 7)),
    ("affine3x9", _random_affine(np.random.default_rng(2604), 3, 9)),
    ("hyperplane2", d.Hyperplane([1, 5], 6)),
    ("hyperplane3", d.Hyperplane(np.random.default_rng(2601).normal(size=3), 0.7)),
    ("halfspace1_5", d.Halfspace([1, 5], 6)),
    ("halfspace0.3_-1.7", d.Halfspace([0.3, -1.7], -0.4)),
    ("halfspace3", d.Halfspace(np.random.default_rng(2602).normal(size=3), 0.0)),
    ("ball2", d.Ball([1, -2], 3)),
    ("ball3", d.Ball([0.5, -0.0, 2.0], 0.25)),
    ("diagonal1x1", d.Diagonal(1, 1)),
    ("diagonal2x1", d.Diagonal(2, 1)),
    ("diagonal5x2", d.Diagonal(5, 2)),
    ("diagonal9x1", d.Diagonal(9, 1)),
    ("product", d.Product([d.Affine(LINE_L, LINE_A), d.Halfspace([0.3, -1.7], -0.4),
                           d.Ball([1, -2], 3), d.Diagonal(2, 1)])),
    ("shifted", d.Shifted(d.Product([d.Hyperplane([1, 5], 6), d.Diagonal(2, 1)]),
                          [1.5, -0.0, -2.0, 0.25])),
]


@pytest.mark.parametrize("s", [pytest.param(s, id=name) for name, s in BIT_CASES])
def test_project_rows_bits_equal_project(s):
    # int64 views, so the sign of zero counts
    if isinstance(s, d.Polygon2D):
        X = _polygon_probes(s.vertices)
        # beyond the float range the first NaN distance wins, as in argmin;
        # only these rows overflow, so only they are projected under errstate
        huge = _huge_probes()
        with np.errstate(over="ignore", invalid="ignore"):
            huge_rows = s.project_rows(huge)
        for x, row in zip(huge, huge_rows):
            assert np.array_equal(row.view(np.int64), s.project(x).view(np.int64)), x
    elif isinstance(s, d.Epigraph1D):
        X = _epigraph_probes(s.f)
    else:   # a row-pin pool, signed zeros included
        X = _row_pool(s, np.random.default_rng(2603), np.zeros((0, s.dim)))
    rows = s.project_rows(X)
    for x, row in zip(X, rows):
        assert np.array_equal(row.view(np.int64), s.project(x).view(np.int64)), x


@pytest.mark.parametrize("f", [d.quadratic(1, 0, -1), d.quadratic(0.5, 1, -3), d.absshift(2, 0)],
                         ids=lambda f: f.spec_name())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_epigraph_rows_stop_each_at_its_own_step(f):
    # one stack, one call: rows that stay, rows that stop at once and rows
    # that step on freeze in place while the others step; an overflow on a
    # row that does not move is as silent as in ``project``
    xs = [-3.0, 0.5, 2.0]
    X = [(x, f(x)) for x in xs] + [(x, f(x) + 1.0) for x in xs]  # on and inside
    X += [(f.minimizer, -5.0), (-0.0, -5.0)]  # x = u, and -0.0
    X += [(2.0, -1e200), (-7.0, -1e250)]  # far below: the quadratics stop at u
    X += [(x, f(x) - 1e-9) for x in xs]  # 1 to 3 Newton steps
    X += [(10.0, -1.0), (1e3, 0.0), (1e8, -5.0), (-1e4, -1e4)]  # 8 to 36 steps
    X += [(0.0, 1e308), (0.0, -1e308)]
    s = d.Epigraph1D(f)
    X = np.array(X)
    for x, row in zip(X, s.project_rows(X)):
        assert np.array_equal(row.view(np.int64), s.project(x).view(np.int64)), x


def test_custom_epigraph_rows_have_the_bits_of_project():
    # a custom function's epigraph is projected row by row, by the loop of
    # ConvexSet._project_rows
    f = d.custom(lambda x: (x - 2) ** 4 - 1, lambda x: 4 * (x - 2) ** 3, 2.0)
    s = d.Epigraph1D(f)
    rng = np.random.default_rng(71)
    X = rng.uniform(-8, 8, (40, 2))
    X[::4, 1] = [f(x) for x in X[::4, 0]]  # on the graph
    X[1] = (f.minimizer, -3.0)
    rows = s.project_rows(X)
    assert rows.shape == X.shape
    for x, row in zip(X, rows):
        assert np.array_equal(row.view(np.int64), s.project(x).view(np.int64)), x


def _projector_probe_corpus():
    """(set, points) pairs for the 2-D scalar projectors: the desk and
    zero-edge polygons, seeded random convex polygons at three scales, boxes
    and balls with signed-zero and extreme bounds, each with its probes, all
    pairs of signed magnitudes from 1e-8 to 1e8 and ±0, and points of size
    1e300 and 1e308, whose candidate distances can be NaN."""
    rng = np.random.default_rng(1010)
    polygons = [DESK_POLYGON, BIT_CASES[1][1].vertices]
    for scale in (1e-3, 1.0, 1e3):
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 6))
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        polygons.append(scale * (ring + rng.uniform(-1.0, 1.0, 2)))
    m = _signed_magnitudes()
    pairs = np.stack(np.meshgrid(m, m), -1).reshape(-1, 2)
    huge = _huge_probes()
    for v in polygons:
        yield d.Polygon2D(v), np.concatenate([_polygon_probes(v), pairs, huge])
    for lo, hi in (([-1.0, 0.0], [2.0, 0.5]), ([-0.0, 0.0], [0.0, -0.0]), ([0.0, -0.0], [1e-8, 1e8])):
        yield d.Box(lo, hi), np.concatenate([pairs, huge])
    for center, radius in (([1.0, -2.0], 3.0), ([0.0, 0.0], 1e-8), ([-0.0, 5.0], 1e8)):
        yield d.Ball(center, radius), np.concatenate([pairs, huge, 1e150 * pairs[-9:]])


def test_scalar_projector_bits_are_pinned():
    # recorded with ``np.clip``, ``np.linalg.norm`` and an einsum polygon
    # projector, and re-recorded when ``Ball`` took the row norm's order
    # (20 probes of the ball of radius 1e-8 moved one ulp): a change in
    # these projectors' float arithmetic moves it
    h = hashlib.sha256()
    count = 0
    # huge probes overflow inside the projectors, as the recorded ones did
    with np.errstate(over="ignore", invalid="ignore"):
        for s, X in _projector_probe_corpus():
            for x in X:
                h.update(s.project(x).view(np.int64).tobytes())
                count += 1
    assert count == 20_907
    assert h.hexdigest() == (
        "f38b5c2e645dc44789351663d14e73c8e45b6c73564240fd773f3f1e41cf9be8"
    )


def _row_pin_sets():
    """(name, set, pool) triples for the row-form pin: every descriptor, the
    normal sets, boxes and balls at several dimensions, diagonals of several
    shapes, and products and shifts of them as the lifted problems build.  A
    pool holds 530 rows: random rows at magnitudes from 1e-8 to 1e8 with
    signed zeros, their projections (on the boundary, or inside) and those
    moved off it by 1e-12 relative; polygon and epigraph pools hold their
    bit probes first."""
    rng = np.random.default_rng(2500)
    sets = []
    for dim in (2, 3, 7, 8, 9, 20):
        n = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3, dim)
        n[rng.random(dim) < 0.2] = 0.0
        n[0] = 1.0
        lo = rng.uniform(-5, 0, dim) * 10.0 ** rng.uniform(-8, 8, dim)
        lo[::3] = -0.0
        sets += [
            (f"hyperplane{dim}", d.Hyperplane(n, float(rng.normal()))),
            (f"halfspace{dim}", d.Halfspace(n, 0.0)),
            (f"box{dim}", d.Box(lo, lo + rng.uniform(0, 10, dim))),
            (f"ball{dim}", d.Ball(rng.normal(size=dim), float(rng.uniform(0.5, 4)))),
            (f"orthant{dim}", d.Orthant(dim)),
        ]
    sets += [
        ("affine1x2", d.Affine(LINE_L, LINE_A)),
        ("affine3x7", _random_affine(rng, 3, 7)),
        ("affine3x9", _random_affine(rng, 3, 9)),
        ("desk", d.Polygon2D(DESK_POLYGON)),
        ("zero_edge", BIT_CASES[1][1]),
        ("hexagon", d.Polygon2D(1e3 * np.stack([np.cos(np.arange(6) * np.pi / 3),
                                                 np.sin(np.arange(6) * np.pi / 3)], 1))),
        ("quad", d.Epigraph1D(d.quadratic(1, 0, -1))),
        ("quad_shifted", d.Epigraph1D(d.quadratic(0.5, 1, -3))),
        ("absshift", d.Epigraph1D(d.absshift(1, -1))),
    ]
    sets += [(f"diagonal{c}x{b}", d.Diagonal(c, b))
             for c, b in ((1, 2), (2, 1), (2, 4), (3, 2), (5, 2), (8, 1), (9, 3))]
    lifted = [d.Halfspace([-1, -1], 0), d.Halfspace([1, 0], 2), d.Box([-5, -5], [5, 5]),
              d.Ball([1, 1], 3), d.Polygon2D(DESK_POLYGON)]
    named = dict(sets)
    sets += [
        ("product_lifted", d.Product(lifted)),
        ("product_zoo", dict(descriptor_zoo())["product"]),
        ("product_wide", d.Product([named["hyperplane8"], named["box8"], d.Diagonal(2, 4)])),
        ("shifted_ball", d.Shifted(named["ball3"], [1.5, -0.0, -2.0])),
        ("shifted_halfspace", d.Shifted(named["halfspace9"], rng.normal(size=9))),
        ("shifted_polygon", d.Shifted(d.Polygon2D(DESK_POLYGON), [-0.0, 3.0])),
    ]
    for name, s in sets:
        if isinstance(s, d.Polygon2D):
            probes = _polygon_probes(s.vertices)
        elif isinstance(s, d.Epigraph1D):
            probes = _epigraph_probes(s.f)
        else:
            probes = np.zeros((0, s.dim))
        yield name, s, _row_pool(s, rng, probes)


def _row_pool(s, rng, probes):
    """530 rows for s: the probes, then projections of random rows (on the
    boundary, or inside), those moved off it by 1e-12 relative, and random
    rows, at magnitudes from 1e-8 to 1e8 with signed zeros."""
    X = rng.normal(size=(530, s.dim))
    X[:265] *= 10.0 ** rng.uniform(-8, 8, size=(265, 1))
    X[265:] *= 10.0 ** rng.uniform(-8, 8, size=(265, s.dim))
    X[rng.random(X.shape) < 0.15] = 0.0
    X[rng.random(X.shape) < 0.15] = -0.0
    P = s.project_rows(X[:120])
    near = P * (1.0 + 1e-12 * rng.normal(size=P.shape))
    return np.concatenate([probes, P, near, X[240:]])[:530]


def test_row_projector_bits_are_pinned():
    # every descriptor's row form and ``sets._norms`` on stacks of 1, 2, 7
    # and 530 rows, C-contiguous and as strided columns of a wider stack, as
    # ``Product`` passes them: a change in the rows' float arithmetic moves it
    from drsplit.sets import _norms

    h = hashlib.sha256()
    rng = np.random.default_rng(2501)
    count = 0
    for name, s, pool in _row_pin_sets():
        for n in (1, 2, 7, 530):
            X = pool[np.sort(rng.choice(530, n, replace=False))]
            wide = np.full((n, s.dim + 5), 7.0)
            wide[:, 2:-3] = X
            for stack in (X, wide[:, 2:-3]):
                h.update(f"{name} {stack.shape} {stack.strides}".encode())
                h.update(s.project_rows(stack).view(np.int64).tobytes())
                if name.startswith("ball"):
                    h.update(_norms(stack).view(np.int64).tobytes())
                count += n
    assert count == 52 * 2 * 540
    assert h.hexdigest() == (
        "059fa1a21dd836951f4d9e860a4d74e3396734c542ddbf4fe2fcd0b862ed9cac"
    )


def test_row_pin_pools_project_with_the_bits_of_the_rows():
    # every descriptor of the row pin at every dim, Affine 3x9 and the
    # 8- to 20-D normal sets, boxes and balls included: ``project`` on each
    # pool row has the int64 bits of that row of ``project_rows``
    for name, s, pool in _row_pin_sets():
        for x, row in zip(pool, s.project_rows(pool)):
            assert np.array_equal(s.project(x).view(np.int64), row.view(np.int64)), (name, x)


@pytest.mark.parametrize("dim", range(1, 21))
def test_norm_and_dot_have_the_bits_of_the_rows(dim):
    # ``run``'s inner product and norm are the sweep's row forms on one
    # row: left to right from 0.0 below 8 terms, numpy's sum from 8; rows of
    # a C-contiguous stack and of a strided one, signed zeros included
    from drsplit.sets import _dot, _dots, _norm, _norms

    rng = np.random.default_rng(2610 + dim)
    wide = rng.normal(size=(400, dim + 3))
    wide[:200] *= 10.0 ** rng.uniform(-8, 8, size=(200, 1))
    wide[200:] *= 10.0 ** rng.uniform(-8, 8, size=(200, dim + 3))
    wide[rng.random(wide.shape) < 0.15] = -0.0
    w = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3, size=dim)
    for D in (np.ascontiguousarray(wide[:, 1:-2]), wide[:, 1:-2]):
        norms, dots = _norms(D), _dots(D, w)
        for v, norm, dot in zip(D, norms, dots):
            assert np.float64(_norm(v)).view(np.int64) == norm.view(np.int64)
            assert np.float64(_dot(v, w)).view(np.int64) == dot.view(np.int64)


@pytest.mark.parametrize("f, z", [
    (d.quadratic(1.0, 0.0, -1.0), (1e160, 0.0)),
    (d.quadratic(1.0, 0.0, 0.0), (1e154, -1.7e308)),
    (d.quadratic(1e308, 0.0, 0.0), (1.0, 0.0)),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_project_rows_out_of_float_range_raises(f, z):
    # the inputs of the scalar rule's test, among rows that project normally;
    # the overflows on the way are silent, as in the scalar rule
    with pytest.raises(OverflowError):
        d.Epigraph1D(f).project_rows([(0.0, 5.0), z, (3.0, -2.0)])


def test_reflector_involution_on_affine_classes():
    rng = np.random.default_rng(13)
    for name, s in descriptor_zoo():
        if name not in ("affine", "affine3", "hyperplane", "hyperplane0", "diagonal"):
            continue
        for _ in range(100):
            x = rng.uniform(-8, 8, s.dim)
            rr = s.reflect(s.reflect(x))
            assert np.linalg.norm(rr - x) <= 1e-12 * (1 + np.linalg.norm(x))


def test_polyhedral_face_orthogonality():
    """Points whose projections land near a fixed boundary point c on the
    same face satisfy <x - Px, c - Px> = 0."""
    rng = np.random.default_rng(14)
    # halfspace: face is the whole hyperplane
    h = d.Halfspace([1.0, 1.0], 2.0)
    c = np.array([1.0, 1.0])
    for _ in range(100):
        tangent = rng.normal() * np.array([1.0, -1.0])
        x = c + tangent + abs(rng.normal()) * np.array([1.0, 1.0])
        px = h.project(x)
        assert abs(float((x - px) @ (c - px))) <= 1e-10
    # orthant: face {x_0 = 0, x_1 > 0}
    o = d.Orthant(2)
    c = np.array([0.0, 2.0])
    for _ in range(100):
        x = np.array([-abs(rng.normal()) - 0.01, 2.0 + 0.1 * rng.normal()])
        px = o.project(x)
        assert px[1] > 0
        assert abs(float((x - px) @ (c - px))) <= 1e-10
    # box: face {x_1 = 0.5} of [-1,2] x [-1,0.5], c interior to the face
    b = d.Box([-1.0, -1.0], [2.0, 0.5])
    c = np.array([0.5, 0.5])
    for _ in range(100):
        x = np.array([0.5 + 0.4 * rng.normal(), 0.5 + abs(rng.normal()) + 0.01])
        x[0] = min(max(x[0], -0.9), 1.9)
        px = b.project(x)
        assert abs(float((x - px) @ (c - px))) <= 1e-10
    # polygon: edge x = 2 of the desk polygon, c interior to the edge
    poly = d.Polygon2D(DESK_POLYGON)
    c = np.array([2.0, 1.0])
    for _ in range(100):
        x = np.array([2.0 + abs(rng.normal()) + 0.01, 1.0 + rng.normal()])
        x[1] = min(max(x[1], -1.5), 9.5)
        px = poly.project(x)
        assert abs(float((x - px) @ (c - px))) <= 1e-10


def test_product_projects_blockwise():
    comps = [d.Halfspace([1.0], 2.0), d.Box([-1.0], [1.0]), d.Orthant(2)]
    s = d.Product(comps)
    rng = np.random.default_rng(15)
    for _ in range(100):
        x = rng.uniform(-5, 5, 4)
        p = s.project(x)
        expected = np.concatenate(
            [comps[0].project(x[:1]), comps[1].project(x[1:2]), comps[2].project(x[2:])]
        )
        assert np.array_equal(p, expected)


def test_diagonal_is_replicated_mean():
    s = d.Diagonal(3, 2)
    rng = np.random.default_rng(16)
    for _ in range(200):
        x = rng.uniform(-5, 5, 6)
        mean = (x[0:2] + x[2:4] + x[4:6]) / 3.0
        assert np.linalg.norm(s.project(x) - np.tile(mean, 3)) <= 1e-12


def test_diagonal_bits_equal_mean_and_tile():
    rng = np.random.default_rng(17)
    for copies, base_dim in ((1, 1), (3, 2), (5, 2), (7, 3)):
        s = d.Diagonal(copies, base_dim)
        for _ in range(50):
            x = rng.uniform(-5, 5, copies * base_dim) * 10.0 ** rng.uniform(-8, 8)
            mean = x.reshape(copies, base_dim).mean(axis=0)
            assert np.array_equal(s.project(x), np.tile(mean, copies))


def test_shifted_translates_projection():
    base = d.Box([0.0, 0.0], [1.0, 1.0])
    shift = np.array([2.0, -3.0])
    s = d.Shifted(base, shift)
    rng = np.random.default_rng(17)
    for _ in range(50):
        x = rng.uniform(-6, 6, 2)
        assert np.array_equal(s.project(x), base.project(x + shift) - shift)


def test_is_linear_subspace():
    assert d.Affine([[1.0, 2.0]], [0.0]).is_linear()
    assert not d.Affine(LINE_L, LINE_A).is_linear()
    assert d.Hyperplane([1.0, 1.0], 0.0).is_linear()
    assert not d.Hyperplane([1.0, 1.0], 1.0).is_linear()
    assert d.Diagonal(2, 2).is_linear()
    assert not d.Orthant(2).is_linear()
