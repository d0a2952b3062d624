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
    p = d.project_affine(LINE_L, LINE_A, [0.0, 0.0])
    assert np.allclose(p, [float(v) for v in expected], rtol=0, atol=1e-15)


def test_project_affine_fixes_points_of_the_set():
    for x in ([6.0, 0.0], [1.0, 1.0], [-4.0, 2.0]):
        p = d.project_affine(LINE_L, LINE_A, x)
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
    rng = np.random.default_rng(350)
    s = _random_affine(rng, 20, 50)
    X = rng.normal(size=(64, 50)) * 10.0
    whole = s._project_rows(X)
    assert np.array_equal(s._project_rows(X[::-1]), whole[::-1])
    for k in range(0, 64, 7):
        assert np.array_equal(s._project_rows(X[k:k + 1]), whole[k:k + 1])
    np.testing.assert_allclose(whole, [s.project(x) for x in X], rtol=0, atol=1e-12)


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
        # the scalar form takes <n, x> by a dot product, the row form by a sum
        excess = np.array([n @ x for x in X]) - c, (X * n).sum(axis=1) - c
        projected = np.array([s.project(x) for x in X]), s.project_rows(X)
        for e, got in zip(excess, projected):
            want = X - (e / (n @ n))[:, None] * n
            if kind is d.Halfspace:
                want = np.where((e > 0.0)[:, None], want, X)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_dimension_mismatch():
    s = d.Affine(LINE_L, LINE_A)
    with pytest.raises(d.DimensionMismatchError):
        s.project([1.0, 2.0, 3.0])
    with pytest.raises(d.DimensionMismatchError):
        d.distance(d.Orthant(2), [1.0, 2.0, 3.0])


def test_vectors_must_be_finite():
    with pytest.raises(ValueError):
        d.project_orthant([np.nan, 1.0])
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
    assert np.array_equal(d.project_orthant([100.0, -100.0]), [100.0, 0.0])
    p = d.project_orthant([3 / 13, 15 / 13])
    assert np.array_equal(p, [3 / 13, 15 / 13])
    assert np.array_equal(d.project_orthant([-1.0, -2.0, 0.5]), [0.0, 0.0, 0.5])


def test_diagonal_projects_to_block_mean():
    assert np.array_equal(d.project(d.Diagonal(2, 1), [0.0, 4.0]), [2.0, 2.0])


def test_ball_projects_radially():
    assert np.array_equal(d.project(d.Ball([0.0, 0.0], 1.0), [2.0, 0.0]), [1.0, 0.0])


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
    r = d.reflect(d.Affine(LINE_L, LINE_A), [0.0, 0.0])
    assert np.allclose(r, [float(v) for v in expected], rtol=0, atol=1e-15)


def test_reflect_fixes_set_points():
    rng = np.random.default_rng(1)
    for s in (d.Affine(LINE_L, LINE_A), d.Box([-1.0], [1.0]), d.Ball([0.0, 0.0], 2.0)):
        c = sample_point(s, rng)
        assert np.linalg.norm(d.reflect(s, c) - c) <= 1e-12 * (1 + np.linalg.norm(c))


def test_reflect_orthant_is_absolute_value():
    rng = np.random.default_rng(2)
    x = rng.uniform(-5, 5, 6)
    assert np.array_equal(d.reflect(d.Orthant(6), x), np.abs(x))


def test_distance_examples():
    assert d.distance(d.Orthant(2), [1.0, 2.0]) == 0.0
    assert d.distance(d.Orthant(2), [-3.0, 4.0]) == 3.0
    # |<n, x> - offset| / ||n|| for the line through (0, 0)
    expected = 6 / math.sqrt(26)
    assert abs(d.distance(d.Hyperplane([1.0, 5.0], 6.0), [0.0, 0.0]) - expected) < 1e-14
    assert abs(d.distance(d.Affine(LINE_L, LINE_A), [0.0, 0.0]) - expected) < 1e-14


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
        np.testing.assert_allclose(rows[i], s.project(x), rtol=1e-13, atol=1e-13)
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
    ("quad", d.Epigraph1D(d.quadratic(1, 0, -1))),
    ("quad_shifted", d.Epigraph1D(d.quadratic(0.5, 1, -3))),
    ("constant", d.Epigraph1D(d.quadratic(0, 0, -1))),
    ("absshift", d.Epigraph1D(d.absshift(1, -1))),
]


@pytest.mark.parametrize("s", [pytest.param(s, id=name) for name, s in BIT_CASES])
def test_project_rows_bits_equal_project(s):
    if isinstance(s, d.Polygon2D):
        X = _polygon_probes(s.vertices)
    else:
        X = _epigraph_probes(s.f)
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
    huge = np.array([[1e300, -1e300], [1e300, 1e300], [-1e300, 0.0], [-0.0, 1e300], [1e308, 1e308]])
    huge = np.concatenate([huge, -huge])
    for v in polygons:
        yield d.Polygon2D(v), np.concatenate([_polygon_probes(v), pairs, huge])
    for lo, hi in (([-1.0, 0.0], [2.0, 0.5]), ([-0.0, 0.0], [0.0, -0.0]), ([0.0, -0.0], [1e-8, 1e8])):
        yield d.Box(lo, hi), np.concatenate([pairs, huge])
    for center, radius in (([1.0, -2.0], 3.0), ([0.0, 0.0], 1e-8), ([-0.0, 5.0], 1e8)):
        yield d.Ball(center, radius), np.concatenate([pairs, huge, 1e150 * pairs[-9:]])


def test_scalar_projector_bits_are_pinned():
    # recorded with ``np.clip``, ``np.linalg.norm`` and an einsum polygon
    # projector: a change in these projectors' float arithmetic moves it
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
        "1a1ce4cfe53491abd4976eb79b830107f12dbee99c4e63f6c0e546998eb3b76c"
    )


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
    assert d.is_linear_subspace(d.Affine([[1.0, 2.0]], [0.0]))
    assert not d.is_linear_subspace(d.Affine(LINE_L, LINE_A))
    assert d.is_linear_subspace(d.Hyperplane([1.0, 1.0], 0.0))
    assert not d.is_linear_subspace(d.Hyperplane([1.0, 1.0], 1.0))
    assert d.is_linear_subspace(d.Diagonal(2, 2))
    assert not d.is_linear_subspace(d.Orthant(2))
