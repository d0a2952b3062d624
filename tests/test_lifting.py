import dataclasses

import numpy as np
import pytest

import drsplit as d
from conftest import random_closed_convex

HALFSPACE_PAIR = [d.Halfspace([-1.0, -1.0], 0.0), d.Halfspace([1.0, 0.0], 2.0)]


def test_lift_shapes_and_descriptors():
    lp = d.lift(HALFSPACE_PAIR)
    assert lp.set_a.copies == 2 and lp.set_a.base_dim == 2
    assert isinstance(lp.set_a, d.Diagonal) and isinstance(lp.set_b, d.Product)
    assert lp.set_a.dim == lp.set_b.dim == 4
    x = np.array([1.0, -2.0])
    assert np.array_equal(lp.embed(x), [1.0, -2.0, 1.0, -2.0])
    assert np.array_equal(lp.restrict([1.0, -2.0, 3.0, 0.0]), [2.0, -1.0])


def test_stack_forms_of_embed_and_restrict_match_the_point_forms():
    # row i of a stack has the bits of the point form on row i, -0.0
    # included (int64 views), and the stack forms check their input as the
    # point forms do
    lp = d.lift(HALFSPACE_PAIR + [d.Orthant(2)])
    rng = np.random.default_rng(17)
    X = rng.choice([-1.0, 1.0], (300, 2)) * 10.0 ** rng.uniform(-8, 8, (300, 2))
    X[::5, 1] = -0.0
    F = rng.choice([-1.0, 1.0], (300, 6)) * 10.0 ** rng.uniform(-8, 8, (300, 6))
    F[::3, ::2] = -0.0  # the first coordinate of every block
    for form, rows, width in ((lp.embed, X, 6), (lp.restrict, F, 2)):
        got = form(rows)
        assert got.shape == (len(rows), width)
        for g, row in zip(got, rows):
            assert np.array_equal(g.view(np.int64), form(row).view(np.int64))
        for wrong in (rows[:, :-1], rows[0, :-1]):
            with pytest.raises(d.DimensionMismatchError):
                form(wrong)
        for bad in (np.nan, np.inf):
            nonfinite = rows.copy()
            nonfinite[7, 1] = bad
            for wrong in (nonfinite, nonfinite[7]):
                with pytest.raises(ValueError, match="finite"):
                    form(wrong)


def test_a_lifted_problem_is_its_two_sets():
    # the diagonal holds the layout, so no field can disagree with it
    names = tuple(f.name for f in dataclasses.fields(d.LiftedProblem))
    assert names == ("set_a", "set_b")


@pytest.mark.parametrize("copies", range(1, 17))
def test_restrict_is_the_diagonal_projections_block(copies):
    # to the bit (int64 views), -0.0 included, point and stack: the mean
    # block of an off-diagonal point is the block the diagonal projects to
    rng = np.random.default_rng(copies)
    for base_dim in range(1, 5):
        lp = d.lift([d.Orthant(base_dim)] * copies)
        X = rng.choice([-1.0, 1.0], (200, lp.set_a.dim)) * 10.0 ** rng.uniform(-8, 8, (200, 1))
        X[::3, ::base_dim] = -0.0
        X[1::7] = -0.0
        R = lp.restrict(X)
        assert R.flags.c_contiguous
        want = lp.set_a.project_rows(X)[:, :base_dim]
        assert np.array_equal(R.view(np.int64), want.view(np.int64))
        for r, x in zip(R, X):
            assert np.array_equal(lp.restrict(x).view(np.int64), r.view(np.int64))


def test_solve_lifted_returns_the_final_shadows_block():
    # nine half-lines, where a pairwise sum of the blocks differs from the
    # diagonal's: the restricted final point is the first block of the
    # last diagonal projection in the trace
    rng = np.random.default_rng(29)
    signs, offsets = rng.choice([-1.0, 1.0], 9), rng.uniform(-10, 10, 9)
    lp = d.lift([d.Halfspace([s], c) for s, c in zip(signs, offsets)])
    for x0 in rng.uniform(-10, 10, (50, 1)):
        x, trace = d.solve_lifted(lp, d.MethodKind.DRA, x0, d.MaxIter(int(rng.integers(1, 6))))
        assert np.array_equal(x.view(np.int64), trace.a[-1][:1].view(np.int64))


def test_lift_rejects_mismatched_dims():
    with pytest.raises(d.DimensionMismatchError):
        d.lift([d.Orthant(2), d.Orthant(3)])
    with pytest.raises(ValueError):
        d.lift([])


def test_lifted_projectors_satisfy_product_forms():
    lp = d.lift(HALFSPACE_PAIR)
    rng = np.random.default_rng(40)
    for _ in range(200):
        xx = rng.uniform(-6, 6, 4)
        mean = 0.5 * (xx[:2] + xx[2:])
        assert np.linalg.norm(lp.set_a.project(xx) - np.tile(mean, 2)) <= 1e-12
        blockwise = np.concatenate(
            [HALFSPACE_PAIR[0].project(xx[:2]), HALFSPACE_PAIR[1].project(xx[2:])]
        )
        assert np.array_equal(lp.set_b.project(xx), blockwise)


def test_lift_membership_soundness():
    sets = [d.Halfspace([-1.0, -1.0], 0.0), d.Box([-3.0, -3.0], [2.0, 5.0])]
    lp = d.lift(sets)
    rng = np.random.default_rng(41)
    for _ in range(1000):
        x = rng.uniform(-5, 5, 2)
        in_all = all(s.distance(x) <= 1e-10 for s in sets)
        embedded = lp.embed(x)
        in_lift = (
            lp.set_a.distance(embedded) <= 1e-10
            and lp.set_b.distance(embedded) <= 1e-10
        )
        assert in_all == in_lift


def test_single_set_lift_degenerates_to_projection():
    ball = d.Ball([2.0, 0.0], 1.0)
    lp = d.lift([ball])
    rng = np.random.default_rng(42)
    for _ in range(100):
        z = rng.uniform(-5, 5, 2)
        stepped = d.dra_step(lp.set_a, lp.set_b, z)[0]
        assert np.allclose(stepped, ball.project(z), rtol=0, atol=1e-14)


def test_halfspace_pair_solved_finitely():
    lp = d.lift(HALFSPACE_PAIR)
    x, trace = d.solve_lifted(lp, d.MethodKind.DRA, [10.0, 10.0], d.ExactFixedPoint())
    assert trace.termination.exact
    assert trace.termination.reason is d.Reason.EXACT_FIXED_POINT
    assert -x[1] - 1e-10 <= x[0] <= 2.0 + 1e-10


def test_feasible_start_certifies_in_one_step():
    boxes = [
        d.Box([-1.0, -1.0], [3.0, 3.0]),
        d.Box([0.0, -2.0], [5.0, 2.0]),
        d.Box([-0.5, 0.5], [2.5, 4.0]),
    ]
    c = [1.0, 1.0]  # interior of all three
    lp = d.lift(boxes)
    x, trace = d.solve_lifted(lp, d.MethodKind.DRA, c, d.ExactFixedPoint())
    assert trace.iterations == 1
    assert trace.termination.exact
    assert np.array_equal(x, c)


def test_restrict_of_feasible_terminal_point_is_feasible():
    rng = np.random.default_rng(43)
    for _ in range(10):
        sets = [random_closed_convex(rng, 3) for _ in range(3)]
        lp = d.lift(sets)
        x0 = rng.uniform(-4, 4, 3)
        x, trace = d.solve_lifted(
            lp, d.MethodKind.DRA, x0, [d.ExactFixedPoint(), d.MaxIter(5000)]
        )
        if trace.termination.exact:
            final = trace.final_point
            if (
                lp.set_a.distance(final) <= 1e-9
                and lp.set_b.distance(final) <= 1e-9
            ):
                for s in sets:
                    assert s.distance(x) <= 1e-8


def test_spingarn_on_lift_tracks_dra():
    lp = d.lift(HALFSPACE_PAIR)
    z0 = lp.embed([10.0, 10.0])  # (a_0, b_0) = (embed(x0), 0)
    tr_d = d.run(lp.set_a, lp.set_b, d.MethodKind.DRA, z0, d.MaxIter(100))
    tr_s = d.run(lp.set_a, lp.set_b, d.MethodKind.SPINGARN, z0, d.MaxIter(100))
    assert tr_s.translation is None
    for zd, zs in zip(tr_d.z, tr_s.z):
        assert np.linalg.norm(zd - zs) <= 1e-9 * (1 + np.linalg.norm(z0))


def test_solve_lifted_supports_map():
    lp = d.lift(HALFSPACE_PAIR)
    x, trace = d.solve_lifted(lp, d.MethodKind.MAP, [10.0, 10.0], d.Feasibility(1e-6))
    assert trace.termination.reason is d.Reason.FEASIBILITY
    assert -x[1] - 1e-5 <= x[0] <= 2.0 + 1e-5


def test_polyhedral_lift_with_a_slater_point_ends_exact():
    # Spingarn's polyhedral case: M halfspaces with a strict interior point,
    # lifted; DRA and Spingarn's method on the lifted pair end exact, and
    # the restricted shadow lies in every halfspace
    rng = np.random.default_rng(2002)
    for _ in range(40):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        normals = rng.standard_normal((m, n))
        offsets = normals @ rng.uniform(-5, 5, n) + rng.uniform(0.1, 2, m)
        halfspaces = [d.Halfspace(a, c) for a, c in zip(normals, offsets)]
        lp = d.lift(halfspaces)
        for x0 in rng.uniform(-20, 20, (5, n)):
            for method in (d.MethodKind.DRA, d.MethodKind.SPINGARN):
                _, trace = d.solve_lifted(lp, method, x0,
                                          [d.ExactFixedPoint(), d.MaxIter(20000)])
                assert trace.termination.reason is d.Reason.EXACT_FIXED_POINT
                x = lp.restrict(trace.a[-1])
                assert max(h.distance(x) for h in halfspaces) <= 1e-9
