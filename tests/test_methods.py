import math
from fractions import Fraction

import numpy as np
import pytest

import drsplit as d
from conftest import (
    LINE_A,
    LINE_L,
    affine_line_oracle,
    random_linear_instance,
    sample_point,
)

FIX = np.array([3 / 13, 15 / 13])  # the projection of the origin, in A and B


def frozen(fracs):
    return np.array([float(v) for v in fracs])


# ---------------------------------------------------------------------------
# single steps


def test_dra_step_from_origin(line_orthant):
    set_a, set_b = line_orthant
    z_next, a, r, pbr = d.dra_step(set_a, set_b, [0.0, 0.0])
    oracle_a = frozen(affine_line_oracle((0, 0)))
    assert np.allclose(a, oracle_a, rtol=0, atol=1e-15)
    assert np.array_equal(r, 2 * a)          # z = 0
    assert np.array_equal(pbr, r)            # r is nonnegative
    assert np.allclose(z_next, FIX, rtol=0, atol=1e-15)
    assert set_a.distance(z_next) <= 1e-14 and set_b.distance(z_next) == 0.0


def test_dra_step_fixes_intersection_points(line_orthant):
    set_a, set_b = line_orthant
    for z in (FIX, np.array([6.0, 0.0]), np.array([1.0, 1.0])):
        z_next, _, _, _ = d.dra_step(set_a, set_b, z)
        assert np.linalg.norm(z_next - z) <= 1e-14 * (1 + np.linalg.norm(z))


def test_dra_step_on_epigraph_instance():
    eps = 0.25
    axis = d.Hyperplane([0.0, 1.0], 0.0)
    epi = d.Epigraph1D(d.absshift(1.0, -1.0))
    z_next, a, r, pbr = d.dra_step(axis, epi, [1 + eps, eps])
    assert np.array_equal(a, [1 + eps, 0.0])
    assert np.array_equal(r, [1 + eps, -eps])
    assert np.allclose(pbr, [1.0, 0.0], rtol=0, atol=1e-15)
    assert np.allclose(z_next, [1.0, eps], rtol=0, atol=1e-15)
    assert abs(np.linalg.norm(z_next - [1 + eps, eps]) - eps) <= 1e-15


def test_map_step_examples(line_orthant):
    set_a, set_b = line_orthant
    assert np.allclose(
        d.map_step(set_a, set_b, [0.0, 0.0]), FIX, rtol=0, atol=1e-15
    )
    for z in (FIX, np.array([6.0, 0.0])):
        assert np.linalg.norm(d.map_step(set_a, set_b, z) - z) <= 1e-14 * 7
    oracle = frozen(affine_line_oracle((100, 0)))
    assert oracle == pytest.approx([1253 / 13, -235 / 13], abs=0)
    assert np.allclose(
        d.map_step(set_a, set_b, [100.0, -100.0]), oracle, rtol=0, atol=1e-12
    )


def test_mrp_step_examples(line_orthant):
    set_a, set_b = line_orthant
    # reflecting (100, -100) through the orthant gives (100, 100)
    oracle = frozen(affine_line_oracle((100, 100)))
    assert oracle == pytest.approx([1003 / 13, -185 / 13], abs=0)
    assert np.allclose(
        d.mrp_step(set_a, set_b, [100.0, -100.0]), oracle, rtol=0, atol=1e-12
    )
    for z in (FIX, np.array([6.0, 0.0])):
        assert np.linalg.norm(d.mrp_step(set_a, set_b, z) - z) <= 1e-14 * 7


def test_mrp_equals_map_on_second_set(line_orthant):
    set_a, set_b = line_orthant
    rng = np.random.default_rng(30)
    for _ in range(200):
        z = set_b.project(rng.uniform(-9, 9, 2))
        assert np.array_equal(
            d.mrp_step(set_a, set_b, z), d.map_step(set_a, set_b, z)
        )


# ---------------------------------------------------------------------------
# Spingarn's update


def test_spingarn_step_example():
    set_a = d.Diagonal(2, 1)
    set_b = d.Product([d.Halfspace([-1.0], 0.0), d.Halfspace([1.0], 2.0)])
    state = d.SpingarnState(a=np.array([3.0, 3.0]), b=np.array([1.0, -1.0]))
    state.validate(set_a)
    out = d.spingarn_step(set_a, set_b, state)
    assert np.array_equal(out.a, [3.0, 3.0])
    assert np.array_equal(out.b, [0.0, 0.0])
    out.validate(set_a)


def test_spingarn_feasible_state_is_fixed():
    set_a = d.Diagonal(2, 1)
    set_b = d.Box([0.0, -5.0], [4.0, 2.0])
    state = d.SpingarnState(a=np.array([1.5, 1.5]), b=np.zeros(2))
    out = d.spingarn_step(set_a, set_b, state)
    assert np.array_equal(out.a, state.a)
    assert np.array_equal(out.b, [0.0, 0.0])


def test_spingarn_step_rejects_affine_offset():
    set_a = d.Affine(LINE_L, LINE_A)
    state = d.SpingarnState(a=np.zeros(2), b=np.zeros(2))
    with pytest.raises(d.InvalidSubspaceError):
        d.spingarn_step(set_a, d.Orthant(2), state)


def test_spingarn_state_validation():
    set_a = d.Diagonal(2, 1)
    with pytest.raises(ValueError):
        d.SpingarnState(a=np.array([1.0, 1.0]), b=np.array([1.0, 1.0])).validate(set_a)
    with pytest.raises(ValueError):
        d.SpingarnState(a=np.array([1.0, 0.0]), b=np.array([0.0, 0.0])).validate(set_a)


def test_spingarn_run_preserves_state_invariants():
    rng = np.random.default_rng(31)
    set_a = d.Hyperplane([1.0, 2.0, -1.0], 0.0)
    set_b = d.Ball([1.0, 0.0, 0.5], 1.5)
    a = set_a.project(rng.normal(size=3) * 4)
    w = rng.normal(size=3) * 4
    b = w - set_a.project(w)
    state = d.SpingarnState(a=a, b=b)
    for _ in range(50):
        state = d.spingarn_step(set_a, set_b, state)
        state.validate(set_a, tol=1e-9)


def test_spingarn_equals_dra_on_linear_instances():
    rng = np.random.default_rng(32)
    for _ in range(10):
        set_a, set_b = random_linear_instance(rng)
        a0 = sample_point(set_a, rng)
        w = rng.normal(size=set_a.dim) * 3
        b0 = w - set_a.project(w)
        z0 = a0 - b0
        tr_d = d.run(set_a, set_b, d.MethodKind.DRA, z0, d.MaxIter(100))
        tr_s = d.run(set_a, set_b, d.MethodKind.SPINGARN, z0, d.MaxIter(100))
        scale = 1 + np.linalg.norm(z0)
        for zd, zs in zip(tr_d.z, tr_s.z):
            assert np.linalg.norm(zd - zs) <= 1e-9 * scale


def test_spingarn_run_translates_affine_offset(line_orthant):
    set_a, set_b = line_orthant
    z0 = [37.0, -11.0]
    tr_d = d.run(set_a, set_b, d.MethodKind.DRA, z0, d.MaxIter(80))
    tr_s = d.run(set_a, set_b, d.MethodKind.SPINGARN, z0, d.MaxIter(80))
    assert tr_s.translation is not None
    assert np.allclose(tr_s.translation, FIX, rtol=0, atol=1e-15)
    for zd, zs in zip(tr_d.z, tr_s.z):
        assert np.linalg.norm(zd - zs) <= 1e-10 * (1 + np.linalg.norm(zd))


def test_spingarn_run_rejects_nonsubspace():
    with pytest.raises(d.InvalidSubspaceError):
        d.run(d.Orthant(2), d.Ball([0.0, 0.0], 1.0), d.MethodKind.SPINGARN, [1.0, 1.0])


# ---------------------------------------------------------------------------
# run semantics


def test_run_dra_one_step_instance(line_orthant):
    set_a, set_b = line_orthant
    tr = d.run(set_a, set_b, d.MethodKind.DRA, [0.0, 0.0], d.ExactFixedPoint(1e-14))
    assert tr.iterations == 2
    assert tr.termination.exact
    assert tr.termination.reason is d.Reason.EXACT_FIXED_POINT
    assert np.allclose(tr.z[1], FIX, rtol=0, atol=1e-12)
    assert np.linalg.norm(tr.z[2] - tr.z[1]) <= 1e-14 * (1 + np.linalg.norm(tr.z[1]))
    assert np.allclose(tr.final_point, FIX, rtol=0, atol=1e-12)


def test_run_dra_from_fixed_point(line_orthant):
    set_a, set_b = line_orthant
    tr = d.run(set_a, set_b, d.MethodKind.DRA, [1.0, 1.0], d.ExactFixedPoint())
    assert tr.iterations == 1
    assert tr.termination.exact


def _reference_map(z0, tol):
    """Independent alternating-projections loop for the reference instance."""
    z = np.asarray(z0, float)
    L = np.array([1.0, 5.0])
    for n in range(100000):
        db = np.linalg.norm(z - np.maximum(z, 0.0))
        da = abs(L @ z - 6.0) / math.sqrt(26.0)
        if max(da, db) < tol:
            return z, n
        pb = np.maximum(z, 0.0)
        z = pb - (L @ pb - 6.0) / 26.0 * L
    raise AssertionError("reference loop did not terminate")


def test_run_map_matches_reference(line_orthant):
    set_a, set_b = line_orthant
    tr = d.run(
        set_a, set_b, d.MethodKind.MAP, [100.0, -100.0], d.Feasibility(1e-4)
    )
    ref_z, ref_n = _reference_map([100.0, -100.0], 1e-4)
    assert tr.termination.reason is d.Reason.FEASIBILITY
    assert not tr.termination.exact
    assert tr.iterations == ref_n
    assert np.allclose(tr.final_point, ref_z, rtol=0, atol=1e-9)
    assert set_b.distance(tr.final_point) < 1e-4
    assert np.linalg.norm(tr.final_point - [6.0, 0.0]) < 0.05


def test_run_feasibility_fires_before_stepping(line_orthant):
    set_a, set_b = line_orthant
    tr = d.run(set_a, set_b, d.MethodKind.MAP, [1.0, 1.0], d.Feasibility(1e-4))
    assert tr.iterations == 0
    assert tr.termination.reason is d.Reason.FEASIBILITY
    assert not tr.termination.exact


def test_run_max_iter_recorded_not_raised(line_orthant):
    set_a, set_b = line_orthant
    tr = d.run(set_a, set_b, d.MethodKind.MAP, [90.0, -10.0], d.MaxIter(5))
    assert tr.iterations == 5
    assert tr.termination.reason is d.Reason.MAX_ITER
    assert len(tr.z) == 6


def test_run_combined_rules_first_wins(line_orthant):
    set_a, set_b = line_orthant
    rules = [d.Feasibility(1e-4), d.ExactFixedPoint(), d.MaxIter(50000)]
    tr = d.run(set_a, set_b, d.MethodKind.DRA, [40.0, 40.0], rules)
    # DRA lands exactly in the intersection, so feasibility fires there too;
    # it is checked first at each index
    assert tr.termination.reason is d.Reason.FEASIBILITY


def test_run_shadow_monitor(line_orthant):
    set_a, set_b = line_orthant
    tr = d.run(
        set_a,
        set_b,
        d.MethodKind.DRA,
        [100.0, -100.0],
        d.Feasibility(1e-2, d.Monitor.SHADOW),
    )
    assert set_b.distance(set_a.project(tr.final_point)) < 1e-2


def test_run_dimension_mismatch():
    with pytest.raises(d.DimensionMismatchError):
        d.run(d.Orthant(2), d.Orthant(3), d.MethodKind.MAP, [0.0, 0.0])


def test_run_overflow_fails_loudly():
    # the start is finite, but the first step overflows
    cases = [
        (d.Hyperplane([1.0, 1.0], 0.0), d.MethodKind.MRP, [1e308, -1e308]),
        (d.Hyperplane([1.0, -1.0], 0.0), d.MethodKind.DRA, [-1.7e308, 1.7e308]),
    ]
    for set_a, method, z0 in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                d.run(set_a, d.Orthant(2), method, z0, d.MaxIter(50))


@pytest.mark.parametrize("method", list(d.MethodKind))
def test_run_norms_equal_numpy_norms(line_orthant, method):
    set_a, set_b = line_orthant
    for z0 in ([100.0, -100.0], [-7.5, 3.25], [0.1, 40.0]):
        trace = d.run(set_a, set_b, method, z0, [d.ExactFixedPoint(), d.MaxIter(300)])
        assert trace.iterations >= 1
        for z, a, d_a, d_b in zip(trace.z, trace.a, trace.d_a, trace.d_b):
            assert d_a == float(np.linalg.norm(z - a))
            assert d_b == float(np.linalg.norm(z - set_b.project(z)))
        step = trace.z[-1] - trace.z[-2]
        assert trace.termination.step_residual == float(np.linalg.norm(step))


def test_trace_consistency_invariants(line_orthant):
    set_a, set_b = line_orthant
    tr = d.run(set_a, set_b, d.MethodKind.DRA, [-70.0, 30.0], d.ExactFixedPoint())
    assert tr.iterations == len(tr.z) - 1
    assert tr.steps == tuple(range(len(tr.z)))
    for k in range(len(tr.z)):
        assert np.array_equal(tr.r[k], 2 * tr.a[k] - tr.z[k])
        assert tr.d_a[k] == np.linalg.norm(tr.z[k] - tr.a[k])


def test_shadow_sequence(line_orthant):
    set_a, set_b = line_orthant
    tr = d.run(set_a, set_b, d.MethodKind.DRA, [0.0, 0.0], d.ExactFixedPoint())
    sh = d.shadow(tr)
    assert np.allclose(sh[1], FIX, rtol=0, atol=1e-12)
    for a in sh:
        assert set_a.distance(a) <= 1e-10
    tr_fix = d.run(set_a, set_b, d.MethodKind.DRA, [1.0, 1.0], d.ExactFixedPoint())
    for a in d.shadow(tr_fix):
        assert np.allclose(a, [1.0, 1.0], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# operator identities


def test_dra_operator_is_nonexpansive_and_averaged(line_orthant):
    set_a, set_b = line_orthant
    rng = np.random.default_rng(33)
    for _ in range(300):
        z = rng.uniform(-50, 50, 2)
        w = rng.uniform(-50, 50, 2)
        tz = d.dra_step(set_a, set_b, z)[0]
        tw = d.dra_step(set_a, set_b, w)[0]
        assert np.linalg.norm(tz - tw) <= np.linalg.norm(z - w) + 1e-10
        # half-averaged form: T = (Id + R_B R_A) / 2
        half = 0.5 * (z + set_b.reflect(set_a.reflect(z)))
        assert np.linalg.norm(tz - half) <= 1e-12 * (1 + np.linalg.norm(z))


def test_fejer_monotone_toward_intersection(line_orthant):
    set_a, set_b = line_orthant
    rng = np.random.default_rng(34)
    for _ in range(100):
        z0 = rng.uniform(-100, 100, 2)
        tr = d.run(set_a, set_b, d.MethodKind.DRA, z0, d.ExactFixedPoint())
        dists = [np.linalg.norm(z - FIX) for z in tr.z]
        for before, after in zip(dists, dists[1:]):
            assert after <= before + 1e-10


def test_shadow_recursion_on_linear_subspace():
    set_a = d.Hyperplane([1.0, 5.0], 0.0)
    set_b = d.Orthant(2)
    rng = np.random.default_rng(35)
    for _ in range(20):
        z0 = rng.uniform(-60, 60, 2)
        tr = d.run(set_a, set_b, d.MethodKind.DRA, z0, d.MaxIter(60))
        for n in range(len(tr.z) - 1):
            lhs = tr.a[n + 1]
            rhs = set_a.project(tr.pbr[n])
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(z0))
            diff = tr.a[n] - tr.a[n + 1]
            assert np.linalg.norm(
                diff - set_a.project(tr.r[n] - tr.pbr[n])
            ) <= 1e-12 * (1 + np.linalg.norm(z0))


def test_finite_termination_diagonal_vs_polygon():
    """The diagonal line against a polygon that is not a Cartesian product
    still terminates exactly from anywhere."""
    set_a = d.Diagonal(2, 1)
    set_b = d.Polygon2D([(2.0, -2.0), (2.0, 10.0), (-10.0, 10.0)])
    rng = np.random.default_rng(37)
    for _ in range(100):
        z0 = rng.uniform(-40, 40, 2)
        tr = d.run(set_a, set_b, d.MethodKind.DRA, z0, d.ExactFixedPoint())
        assert tr.termination.exact
        assert set_a.distance(tr.final_point) <= 1e-9
        assert set_b.distance(tr.final_point) <= 1e-9


def test_finite_termination_random_slater_instances():
    """Affine subspaces meeting the open orthant: exact termination in
    every dimension tried."""
    rng = np.random.default_rng(38)
    for _ in range(50):
        dim = int(rng.integers(3, 7))
        rows = int(rng.integers(1, dim - 1))
        L = rng.normal(size=(rows, dim))
        interior = rng.uniform(0.5, 3.0, dim)
        set_a = d.Affine(L, L @ interior)
        set_b = d.Orthant(dim)
        z0 = rng.uniform(-20, 20, dim)
        tr = d.run(
            set_a, set_b, d.MethodKind.DRA, z0,
            [d.ExactFixedPoint(), d.MaxIter(50000)],
        )
        assert tr.termination.exact
        assert set_a.distance(tr.final_point) <= 1e-8
        assert set_b.distance(tr.final_point) <= 1e-8


def test_step_inner_product_identity_on_linear_subspace():
    """<z_n - z_{n+1}, z_{n+1} - a> = <r_n - P_B r_n, P_B r_n - a> for a in
    the subspace, plus the cross-step monotonicity inequality."""
    rng = np.random.default_rng(36)
    for _ in range(10):
        set_a, set_b = random_linear_instance(rng)
        z0 = rng.normal(size=set_a.dim) * 10
        a_pt = sample_point(set_a, rng)
        tr = d.run(set_a, set_b, d.MethodKind.DRA, z0, d.MaxIter(60))
        m = len(tr.z) - 1
        for n in range(m):
            lhs = float((tr.z[n] - tr.z[n + 1]) @ (tr.z[n + 1] - a_pt))
            rhs = float((tr.r[n] - tr.pbr[n]) @ (tr.pbr[n] - a_pt))
            assert abs(lhs - rhs) <= 1e-9 * (1 + np.linalg.norm(z0) ** 2)
        diffs = [tr.z[n] - tr.z[n + 1] for n in range(m)]
        for n in range(m):
            for k in range(m):
                val = float((tr.z[n + 1] - tr.z[k + 1]) @ (diffs[n] - diffs[k]))
                assert val >= -1e-9 * (1 + np.linalg.norm(z0) ** 2)
