import dataclasses
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import drsplit as d
from drsplit import cli
from drsplit.sets import _norms
from drsplit.trace import DEFAULT_ETA, DEFAULT_MAX_ITER, _exact_step, normalize_rules
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


def test_dra_step_projects_onto_b_once(line_orthant):
    # P_B r is both returned and the step's last term: one projection
    set_a, set_b = line_orthant
    calls = []
    project = set_b._project
    set_b._project = lambda x: calls.append(x) or project(x)
    z_next, a, r, pbr = d.dra_step(set_a, set_b, [3.0, -7.0])
    assert len(calls) == 1
    assert np.array_equal(z_next, [3.0, -7.0] - a + pbr)


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
    out = d.spingarn_step(set_a, set_b, state)
    assert np.array_equal(out.a, [3.0, 3.0])
    assert np.array_equal(out.b, [0.0, 0.0])


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


def test_spingarn_run_preserves_state_invariants():
    rng = np.random.default_rng(31)
    set_a = d.Hyperplane([1.0, 2.0, -1.0], 0.0)
    set_b = d.Ball([1.0, 0.0, 0.5], 1.5)
    a = set_a.project(rng.normal(size=3) * 4)
    w = rng.normal(size=3) * 4
    b = w - set_a.project(w)
    state = d.SpingarnState(a=a, b=b)
    tol = 1e-9
    for _ in range(50):
        state = d.spingarn_step(set_a, set_b, state)
        na, nb = np.linalg.norm(state.a), np.linalg.norm(state.b)
        # a in the subspace A, b in its orthogonal complement, a . b = 0
        assert abs(state.a @ state.b) <= tol * max(na * nb, 1.0)
        assert np.linalg.norm(set_a.project(state.a) - state.a) <= tol * (1.0 + na)
        assert np.linalg.norm(set_a.project(state.b)) <= tol * (1.0 + nb)


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


def step_pairs():
    """Four (A, B) pairs of differing kinds: an affine line, a linear axis
    against a curved epigraph, a 3x7 affine set against a box, and a
    three-set lift."""
    rng = np.random.default_rng(81)
    L = rng.normal(size=(3, 7))
    lp = d.lift([d.Halfspace([1.0, 1.0], 2.0), d.Ball([1.0, -1.0], 2.0),
                 d.Box([-1.0, -3.0], [3.0, 1.0])])
    return [
        pytest.param(d.Affine(LINE_L, LINE_A), d.Orthant(2), id="line_orthant"),
        pytest.param(d.Hyperplane([0.0, 1.0], 0.0),
                     d.Epigraph1D(d.quadratic(1.0, 0.0, -1.0)), id="epigraph"),
        pytest.param(d.Affine(L, rng.normal(size=3)), d.Box(-np.ones(7), np.ones(7)),
                     id="affine_box"),
        pytest.param(lp.set_a, lp.set_b, id="lift"),
    ]


def numpy_norms(D):
    """numpy's norm of each row of a stack, the square root of numpy's row
    sum of the squares: the bits of ``run``'s norms, which
    ``np.linalg.norm`` (a BLAS dot product) does not always have."""
    return np.sqrt((D * D).sum(axis=1))


def bits(v):
    return np.asarray(v).view(np.int64)


@pytest.mark.parametrize("set_a, set_b", step_pairs())
def test_step_functions_are_one_step_of_run(set_a, set_b):
    # the step functions and run share one definition of each update, so
    # their results agree to the bit, the sign of zero included
    rng = np.random.default_rng(82)
    K = d.MethodKind
    for z0 in rng.normal(size=(40, set_a.dim)) * 10.0 ** rng.uniform(-2, 3, (40, 1)):
        t = d.run(set_a, set_b, K.DRA, z0, d.MaxIter(1))
        want = (t.z[1], t.a[0], t.r[0], t.pbr[0])
        for got, w in zip(d.dra_step(set_a, set_b, z0), want, strict=True):
            assert np.array_equal(bits(got), bits(w))
        for method, step in ((K.MAP, d.map_step), (K.MRP, d.mrp_step)):
            t = d.run(set_a, set_b, method, z0, d.MaxIter(1))
            assert np.array_equal(bits(step(set_a, set_b, z0)), bits(t.z[1]))
        if set_a.is_linear():
            t = d.run(set_a, set_b, K.SPINGARN, z0, d.MaxIter(1))
            a0 = set_a.project(z0)
            out = d.spingarn_step(set_a, set_b, d.SpingarnState(a=a0, b=a0 - z0))
            assert np.array_equal(bits(out.a - out.b), bits(t.z[1]))


def test_run_rejects_an_unknown_method(line_orthant):
    with pytest.raises(ValueError, match="unknown method"):
        d.run(*line_orthant, "DRA", [100.0, -100.0], d.Feasibility(1e-4))


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


def test_spingarn_run_translates_an_affine_hyperplane(line_orthant):
    # the line x + 5y = 6 given as a hyperplane: _linearize moves it to
    # x + 5y = 0 and shifts B by the projection of the origin
    set_a, set_b = d.Hyperplane([1.0, 5.0], 6.0), line_orthant[1]
    z0 = [37.0, -11.0]
    tr_d = d.run(set_a, set_b, d.MethodKind.DRA, z0, d.MaxIter(80))
    tr_s = d.run(set_a, set_b, d.MethodKind.SPINGARN, z0, d.MaxIter(80))
    assert np.allclose(tr_s.translation, FIX, rtol=0, atol=1e-15)
    for zd, zs in zip(tr_d.z, tr_s.z):
        assert np.linalg.norm(zd - zs) <= 1e-10 * (1 + np.linalg.norm(zd))
    tr = d.run(set_a, set_b, d.MethodKind.SPINGARN, z0, d.ExactFixedPoint())
    assert tr.termination.reason is d.Reason.EXACT_FIXED_POINT
    assert np.allclose(tr.a[-1], FIX, rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("rules", [
    [d.Feasibility(1e-12), d.Feasibility(1e-2)],
    [d.ExactFixedPoint(), d.ExactFixedPoint(1e-10), d.MaxIter(5)],
])
def test_run_rejects_two_rules_of_one_kind(line_orthant, rules):
    # only one rule of each kind can decide a run; a second one was ignored,
    # so the order of the list chose the tolerance
    set_a, set_b = line_orthant
    with pytest.raises(ValueError, match="at most one"):
        d.run(set_a, set_b, d.MethodKind.MAP, [100.0, -100.0], rules)
    with pytest.raises(ValueError, match="at most one"):
        normalize_rules(rules)


@pytest.mark.parametrize("rule", [d.ExactFixedPoint(0.0), d.Feasibility(-1e-3),
                                  d.Feasibility(math.nan), d.MaxIter(0)])
def test_run_rejects_a_rule_out_of_range(line_orthant, rule):
    set_a, set_b = line_orthant
    with pytest.raises(ValueError):
        d.run(set_a, set_b, d.MethodKind.DRA, [1.0, 1.0], [rule, d.MaxIter(5)])


def test_normalize_rules_returns_what_the_drivers_use(line_orthant):
    feas = d.Feasibility(1e-3, d.Monitor.SHADOW)
    assert normalize_rules(None) == (None, None, DEFAULT_MAX_ITER)
    assert normalize_rules(d.ExactFixedPoint(1e-9)) == (1e-9, None, DEFAULT_MAX_ITER)
    assert normalize_rules([feas, d.MaxIter(7), d.MaxIter(3)]) == (None, feas, 3)
    assert normalize_rules((d.MaxIter(np.int64(4)),)) == (None, None, 4)
    # any real number above 0 is an eta or a tol, a numpy one too
    assert normalize_rules(d.ExactFixedPoint(np.float32(0.5)))[0] == 0.5
    assert normalize_rules([d.Feasibility(np.int64(2))])[1].tol == 2
    # repeated caps keep the least
    set_a, set_b = line_orthant
    tr = d.run(set_a, set_b, d.MethodKind.MAP, [100.0, -100.0], [d.MaxIter(7), d.MaxIter(3)])
    assert tr.iterations == 3 and tr.termination.reason is d.Reason.MAX_ITER


@pytest.mark.parametrize("stop", [
    ["eta", 3], [d.ExactFixedPoint(), None], 5,
    d.Feasibility(1e-4, "iterate"), [d.Feasibility(1e-4, "bogus"), d.MaxIter(5)],
    d.MaxIter(2.5), [d.MaxIter(True)],
    d.ExactFixedPoint(True), [d.Feasibility(True), d.MaxIter(5)],
    d.ExactFixedPoint("x"), d.Feasibility("1e-4"), d.Feasibility(np.True_),
])
def test_rules_that_are_no_rules_raise(line_orthant, monkeypatch, stop):
    # an entry that is no rule was dropped (["eta", 3] ran to the default
    # cap), a string monitor was read as the shadow by run and as the
    # iterate by run_rows, a fractional or bool cap passed, a bool eta or
    # tol passed as 1 and a string one raised TypeError; all raise
    # ValueError in normalize_rules, before any set is projected
    set_a, set_b = line_orthant
    with pytest.raises(ValueError) as from_rules:
        normalize_rules(stop)
    refuse_projections(monkeypatch, set_a, set_b)
    with pytest.raises(ValueError) as from_run:
        d.run(set_a, set_b, d.MethodKind.DRA, [-70.0, 30.0], stop)
    for method in d.MethodKind:
        with pytest.raises(ValueError) as from_rows:
            d.run_rows(set_a, set_b, {method: stop}, np.array([[-70.0, 30.0]]))
        assert str(from_rows.value) == str(from_run.value) == str(from_rules.value)


@pytest.mark.parametrize("method", [d.MethodKind.DRA, d.MethodKind.SPINGARN])
def test_run_certifies_nothing_on_an_infinite_bound(line_orthant, method):
    # from (1e200, 0), ||z_n||^2 overflows: the step residual and the bound
    # eta (1 + ||z_n||) are both inf, the final point is far from A and B,
    # and inf <= inf must not end the run exact
    set_a, set_b = line_orthant
    with np.errstate(over="ignore"):
        tr = d.run(set_a, set_b, method, [1e200, 0.0], [d.ExactFixedPoint(), d.MaxIter(20)])
    assert tr.termination.reason is d.Reason.MAX_ITER and tr.iterations == 20
    assert tr.termination.exact is False
    assert tr.termination.step_residual == math.inf


@pytest.mark.parametrize("eta", [1.0, 1e300, math.inf])
def test_a_larger_eta_never_certifies_less(line_orthant, eta):
    # DRA's first step from (100, -100) is 79.6 against a scale 1 + ||z_0||
    # of 142.4, so every eta >= 1 ends the run exact after one step, the
    # infinite eta too: its bound is inf, but the scale is finite
    set_a, set_b = line_orthant
    stop = [d.ExactFixedPoint(eta), d.MaxIter(50)]
    tr = d.run(set_a, set_b, d.MethodKind.DRA, [100.0, -100.0], stop)
    assert tr.termination.reason is d.Reason.EXACT_FIXED_POINT and tr.termination.exact
    assert tr.iterations == 1
    rows = d.run_rows(set_a, set_b, {d.MethodKind.DRA: stop}, np.array([[100.0, -100.0]]))
    assert rows["reason"].tolist() == [d.Reason.EXACT_FIXED_POINT]
    assert rows["exact"].tolist() == [True] and rows["iterations"].tolist() == [1]


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
    # the start is finite, but the first step overflows; without an eta
    # rule no step residual is taken, and the check falls back on z_next
    cases = [
        (d.Hyperplane([1.0, 1.0], 0.0), d.MethodKind.MRP, [1e308, -1e308], d.MaxIter(50)),
        (d.Hyperplane([1.0, -1.0], 0.0), d.MethodKind.DRA, [-1.7e308, 1.7e308],
         [d.ExactFixedPoint(), d.MaxIter(50)]),
        (d.Hyperplane([1.0, 1.0], 0.0), d.MethodKind.MAP, [1e308, 1e308],
         [d.Feasibility(1e-4), d.MaxIter(1)]),
        (d.Hyperplane([1.0, -1.0], 0.0), d.MethodKind.SPINGARN, [-1.7e308, 1.7e308],
         d.MaxIter(1)),
    ]
    for set_a, method, z0, rules in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                d.run(set_a, d.Orthant(2), method, z0, rules)


@pytest.mark.parametrize("method", list(d.MethodKind))
def test_run_norms_equal_numpy_norms(line_orthant, method):
    set_a, set_b = line_orthant
    for z0 in ([100.0, -100.0], [-7.5, 3.25], [0.1, 40.0]):
        trace = d.run(set_a, set_b, method, z0, [d.ExactFixedPoint(), d.MaxIter(300)])
        assert trace.iterations >= 1
        pbz = np.array([set_b.project(z) for z in trace.z])
        assert np.array_equal(trace.d_a, numpy_norms(trace.z - trace.a))
        assert np.array_equal(trace.d_b, numpy_norms(trace.z - pbz))
        step = trace.z[-1:] - trace.z[-2:-1]
        assert trace.termination.step_residual == numpy_norms(step)[0]


def test_run_overflowing_residual_is_not_a_failure():
    # z_1 = [1e308, 0] is finite, but z_1 - z_0 overflows
    with np.errstate(over="ignore"):
        tr = d.run(d.Box([1e308, 0.0], [1e308, 0.0]), d.Orthant(2), d.MethodKind.MAP,
                   [-1e308, 0.0], d.MaxIter(1))
    assert tr.termination.reason is d.Reason.MAX_ITER
    assert tr.iterations == 1
    assert tr.termination.step_residual == math.inf
    assert np.array_equal(tr.final_point, [1e308, 0.0])


def test_run_overflowing_squared_norm_is_not_a_failure(line_orthant):
    # without an eta rule the overflow check squares z_1 = P_A P_B z_0, which
    # overflows near 1e200 though z_1 is finite; so does the step residual,
    # taken once at the stop
    set_a, set_b = line_orthant
    for rules in ([d.Feasibility(1e-4), d.MaxIter(1)], d.MaxIter(1)):
        with np.errstate(over="ignore"):
            tr = d.run(set_a, set_b, d.MethodKind.MAP, [1e200, 0.0], rules)
        assert tr.termination.reason is d.Reason.MAX_ITER
        assert tr.iterations == 1
        assert tr.termination.step_residual == math.inf
        assert tr.termination.exact is False
        assert np.isfinite(tr.final_point).all()


def test_trace_consistency_invariants(line_orthant):
    set_a, set_b = line_orthant
    for method in d.MethodKind:
        tr = d.run(set_a, set_b, method, [-70.0, 30.0],
                   [d.ExactFixedPoint(), d.MaxIter(500)])
        assert tr.iterations == len(tr.z) - 1
        assert tr.steps == tuple(range(len(tr.z)))
        for k in range(len(tr.z)):
            assert np.array_equal(tr.r[k], 2 * tr.a[k] - tr.z[k])
            assert tr.d_a[k] == numpy_norms(tr.z[k:k + 1] - tr.a[k:k + 1])[0]
            assert np.array_equal(tr.pbr[k], set_b.project(tr.r[k]))
            assert tr.d_b[k] == numpy_norms((tr.z[k] - set_b.project(tr.z[k]))[None])[0]
        for name in ("r", "pbr", "d_a", "d_b"):
            assert getattr(tr, name) is getattr(tr, name)


class CountingSet(d.ConvexSet):
    """Delegates to another set and counts its projections."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim
        self.calls = 0

    def _project(self, x):
        self.calls += 1
        return self.base._project(x)


@pytest.mark.parametrize("method, rules, per_step, per_record", [
    (d.MethodKind.DRA, d.ExactFixedPoint(), (0, 1), (1, 0)),
    (d.MethodKind.MAP, d.Feasibility(1e-9), (1, 0), (0, 1)),
    (d.MethodKind.MRP, d.Feasibility(1e-9), (1, 0), (0, 1)),
    (d.MethodKind.DRA, d.Feasibility(1e-9, d.Monitor.SHADOW), (0, 1), (1, 1)),
    (d.MethodKind.MAP, d.Feasibility(1e-9, d.Monitor.SHADOW), (1, 1), (1, 1)),
])
def test_run_projects_only_what_its_rules_use(line_orthant, method, rules,
                                              per_step, per_record):
    # calls onto (A, B): per_step for each step, per_record for each record
    # (a run of n steps has n + 1 records), plus one onto A at each record
    # where d_B(w) < tol at the monitored point w; DRA projects P_A z and
    # P_B(2a - z), MAP and MRP P_B z and the step's P_A. A rule on the
    # iterate takes P_B z at each record, which MAP and MRP reuse for their
    # step; a rule on the shadow takes P_A z and P_B(a)
    shadow_rule = getattr(rules, "monitor", None) is d.Monitor.SHADOW
    set_a, set_b = (CountingSet(s) for s in line_orthant)
    tr = d.run(set_a, set_b, method, [-70.0, 30.0], [rules, d.MaxIter(40)])
    steps, records = tr.iterations, len(tr)
    assert steps >= 2
    base_a, base_b = line_orthant
    tol = getattr(rules, "tol", 0.0)
    passed = sum(base_b.distance(base_a.project(z) if shadow_rule else z) < tol for z in tr.z)
    assert passed == (tr.termination.reason is d.Reason.FEASIBILITY)
    assert (set_a.calls, set_b.calls) == tuple(
        s * steps + r * records + f for s, r, f in zip(per_step, per_record, (passed, 0)))
    # the trace stores the iterates alone: the first read of a costs one
    # projection onto A per record, and pbr and d_b each cost one
    # projection onto B per record; a second read costs none
    for name, cost in (("a", (records, 0)), ("pbr", (0, records)), ("d_b", (0, records))):
        for want in (cost, (0, 0)):
            before = (set_a.calls, set_b.calls)
            getattr(tr, name)
            assert (set_a.calls - before[0], set_b.calls - before[1]) == want


@pytest.mark.parametrize("method", list(d.MethodKind))
@pytest.mark.parametrize("rule", [None, d.Feasibility(1e-4),
                                  d.Feasibility(1e-4, d.Monitor.SHADOW)],
                         ids=["cap", "iterate", "shadow"])
def test_run_takes_the_flag_at_the_stop_and_derives_the_shadows(line_orthant, method, rule):
    # without an eta rule the step residual and the exactness flag are taken
    # once, from the last two iterates, and the trace derives the shadows
    set_a, set_b = line_orthant
    tr = d.run(set_a, set_b, method, [-70.0, 30.0], [d.MaxIter(40)] + [rule] * (rule is not None))
    assert tr.iterations >= 2
    residual = tr.termination.step_residual
    assert residual == numpy_norms(tr.z[-1:] - tr.z[-2:-1])[0]
    assert tr.termination.exact == _exact_step(residual, 1.0 + numpy_norms(tr.z[-2:-1])[0],
                                               DEFAULT_ETA)
    assert tr.a is tr.a and len(tr.a) == len(tr.z)
    for z, a in zip(tr.z, tr.a):
        assert np.array_equal(bits(a), bits(set_a.project(z)))


def test_shadow_sequence(line_orthant):
    set_a, set_b = line_orthant
    tr = d.run(set_a, set_b, d.MethodKind.DRA, [0.0, 0.0], d.ExactFixedPoint())
    sh = tr.a
    assert np.allclose(sh[1], FIX, rtol=0, atol=1e-12)
    for a in sh:
        assert set_a.distance(a) <= 1e-10
    tr_fix = d.run(set_a, set_b, d.MethodKind.DRA, [1.0, 1.0], d.ExactFixedPoint())
    for a in tr_fix.a:
        assert np.allclose(a, [1.0, 1.0], rtol=0, atol=1e-12)


def test_trace_keeps_no_reference_to_the_start(line_orthant):
    # a run that stopped at z0 returned the caller's own array as its final
    # point, so writing into z0 afterwards changed the trace
    z0 = np.array([6.0, 0.0])
    tr = d.run(*line_orthant, d.MethodKind.MAP, z0, d.Feasibility(1e-4))
    z0[0] = 99.0
    assert tr.iterations == 0
    assert tr.final_point.tolist() == tr.z[0].tolist() == [6.0, 0.0]


def infeasible_line():
    """The line x + 5y = -6 against the orthant: no common point."""
    return d.Affine(LINE_L, [-6.0]), d.Orthant(2)


def test_a_trace_stores_its_iterates_alone():
    # every other column is a function of z_n, derived on first read
    assert [f.name for f in dataclasses.fields(d.IterationTrace)] == [
        "z", "set_a", "set_b", "termination", "translation"]


@pytest.mark.parametrize("method", list(d.MethodKind))
@pytest.mark.parametrize("records", [1, 4, 15, 16, 17, 33, 1026])
def test_a_trace_keeps_one_array_and_a_slotted_decision(method, records):
    # z owns its buffer (no base array kept alive behind a reshape view),
    # and the decision has no instance dict and cannot be rebound; one
    # record is a feasible start, the others runs of the infeasible line,
    # on each side of the points where the run's array grows (16, 32, ...)
    if records == 1:
        tr = d.run(d.Affine(LINE_L, LINE_A), d.Orthant(2), method, FIX, d.Feasibility(1e-4))
    else:
        tr = d.run(*infeasible_line(), method, [100.0, -100.0], d.MaxIter(records - 1))
    assert len(tr) == records
    assert tr.z.base is None and tr.z.flags.c_contiguous and not tr.z.flags.writeable
    t = tr.termination
    assert not hasattr(t, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.reason = d.Reason.FEASIBILITY


def test_a_kept_short_trace_costs_little_beyond_its_iterates():
    # 200 kept traces of the epigraph case, each run or run_epi of at most
    # 12 records on quadratic(1, 0, -1): traced bytes per trace beyond
    # z.nbytes.  Measured 384-385 B (112 B of z per trace); 435-444 B when
    # each run_epi call built its own Epigraph1D, and 630-640 B when z was a
    # reshape view of a second array, Termination had an instance dict and
    # run_epi stored its region tags.  The bound leaves about 15% headroom
    # over the measured value.
    f = d.quadratic(1.0, 0.0, -1.0)
    axis, epi = d.Hyperplane([0.0, 1.0], 0.0), d.Epigraph1D(f)
    rules = [d.ExactFixedPoint(), d.MaxIter(11)]

    def solve(i, z0):
        if i % 2:
            return d.run_epi(f, z0, max_iter=11)
        return d.run(axis, epi, d.MethodKind.DRA, z0, rules)

    starts = np.random.default_rng(32).uniform(-10.0, 10.0, (200, 2))
    for i, z0 in enumerate(starts[:20]):
        solve(i, z0)
    tracemalloc.start()
    try:
        kept = [solve(i, z0) for i, z0 in enumerate(starts)]
        total = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert max(len(tr) for tr in kept) <= 12
    assert (total - sum(tr.z.nbytes for tr in kept)) / len(kept) <= 445


@pytest.mark.parametrize("method, retained, peak", [
    (d.MethodKind.DRA, 20, 48), (d.MethodKind.MAP, 20, 32)])
def test_long_runs_keep_eight_bytes_per_coordinate(method, retained, peak):
    # a run keeps its iterates as one float array, not one numpy object per
    # vector (136 B a record), and stores no shadow column, though DRA
    # computes P_A z_n at every record; bytes per record, with the run's
    # own working set in the peak.  The peak is the array at its last
    # doubling, 32,768 rows: measured 26.3 B a record for both methods
    # (35.9 B when the run gathered its records into 1,024-row blocks)
    set_a, set_b = infeasible_line()
    d.run(set_a, set_b, method, [100.0, -100.0], d.MaxIter(5))
    tracemalloc.start()
    try:
        tr = d.run(set_a, set_b, method, [100.0, -100.0], d.MaxIter(20_000))
        kept, top = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tr.termination.reason is d.Reason.MAX_ITER and len(tr) == 20_001
    assert kept <= retained * len(tr)
    assert top <= peak * len(tr)


@pytest.mark.parametrize("method", list(d.MethodKind))
@pytest.mark.parametrize("records", [100, 1_000])
def test_a_run_peaks_near_the_bytes_it_keeps(method, records):
    # each iterate is written once into the run's own array, with no numpy
    # object per record held until the stop: peak traced bytes per record.
    # Measured 27.8-30.3 B at 100 records and 17.2-17.4 B at 1,000 for DRA,
    # MAP and MRP, 37.8-38.5 B and 18.1-18.2 B for SPINGARN, whose pair
    # adds two arrays (75.5-76.0 B when each run built the linearized
    # sets); the bounds leave about 25% headroom.  A run that kept a list
    # of records peaked at 170-195 B at both lengths
    bound = {100: 48 if method is d.MethodKind.SPINGARN else 38, 1_000: 24}[records]
    set_a, set_b = infeasible_line()
    d.run(set_a, set_b, method, [100.0, -100.0], d.MaxIter(5))
    tracemalloc.start()
    try:
        tr = d.run(set_a, set_b, method, [100.0, -100.0], d.MaxIter(records - 1))
        top = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tr) == records
    assert top <= bound * records


@pytest.mark.parametrize("method", [d.MethodKind.DRA, d.MethodKind.MAP])
def test_trace_derives_each_column_in_one_row_call(monkeypatch, method):
    # the derived columns of a 20,001-record trace: each one that needs a
    # projection makes one row call on the stacked column and no scalar
    # call, and a is derived for every method; d_a reads a
    set_a, set_b = infeasible_line()
    tr = d.run(set_a, set_b, method, [100.0, -100.0], d.MaxIter(20_000))
    assert len(tr) == 20_001
    calls = []
    for label, s in (("A", set_a), ("B", set_b)):
        for name in ("_project", "_project_rows"):
            def counted(X, f=getattr(s, name), key=(label, name)):
                calls.append((*key, X.shape))
                return f(X)
            monkeypatch.setattr(s, name, counted)
    rows = ("_project_rows", (20_001, 2))
    expected = {"a": [("A", *rows)], "pbr": [("B", *rows)], "d_a": [], "d_b": [("B", *rows)]}
    for column, want in expected.items():
        calls.clear()
        getattr(tr, column)
        assert calls == want, column


@pytest.mark.parametrize("method", list(d.MethodKind))
@pytest.mark.parametrize("cap", [14, 15, 16, 32, 1023, 1024, 2053])
def test_trace_columns_are_read_only_arrays(method, cap):
    # every column is one read-only array of a row per record, and a run
    # whose array grows, at 16, 32, ... records, keeps every record: each
    # iterate is the step function's image of the one before, to the bit
    set_a, set_b = infeasible_line()
    tr = d.run(set_a, set_b, method, [100.0, -100.0], d.MaxIter(cap))
    assert tr.iterations == cap and len(tr) == tr.iterations + 1
    columns = {name: getattr(tr, name) for name in ("z", "a", "r", "pbr", "d_a", "d_b")}
    for name, col in columns.items():
        shape = (len(tr),) if name.startswith("d_") else (len(tr), 2)
        assert col.shape == shape and col.dtype == np.float64 and col.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            col[0] = 0.0
    assert np.array_equal(bits(tr.z[-1]), bits(tr.final_point))
    with pytest.raises(ValueError, match="read-only"):
        tr.final_point[0] = 0.0
    if method is not d.MethodKind.SPINGARN:
        step = {d.MethodKind.DRA: lambda z: d.dra_step(set_a, set_b, z)[0],
                d.MethodKind.MAP: lambda z: d.map_step(set_a, set_b, z),
                d.MethodKind.MRP: lambda z: d.mrp_step(set_a, set_b, z)}[method]
        for n in range(tr.iterations):
            assert np.array_equal(bits(step(tr.z[n])), bits(tr.z[n + 1]))
    for z, a in zip(tr.z, tr.a):
        assert np.array_equal(bits(a), bits(set_a.project(z)))


def test_a_termination_is_the_runs_decision():
    # why the run stopped, and its last step's flag and residual; the step
    # count and the final point are the trace's
    assert [f.name for f in dataclasses.fields(d.Termination)] == [
        "reason", "exact", "step_residual"]


def test_a_trace_reads_its_count_and_final_point_from_its_iterates():
    # a trace cut to its first k records ends at record k - 1
    set_a, set_b = infeasible_line()
    tr = d.run(set_a, set_b, d.MethodKind.DRA, [100.0, -100.0], d.MaxIter(6))
    for k in range(1, len(tr) + 1):
        cut = dataclasses.replace(tr, z=tr.z[:k])
        assert cut.iterations == k - 1
        assert np.array_equal(bits(cut.final_point), bits(tr.z[k - 1]))


@pytest.mark.parametrize("method", list(d.MethodKind))
def test_wide_affine_runs_have_the_bits_of_the_rows(method):
    # an Affine of R^9 (from dim 8 as below it) against a box it meets:
    # every row of run_rows ends as run from its start alone, final point to
    # the last bit, iterations, reason and exact; and every derived trace
    # column has the bits of the scalar projections and distances that run
    # computes, so a feasibility stop shows its last d_a and d_b below tol
    rng = np.random.default_rng(2620)
    x_bar = rng.uniform(-1.0, 1.0, 9)
    L = rng.normal(size=(3, 9))
    set_a, set_b = d.Affine(L, L @ x_bar), d.Box(x_bar - 0.5, x_bar + 0.5)
    Z = rng.uniform(-20.0, 20.0, (4, 9))
    Z[::2, ::2] = -0.0
    tol = 1e-9
    rules = [d.ExactFixedPoint(), d.Feasibility(tol), d.MaxIter(2_000)]
    res = d.run_rows(set_a, set_b, {method: rules}, Z)
    for i, z0 in enumerate(Z):
        tr = d.run(set_a, set_b, method, z0, rules)
        t = tr.termination
        assert t.reason is d.Reason.FEASIBILITY and tr.iterations > 1
        assert (res["iterations"][i], res["reason"][i], res["exact"][i]) == (
            tr.iterations, t.reason, t.exact)
        assert np.array_equal(bits(res["final"][i]), bits(tr.final_point))
        assert tr.d_a[-1] < tol and tr.d_b[-1] < tol
        for n, z in enumerate(tr.z):
            a = set_a.project(z)
            assert np.array_equal(bits(tr.a[n]), bits(a))
            assert np.array_equal(bits(tr.pbr[n]), bits(set_b.project(2.0 * a - z)))
            assert bits(tr.d_a[n]) == bits(set_a.distance(z))
            assert bits(tr.d_b[n]) == bits(set_b.distance(z))


@pytest.mark.parametrize("set_a", [d.Affine(LINE_L, LINE_A), d.Hyperplane([1.0, 5.0], 6.0)])
def test_spingarn_translation_is_read_only(set_a):
    # the shift of an affine first set is a trace column like the others
    tr = d.run(set_a, d.Orthant(2), d.MethodKind.SPINGARN, [37.0, -11.0], d.MaxIter(5))
    shift = tr.translation.copy()
    with pytest.raises(ValueError, match="read-only"):
        tr.translation[0] = 5.0
    assert np.array_equal(bits(tr.translation), bits(shift))


@pytest.mark.parametrize("make", [lambda: d.Affine(LINE_L, LINE_A),
                                  lambda: d.Hyperplane([1.0, 5.0], 6.0)],
                         ids=["affine", "hyperplane"])
def test_spingarn_builds_the_subspace_once_per_set(make, constructions):
    # the subspace through the origin and the shift are the set's own: the
    # first run builds them, and later runs and row batches on the set
    # construct no descriptor and share the one read-only shift
    set_a, set_b, z0 = make(), d.Orthant(2), [37.0, -11.0]
    constructions.clear()
    first = d.run(set_a, set_b, d.MethodKind.SPINGARN, z0, d.MaxIter(5))
    assert constructions == [type(set_a)]
    constructions.clear()
    again = d.run(set_a, set_b, d.MethodKind.SPINGARN, z0, d.MaxIter(5))
    out = d.run_rows(set_a, set_b, {d.MethodKind.SPINGARN: d.MaxIter(5)}, [z0, [1.0, 2.0]])
    assert constructions == []
    assert again.translation is first.translation
    assert np.array_equal(bits(again.z), bits(first.z))
    assert np.array_equal(bits(out["final"][0]), bits(first.final_point))


# ---------------------------------------------------------------------------
# the row driver


def refuse_projections(monkeypatch, *sets):
    """Make every projection onto the given sets fail the test."""
    def refused(X):
        raise AssertionError("a set was projected")
    for s in sets:
        for name in ("_project", "_project_rows"):
            monkeypatch.setattr(s, name, refused)


def test_run_rows_on_zero_rows_gives_empty_columns(line_orthant, monkeypatch):
    # a (0, dim) stack projects nothing and gives each column its shape and
    # dtype with zero rows; the checks of the sets and the plan keys come first
    set_a, set_b = line_orthant
    Z = np.zeros((0, 2))
    refuse_projections(monkeypatch, set_a, set_b)
    rules = [d.ExactFixedPoint(), d.Feasibility(1e-4), d.MaxIter(50)]
    for methods in [[m] for m in d.MethodKind] + [list(d.MethodKind)]:
        res = d.run_rows(set_a, set_b, dict.fromkeys(methods, rules), Z, (5, 10))
        assert {k: (v.shape, v.dtype) for k, v in res.items()} == {
            "final": ((0, 2), np.float64), "d_b_at": ((0, 2), np.float64),
            "first_n": ((0, 2), np.dtype(int)), "iterations": ((0,), np.dtype(int)),
            "exact": ((0,), np.bool_), "reason": ((0,), np.object_)}
    with pytest.raises(ValueError, match="unknown method"):
        d.run_rows(set_a, set_b, {"DRA": None}, Z)
    with pytest.raises(d.DimensionMismatchError, match="^sets have dimensions 2 and 3$"):
        d.run_rows(set_a, d.Orthant(3), {d.MethodKind.DRA: None}, Z)


def test_run_rows_refuses_an_empty_plan_dict(line_orthant, monkeypatch):
    # the library twin of the parser's "'methods' must name at least one
    # method": an empty plans dict raises before any set is projected
    set_a, set_b = line_orthant
    calls = []
    for s in (set_a, set_b):
        def counted(X, f=s._project_rows):
            calls.append(X.shape)
            return f(X)
        monkeypatch.setattr(s, "_project_rows", counted)
    for Z in (np.zeros((0, 2)), np.ones((3, 2))):
        with pytest.raises(ValueError, match="^plans must name at least one method$"):
            d.run_rows(set_a, set_b, {}, Z)
    assert calls == []


@pytest.mark.parametrize("record_at", [[-1], [2.5], [True], [5, np.bool_(False)], (0, -3)],
                         ids=["negative", "fraction", "bool", "numpy-bool", "tuple"])
def test_run_rows_refuses_a_record_index_that_is_no_count(line_orthant, monkeypatch, record_at):
    # an index below 0 or a fraction gave a silent all-nan d_b_at column and
    # True recorded at n = 1; each is refused, as normalize_rules refuses
    # such a cap, before any set is projected
    set_a, set_b = line_orthant
    Z = np.ones((3, 2))
    refuse_projections(monkeypatch, set_a, set_b)
    for methods in [[m] for m in d.MethodKind] + [list(d.MethodKind)]:
        with pytest.raises(ValueError, match="^record_at must hold integers of at least 0, got "):
            d.run_rows(set_a, set_b, dict.fromkeys(methods, d.MaxIter(4)), Z, record_at)


def test_run_rows_records_at_numpy_integers_as_at_ints(line_orthant):
    # the check lets numpy integers through, as normalize_rules lets a cap
    set_a, set_b = line_orthant
    Z = np.random.default_rng(2102).uniform(-100, 100, (4, 2))
    plans = dict.fromkeys(d.MethodKind, d.MaxIter(6))
    ints = d.run_rows(set_a, set_b, plans, Z, [0, 2, 6])
    numpy_ints = d.run_rows(set_a, set_b, plans, Z, np.array([0, 2, 6]))
    np.testing.assert_array_equal(ints["d_b_at"], numpy_ints["d_b_at"])
    assert not np.isnan(ints["d_b_at"]).any()


def test_run_rows_and_run_give_zero_distances_on_a_zero_dimensional_pair():
    # Box([], []) is a set of R^0: every distance on it is 0, in the row
    # columns and in a trace's d_a and d_b, and no norm reads a column
    box = d.Box([], [])
    np.testing.assert_array_equal(_norms(np.zeros((3, 0))), np.zeros(3))
    plans = dict.fromkeys((d.MethodKind.DRA, d.MethodKind.MAP, d.MethodKind.MRP), d.MaxIter(3))
    res = d.run_rows(box, box, plans, np.zeros((2, 0)), [0, 1])
    np.testing.assert_array_equal(res["d_b_at"], np.zeros((6, 2)))
    np.testing.assert_array_equal(res["first_n"], np.zeros((6, 2), dtype=int))
    assert res["iterations"].tolist() == [3] * 6 and res["final"].shape == (6, 0)
    for method in plans:
        tr = d.run(box, box, method, [], d.MaxIter(3))
        np.testing.assert_array_equal(tr.d_a, np.zeros(4))
        np.testing.assert_array_equal(tr.d_b, np.zeros(4))


def assert_rows_are_runs(set_a, set_b, plans, Z, res):
    """Row i * len(plans) + k of run_rows' columns ends as run from start i
    under the k-th plan: iterations, reason, exact and the final point's bits."""
    for i, (z0, method) in enumerate(itertools.product(Z, plans)):
        tr = d.run(set_a, set_b, method, z0, plans[method])
        t = tr.termination
        got = (res["iterations"][i], res["reason"][i], res["exact"][i])
        assert got == (tr.iterations, t.reason, t.exact), (z0, method)
        assert np.array_equal(res["final"][i].view(np.int64), tr.final_point.view(np.int64))


def test_run_rows_ends_as_run_after_its_only_eta_block_leaves(line_orthant, monkeypatch):
    # the DRA block carries the batch's only eta and its rows leave by n = 3,
    # while the capped MAP rows step on to n = 12: from then on no step
    # takes the exactness test, and every row still ends as run ends
    set_a, set_b = line_orthant
    dra = [d.ExactFixedPoint(1e-14), d.MaxIter(100)]
    Z = np.random.default_rng(2103).uniform(-10, 10, (120, 2))
    Z = np.array([z for z in Z if d.run(set_a, set_b, d.MethodKind.DRA, z, dra).iterations <= 3])
    assert len(Z) >= 10
    plans = {d.MethodKind.MAP: d.MaxIter(12), d.MethodKind.DRA: dra}
    ruled = []
    exact_rows = d.methods._exact_rows

    def counted(Z, Z_prev, i, eta):
        ruled.append(eta is not None)
        return exact_rows(Z, Z_prev, i, eta)

    monkeypatch.setattr(d.methods, "_exact_rows", counted)
    res = d.run_rows(set_a, set_b, plans, Z, (0, 2))
    assert set(res["iterations"][::2]) == {12} and max(res["iterations"][1::2]) <= 3
    assert 1 <= ruled.count(True) <= 3     # the eta test at n = 1, ..., 3 at most
    assert_rows_are_runs(set_a, set_b, plans, Z, res)


def test_run_rows_tests_each_block_by_its_own_cap(line_orthant):
    # a cap per block: MAP's 2, DRA's 100 and SPINGARN's 50, SPINGARN under
    # a feasibility rule on its iterate (the point other than its shadow);
    # the least cap stops only the MAP rows, and the rows it leaves end as
    # run ends
    set_a, set_b = line_orthant
    plans = {d.MethodKind.MAP: d.MaxIter(2),
             d.MethodKind.DRA: [d.ExactFixedPoint(1e-14), d.MaxIter(100)],
             d.MethodKind.SPINGARN: [d.Feasibility(1e-6, d.Monitor.ITERATE), d.MaxIter(50)]}
    Z = np.random.default_rng(2104).uniform(-100, 100, (12, 2))
    res = d.run_rows(set_a, set_b, plans, Z, (0, 5))
    assert set(res["iterations"][::3]) == {2}
    assert max(res["iterations"][1::3]) > 2 and max(res["iterations"][2::3]) > 2
    assert_rows_are_runs(set_a, set_b, plans, Z, res)


def test_run_rows_steps_a_row_on_until_it_knows_each_first_index(line_orthant):
    # MAP and MRP rows stop where d_B < 1e-3, before d_B falls below 1e-4:
    # each steps on past its stop and its last record until it reaches
    # each of FIRST_N_TOLS, as a run to its cap finds them
    set_a, set_b = line_orthant
    plans = dict.fromkeys((d.MethodKind.MAP, d.MethodKind.MRP),
                          [d.Feasibility(1e-3), d.MaxIter(1000)])
    Z = np.random.default_rng(2105).uniform(-10, 10, (10, 2))
    res = d.run_rows(set_a, set_b, plans, Z, (0, 1))
    stepped_on = 0
    for i, (z0, method) in enumerate(itertools.product(Z, plans)):
        d_b = d.run(set_a, set_b, method, z0, d.MaxIter(1000)).d_b
        first = [int(np.argmax(d_b < tol)) for tol in d.methods.FIRST_N_TOLS]
        assert min(d_b) < min(d.methods.FIRST_N_TOLS)
        assert res["first_n"][i].tolist() == first, (z0, method)
        stepped_on += bool(first[0] <= res["iterations"][i] < first[1])
    assert stepped_on >= 6
    assert_rows_are_runs(set_a, set_b, plans, Z, res)


@pytest.mark.parametrize("quiet", [True, False], ids=["errstate", "warnings-as-errors"])
def test_a_finished_row_at_the_edge_of_the_float_range_takes_no_step(quiet):
    # (1.7e308, 0) lies in both sets, so its MAP and MRP rows finish at
    # n = 0, where run stops; MRP's next step 2 P_B z - z would overflow.
    # Finished rows wait in the batch while the 20 others step on, unless
    # they lie near the edge of the float range: then they leave at once
    set_a, set_b = d.Hyperplane([0.0, 1.0], 0.0), d.Orthant(2)
    plans = dict.fromkeys((d.MethodKind.MAP, d.MethodKind.MRP), [d.Feasibility(1e-4), d.MaxIter(50)])
    Z = np.vstack([[1.7e308, 0.0], np.random.default_rng(2106).uniform(-10, 10, (20, 2))])
    with warnings.catch_warnings(), np.errstate(all="ignore" if quiet else "warn"):
        warnings.simplefilter("error")
        res = d.run_rows(set_a, set_b, plans, Z)
        assert res["iterations"][:2].tolist() == [0, 0] and min(res["iterations"][2:]) > 0
        assert_rows_are_runs(set_a, set_b, plans, Z, res)


def test_run_rows_reads_each_plan_as_run_reads_stop(line_orthant, monkeypatch):
    # a plan goes through normalize_rules, as run's stop does: a bare rule
    # gives the rows of the list that holds it, and a plan that run refuses
    # raises run's ValueError before any set is projected
    set_a, set_b = line_orthant
    Z = np.random.default_rng(2101).uniform(-100, 100, (9, 2))
    bare = d.run_rows(set_a, set_b, dict.fromkeys(d.MethodKind, d.MaxIter(4)), Z, (0, 3, 9))
    listed = d.run_rows(set_a, set_b, dict.fromkeys(d.MethodKind, [d.MaxIter(4)]), Z, (0, 3, 9))
    assert bare.keys() == listed.keys()
    for key in bare:
        np.testing.assert_array_equal(bare[key], listed[key])
    assert (bare["iterations"] == 4).all() and set(bare["reason"]) == {d.Reason.MAX_ITER}
    bad = [d.ExactFixedPoint(), d.ExactFixedPoint(1e-10), d.MaxIter(5)]
    with pytest.raises(ValueError) as from_run:
        d.run(set_a, set_b, d.MethodKind.DRA, Z[0], bad)
    refuse_projections(monkeypatch, set_a, set_b)
    for method in d.MethodKind:
        for plans in ({method: bad}, {**dict.fromkeys(d.MethodKind), method: bad}):
            with pytest.raises(ValueError) as from_rows:
                d.run_rows(set_a, set_b, plans, Z)
            assert str(from_rows.value) == str(from_run.value)


@pytest.mark.parametrize("cap", [2**64, 10**400], ids=["2^64", "10^400"])
def test_run_rows_takes_every_cap_that_run_takes(line_orthant, cap):
    # a cap beyond the uint64 range must not reach the packed block rules,
    # which would become an object array; every row on the line grid ends
    # before 100,000 steps, so the rows are those of that cap
    set_a, set_b = line_orthant
    axis = np.linspace(-100.0, 100.0, 6)
    Z = np.array(list(itertools.product(axis, axis)))
    def plans(n):
        return {m: [d.ExactFixedPoint() if m in (d.MethodKind.DRA, d.MethodKind.SPINGARN)
                    else d.Feasibility(1e-4), d.MaxIter(n)] for m in d.MethodKind}
    res = d.run_rows(set_a, set_b, plans(cap), Z, (5, 10))
    ref = d.run_rows(set_a, set_b, plans(100_000), Z, (5, 10))
    for key in res:
        np.testing.assert_array_equal(res[key], ref[key])
    assert_rows_are_runs(set_a, set_b, plans(cap), Z, res)


@pytest.mark.parametrize("m, n", [(1, 4), (3, 8), (5, 12), (10, 20)])
def test_dra_rows_end_exact_on_affine_polyhedral_slater_instances(m, n):
    # the paper's affine-polyhedral case: A = {L x = b} with
    # L full row rank meets B in a point x_bar interior to B, so DRA ends
    # exact from every start, with the shadow in A and in B; B is the
    # orthant, a box and a product of 2-D halfspaces, each around x_bar
    rng = np.random.default_rng(2110 + n)
    L = rng.standard_normal((m, n))
    assert np.linalg.matrix_rank(L) == m
    x_bar = rng.uniform(0.1, 1, n)
    b = L @ x_bar
    Z = rng.uniform(-10, 10, (50, n))
    normals = rng.standard_normal((n // 2, 2))
    halfspaces = [d.Halfspace(v, v @ x_bar[2 * k:2 * k + 2] + rng.uniform(0.1, 1))
                  for k, v in enumerate(normals)]
    set_a = d.Affine(L, b)
    plan = {d.MethodKind.DRA: [d.ExactFixedPoint(1e-14), d.MaxIter(10_000)]}
    for set_b in (d.Orthant(n),
                  d.Box(x_bar - rng.uniform(0.1, 1, n), x_bar + rng.uniform(0.1, 1, n)),
                  d.Product(halfspaces)):
        res = d.run_rows(set_a, set_b, plan, Z)
        assert list(res["reason"]) == [d.Reason.EXACT_FIXED_POINT] * len(Z)
        for z in res["final"]:
            shadow = set_a.project(z)
            assert np.abs(L @ shadow - b).max() <= 1e-12
            assert set_b.distance(shadow) <= 1e-12


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


def _null_basis(L):
    """An orthonormal basis of the null space of a full-row-rank L, as columns."""
    return np.linalg.svd(L)[2][L.shape[0]:].T


def test_linear_rates_on_two_subspaces_are_the_friedrichs_cosine():
    # two random subspaces {x : L x = 0}: DRA converges at cos(theta_F)
    # (Bauschke, Bello Cruz, Nghia, Phan & Wang 2014) and MAP at its
    # square (Deutsch); the principal cosines equal to 1 span the
    # intersection and are dropped; the ratio of the last two step norms
    # is read where the steps are still far above rounding
    rng = np.random.default_rng(2001)
    cases = 0
    for _ in range(60):
        n = int(rng.integers(3, 9))
        LA, LB = (rng.standard_normal((int(rng.integers(1, n)), n)) for _ in range(2))
        if any(np.linalg.matrix_rank(L) < L.shape[0] for L in (LA, LB)):
            continue
        cosines = np.linalg.svd(_null_basis(LA).T @ _null_basis(LB), compute_uv=False)
        cos_f = cosines[cosines < 1 - 1e-9].max(initial=0.0)
        set_a, set_b = (d.Affine(L, np.zeros(L.shape[0])) for L in (LA, LB))
        z0 = rng.uniform(-10, 10, n)
        for method, rate in ((d.MethodKind.DRA, cos_f), (d.MethodKind.MAP, cos_f**2)):
            if not 0.05 <= rate <= 0.97:
                continue
            n_max = math.ceil(math.log(1e-9) / math.log(rate)) + 2
            tr = d.run(set_a, set_b, method, z0, d.MaxIter(n_max))
            steps = np.linalg.norm(np.diff(np.array(tr.z), axis=0), axis=1)
            k = np.flatnonzero(steps > 1e-8 * steps[0])[-1]
            assert abs(steps[k] / steps[k - 1] - rate) <= 1e-3
            cases += 1
    assert cases >= 40


# ---------------------------------------------------------------------------
# oracles: the infeasible affine case and a small step without Slater


def _step_ratio(tr):
    """The last step norm of a trace over the one before it."""
    steps = np.linalg.norm(np.diff(np.asarray(tr.z), axis=0), axis=1)
    return steps[-1] / steps[-2]


def test_dra_shadow_of_the_infeasible_line_is_its_nearest_point():
    # A = {x + 5y = -6} misses the orthant; with A affine and the gap
    # attained, the DRA shadows P_A z_n converge to the point of A nearest B
    # (Bauschke, Dao & Moursi 2016), here -(3/13, 15/13), although z_n
    # itself runs off.  Ten steps give it; run on to a cap, the shadow drifts
    # away again as z_n grows, so an early stop keeps the digits
    set_a, set_b = infeasible_line()
    rng = np.random.default_rng(2020)
    for z0 in ([7.0, -3.0], [100.0, -100.0], rng.uniform(-100, 100, 2)):
        tr = d.run(set_a, set_b, d.MethodKind.DRA, z0, d.MaxIter(20_000))
        assert tr.iterations == 20_000
        early, late = (np.linalg.norm(tr.a[n] + FIX) for n in (10, -1))
        assert early <= 1e-9
        assert early < late <= 1e-10


def test_dra_shadow_of_an_infeasible_hyperplane_is_its_nearest_point():
    # {l.x = c} with l > 0 and c < 0 misses the orthant of R^n; the one pair
    # of nearest points is (c l / |l|^2, 0), so the DRA shadows converge to
    # c l / |l|^2, computed here in rationals
    rng = np.random.default_rng(2021)
    for n in (2, 3, 5, 8, 13, 20):
        for _ in range(3):
            normal, offset = rng.uniform(0.1, 2, n), -rng.uniform(0.1, 5)
            scale = Fraction(offset) / sum(Fraction(v) ** 2 for v in normal)
            nearest = np.array([float(scale * Fraction(v)) for v in normal])
            tr = d.run(d.Hyperplane(normal, offset), d.Orthant(n), d.MethodKind.DRA,
                       rng.uniform(-10, 10, n), d.MaxIter(60))
            assert np.linalg.norm(tr.a[-1] - nearest) <= 1e-12 * np.linalg.norm(nearest)


def _solve_fractions(M, b):
    """The solution of M x = b for a square nonsingular M of Fractions, by
    Gauss-Jordan elimination in exact arithmetic."""
    rows = [list(r) + [v] for r, v in zip(M, b)]
    for c in range(len(rows)):
        pivot = next(r for r in range(c, len(rows)) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(len(rows)):
            if r != c and rows[r][c] != 0:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    return [r[-1] for r in rows]


def _orthant_gap(L, a, shadow):
    """The gap vector v = P_cl(B - A)(0) of A = {Lx = a} and the orthant B,
    in rationals: x minimizes 1/2 ||min(x, 0)||^2 on A, whose KKT system is
    x_S = (L^T mu)_S, (L^T mu)_P = 0, Lx = a on the sign pattern S (x < 0),
    P (x > 0) read from a DRA shadow, and v = -min(x, 0)."""
    m, n = L.shape
    S = [i for i in range(n) if shadow[i] < -1e-7]
    P = [i for i in range(n) if shadow[i] > 1e-7]
    assert len(S) + len(P) == n, "a shadow entry is too near 0 to read its sign"
    Lq = [[Fraction(v) for v in row] for row in L.tolist()]
    # unknowns (mu, x_P), with x_S = (L^T mu)_S put into Lx = a
    M = [[Lq[j][i] for j in range(m)] + [Fraction(0)] * len(P) for i in P]
    M += [[sum(Lq[k][i] * Lq[j][i] for i in S) for j in range(m)] + [Lq[k][i] for i in P]
          for k in range(m)]
    solution = _solve_fractions(M, [Fraction(0)] * len(P) + [Fraction(v) for v in a.tolist()])
    mu, x_p = solution[:m], solution[m:]
    x_s = [sum(Lq[j][i] * mu[j] for j in range(m)) for i in S]
    assert all(v < 0 for v in x_s) and all(v > 0 for v in x_p)
    v = np.zeros(n)
    v[S] = [float(-x) for x in x_s]
    return v


@pytest.mark.parametrize("m, n", [(m, n) for m in (2, 3, 5, 10) for n in (12, 20)])
def test_dra_steps_of_an_infeasible_system_converge_to_the_gap_vector(m, n):
    # row 0 of L is positive and a_0 < 0, so e_0 is a Farkas certificate that
    # A = {Lx = a} misses the orthant; with A affine, z_{N} - z_{N-1} and
    # P_B a_N - a_N (a_N = P_A z_N, the shadow) both converge to the gap
    # vector v, which is unique although the nearest points may not be
    # (Bauschke, Dao & Moursi 2016).  Some draws are still 8e-4 off at 5,000
    # steps, so the run takes 10,000
    rng = np.random.default_rng([2034, m, n])
    L = rng.standard_normal((m, n))
    L[0] = rng.uniform(0.1, 2, n)
    a = rng.standard_normal(m)
    a[0] = -rng.uniform(0.1, 5)
    tr = d.run(d.Affine(L, a), d.Orthant(n), d.MethodKind.DRA, rng.uniform(-10, 10, n),
               d.MaxIter(10_000))
    assert tr.iterations == 10_000
    shadow = tr.a[-1]
    v = _orthant_gap(L, a, shadow)
    bound = 1e-10 * (1 + np.linalg.norm(v))
    assert np.linalg.norm(tr.z[-1] - tr.z[-2] - v) <= bound
    assert np.linalg.norm(np.maximum(shadow, 0.0) - shadow - v) <= bound


def test_dra_without_a_slater_point_ends_on_a_small_step_at_a_linear_rate():
    # y = 1 touches the unit disc only at (0, 1): no Slater point.  DRA from
    # (3, 4) still ends exact_fixed_point, but on a small step of a linear
    # rate (the last two steps' ratio about 0.6908 at every eta), with the
    # shadow about 3 eta from the solution: a small step is no proof of a
    # fixed point
    set_a, set_b = d.Hyperplane([0.0, 1.0], 1.0), d.Ball([0.0, 0.0], 1.0)
    for eta, iterations in ((1e-6, 36), (1e-10, 61), (1e-14, 86)):
        tr = d.run(set_a, set_b, d.MethodKind.DRA, [3.0, 4.0],
                   [d.ExactFixedPoint(eta), d.MaxIter(100_000)])
        assert tr.termination.reason is d.Reason.EXACT_FIXED_POINT
        assert tr.iterations == iterations
        assert abs(_step_ratio(tr) - 0.6908) <= 0.01
        assert 2 * eta <= np.linalg.norm(tr.a[-1] - [0.0, 1.0]) <= 5 * eta


@pytest.mark.parametrize("theta, iterations", [(0.3, (312, 514)), (0.7, (57, 92)),
                                               (1.2, (17, 26))])
def test_dra_on_two_lines_ends_on_a_small_step_at_the_cosine_rate(theta, iterations):
    # two lines through the origin at angle theta: no Slater point in R^2,
    # and A and B meet only at 0.  DRA still ends exact_fixed_point, on a
    # small step whose rate is known from theory: on two subspaces it is the
    # cosine of their Friedrichs angle (Bauschke, Bello Cruz, Nghia, Phan &
    # Wang, J. Approx. Theory 2014)
    set_a = d.Hyperplane([0.0, 1.0], 0.0)
    set_b = d.Hyperplane([-math.sin(theta), math.cos(theta)], 0.0)
    for eta, count in zip((1e-6, 1e-10), iterations):
        tr = d.run(set_a, set_b, d.MethodKind.DRA, [3.0, 4.0],
                   [d.ExactFixedPoint(eta), d.MaxIter(100_000)])
        assert tr.termination.reason is d.Reason.EXACT_FIXED_POINT
        assert tr.iterations == count
        assert abs(_step_ratio(tr) - math.cos(theta)) <= 1e-6


def test_dra_under_slater_ends_on_a_drop_to_rounding():
    # finite convergence shows as the last step falling far below the one
    # before it: on every start of the shipped 41 x 41 line/orthant grid the
    # ratio stays below 1e-2 (at most 9.9e-4 measured), against 0.69 above
    spec = cli.load_problem(cli.builtin_problem_path("line_orthant.json"))
    rules = cli._rules_for(d.MethodKind.DRA, spec)
    for z0 in spec.starts:
        tr = d.run(spec.set_a, spec.set_b, d.MethodKind.DRA, z0, rules)
        assert tr.termination.reason is d.Reason.EXACT_FIXED_POINT
        assert _step_ratio(tr) < 1e-2


MARGIN_FAMILIES = {
    "line": lambda eps: (d.Affine([[1.0, 5.0]], [eps]), d.Orthant(2)),
    "parabola": lambda eps: (d.Hyperplane([0.0, 1.0], 0.0),
                             d.Epigraph1D(d.quadratic(1.0, 0.0, -eps))),
}


@pytest.mark.parametrize("family, eps", [("line", eps) for eps in (6.0, 1.0, 0.1, 0.01)]
                         + [("parabola", eps) for eps in (1.0, 0.1, 0.01)])
def test_dra_ends_exact_as_the_slater_margin_shrinks(family, eps):
    # both families of the paper with a Slater margin eps: x + 5y = eps
    # meets the open orthant, and the x-axis meets the interior of the
    # epigraph of x^2 - eps.  Theory promises finite convergence for every
    # eps > 0, not how many steps it takes: every start ends exact, the
    # rows driver agrees with run to the bit, and the shadow is in A and B
    set_a, set_b = MARGIN_FAMILIES[family](eps)
    Z = np.random.default_rng(13).uniform(-10, 10, (20, 2))
    rules = [d.ExactFixedPoint(1e-14), d.MaxIter(100_000)]
    res = d.run_rows(set_a, set_b, {d.MethodKind.DRA: rules}, Z)
    for i, z0 in enumerate(Z):
        tr = d.run(set_a, set_b, d.MethodKind.DRA, z0, rules)
        assert tr.termination.reason is d.Reason.EXACT_FIXED_POINT
        assert res["iterations"][i] == tr.iterations
        assert res["reason"][i] is tr.termination.reason
        assert res["exact"][i] == tr.termination.exact
        assert np.array_equal(bits(res["final"][i]), bits(tr.final_point))
        assert set_a.distance(tr.a[-1]) <= 1e-12
        assert set_b.distance(tr.a[-1]) <= 1e-12
