import gc
import hashlib
import math
import re
import struct
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest

import drsplit as d
from drsplit import epigraph
from drsplit.epigraph import Region, WitnessFamily

QUAD = d.quadratic(1.0, 0.0, -1.0)
ABS = d.absshift(1.0, -1.0)


def cubic_root_oracle(eps):
    """Exact-rational bisection for the positive root of
    2 p^3 - (1 + 2 eps) p - (1 + eps) = 0 on [1, 1 + eps]."""
    eps = Fraction(str(eps))

    def g(p):
        return 2 * p**3 - (1 + 2 * eps) * p - (1 + eps)

    lo, hi = Fraction(1), 1 + eps
    assert g(lo) < 0 < g(hi)
    for _ in range(80):
        mid = (lo + hi) / 2
        if g(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def line_projection_oracle(x, rho, alpha, beta):
    """Projection of (x, rho) onto the line t = alpha*p + beta (right
    branch of alpha|p| + beta), exact rationals."""
    x, rho, alpha, beta = (Fraction(str(v)) for v in (x, rho, alpha, beta))
    p = (x + alpha * (rho - beta)) / (1 + alpha * alpha)
    return float(p), float(alpha * p + beta)


# ---------------------------------------------------------------------------
# project_epigraph


def test_boundary_point_is_its_own_projection():
    assert d.project_epigraph(QUAD, (1.0, 0.0)) == (1.0, 0.0)
    assert d.project_epigraph(QUAD, (0.3, 2.0)) == (0.3, 2.0)


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_quadratic_projection_of_reflected_witness(eps):
    # the reflected witness (1 + eps, +eps) projects to the cubic root
    p, fp = d.project_epigraph(QUAD, (1.0 + eps, eps))
    assert abs(p - cubic_root_oracle(eps)) <= 1e-12
    assert abs(2 * p**3 - (1 + 2 * eps) * p - (1 + eps)) <= 1e-10
    assert 1.0 < p <= 1.0 + eps
    assert fp == QUAD(p)


def test_absshift_projection_example():
    eps = 0.25
    op, ofp = line_projection_oracle(1 + eps, -eps, 1, -1)
    assert (op, ofp) == (1.0, 0.0)
    p, fp = d.project_epigraph(ABS, (1.0 + eps, -eps))
    assert (p, fp) == (1.0, 0.0)


def test_projection_lands_between_input_and_minimizer():
    rng = np.random.default_rng(20)
    for f in (QUAD, ABS, d.quadratic(2.0, -3.0, 0.2)):
        for _ in range(300):
            x, rho = rng.uniform(-6, 6), rng.uniform(-6, 6)
            p, fp = d.project_epigraph(f, (x, rho))
            if f(x) <= rho:
                assert (p, fp) == (x, rho)
                continue
            lo, hi = min(x, f.minimizer), max(x, f.minimizer)
            assert lo - 1e-12 <= p <= hi + 1e-12
            assert rho < fp <= f(x) + 1e-10
            sg = f.subgrad(p)
            if p != 0.0 or f.kind is not d.functions.FunctionKind.ABS_SHIFT:
                assert abs(x - p - (fp - rho) * sg) <= 1e-10 * (1 + abs(x))


def test_projection_residual_postcondition_quadratic():
    rng = np.random.default_rng(21)
    for _ in range(500):
        x, rho = rng.uniform(-8, 8), rng.uniform(-8, 8)
        if QUAD(x) <= rho:
            continue
        p, fp = d.project_epigraph(QUAD, (x, rho))
        assert abs(x - p - (fp - rho) * QUAD.subgrad(p)) <= 1e-10 * (1 + abs(x))


def test_closed_forms_agree_with_bisection():
    rng = np.random.default_rng(22)
    for f in (QUAD, d.quadratic(0.5, 1.0, -2.0), ABS, d.absshift(2.0, -3.0)):
        plain = d.custom(f.fn, f.subgrad, f.minimizer)  # routes to bisection
        for _ in range(250):
            x, rho = rng.uniform(-6, 6), rng.uniform(-6, 6)
            p_fast, _ = d.project_epigraph(f, (x, rho))
            p_slow, _ = d.project_epigraph(plain, (x, rho))
            assert abs(p_fast - p_slow) <= 1e-9 * (1 + abs(x))


QUADRATICS = (QUAD, d.quadratic(0.5, 1.0, -3.0), d.quadratic(2.0, -3.0, 0.25))


def test_quadratic_projection_recovers_exact_roots():
    # x = p + (f(p) - rho) f'(p) in rationals makes p the exact projection
    # abscissa of (x, rho); keep the cases where x is a float
    cases = 0
    for f in QUADRATICS:
        q2, q1, q0 = (Fraction(c) for c in f.params)
        u = Fraction(f.minimizer)
        for k in [*range(-64, 0), *range(1, 65)]:
            p = u + Fraction(k, 8)
            fp = (q2 * p + q1) * p + q0
            for rho in map(Fraction, (-4, -1, -0.25, 0, 0.5)):
                x = p + (fp - rho) * (2 * q2 * p + q1)
                if fp <= rho or Fraction(float(x)) != x:
                    continue
                got, _ = d.project_epigraph(f, (float(x), float(rho)))
                assert abs(got - float(p)) <= 2 * np.spacing(max(abs(float(p)), abs(float(u))))
                cases += 1
    assert cases > 1000


def test_quadratic_projection_across_magnitudes():
    mags = np.logspace(-8, 8, 16 * 40 + 1)
    for f in QUADRATICS:
        plain = d.custom(f.fn, f.subgrad, f.minimizer)  # routes to bisection
        u = f.minimizer
        for m in mags:
            for x in (m, -m):
                for rho in (-m, m, -1.0 / m):
                    if f(x) <= rho:
                        continue
                    p, _ = d.project_epigraph(f, (x, rho))
                    assert min(x, u) <= p <= max(x, u)
                    p_slow, _ = d.project_epigraph(plain, (x, rho))
                    assert abs(p - p_slow) <= 1e-9 * (1 + abs(x))


@pytest.mark.parametrize("x", [1e103, -1e120, 1e150, 8e153, -1.3e154])
def test_quadratic_projection_does_not_overflow(x):
    # for f = x^2 - 1 and rho = 0 the projection equation is 2 p^3 - p = x,
    # so p is the cube root of x / 2 up to rounding; from |x| of about
    # 6.7e153 on, f'(x)^2 is beyond the float range while f(x) is not
    p, fp = d.project_epigraph(QUAD, (x, 0.0))
    assert p == pytest.approx(math.copysign(abs(x / 2) ** (1 / 3), x), rel=1e-14)
    assert math.isfinite(fp)


def test_quadratic_projection_with_a_huge_leading_coefficient():
    # f = 1e150 x^2 and rho = 0: 2e300 p^3 + p = 1e5, so p = (5e-296)^(1/3)
    # to within 1e-100 relative; f'(x)^2 = 4e310 and 2 q2 f(x) = 2e310 at
    # the start both overflow
    p, fp = d.project_epigraph(d.quadratic(1e150, 0.0, 0.0), (1e5, 0.0))
    assert p == pytest.approx(5e-296 ** (1 / 3), rel=1e-14)
    assert fp == pytest.approx(1e150 * p * p, rel=1e-14)


@pytest.mark.parametrize("f, z", [
    (QUAD, (1e160, 0.0)),  # f(x) overflows
    (d.quadratic(1.0, 0.0, 0.0), (1e154, -1.7e308)),  # f(x) - rho overflows
    (d.quadratic(1e308, 0.0, 0.0), (1.0, 0.0)),  # 2 q2 overflows
])
def test_quadratic_projection_out_of_float_range_raises(f, z):
    with pytest.raises(OverflowError):
        d.project_epigraph(f, z)


@pytest.mark.parametrize("x, rho", [(0.01, -1e44), (-1e120, -1e300)])
def test_quadratic_projection_stops_at_the_minimizer(x, rho):
    # rho far below f(x): the first Newton step is nearly u - x and used to
    # round past u = 0, to -1.7e-18 and +1.4e104 respectively
    p, _ = d.project_epigraph(QUAD, (x, rho))
    assert min(x, QUAD.minimizer) <= p <= max(x, QUAD.minimizer)
    plain = d.custom(QUAD.fn, QUAD.subgrad, QUAD.minimizer)  # routes to bisection
    p_slow, _ = d.project_epigraph(plain, (x, rho))
    assert abs(p - p_slow) <= 1e-9 * (1 + abs(x))
    row = d.Epigraph1D(QUAD).project_rows([(x, rho)])[0]
    assert np.array_equal(row.view(np.int64),
                          np.array(d.project_epigraph(QUAD, (x, rho))).view(np.int64))


def test_quadratic_projection_stays_in_the_bracket_far_below_the_graph():
    # one point per decade of |x| in [1e-2, 1e158] against one per decade of
    # -rho in [1e-2, 1e304]; points whose f(x) - rho overflows raise
    # OverflowError (see above) and are left out
    m = np.logspace(-2, 158, 161)
    X, R = (a.ravel() for a in np.meshgrid(np.concatenate([m, -m]),
                                           -np.logspace(-2, 304, 307), indexing="ij"))
    with np.errstate(over="ignore"):
        keep = (QUAD(X) > R) & np.isfinite(QUAD(X) - R)
    X, R = X[keep], R[keep]
    P = d.Epigraph1D(QUAD).project_rows(np.column_stack((X, R)))[:, 0]
    u = QUAD.minimizer
    outside = ~((np.minimum(X, u) <= P) & (P <= np.maximum(X, u)))
    assert not outside.any(), np.column_stack((X, R))[outside][:5]
    for k in range(0, len(X), 97):
        p, _ = d.project_epigraph(QUAD, (X[k], R[k]))
        assert np.float64(p).view(np.int64) == P[k].view(np.int64)


def test_subgradient_inequality_of_projection():
    rng = np.random.default_rng(23)
    for f in (QUAD, ABS):
        for _ in range(50):
            x, rho = rng.uniform(-6, 6), rng.uniform(-6, 6)
            if f(x) <= rho:
                continue
            p, fp = d.project_epigraph(f, (x, rho))
            for _ in range(100):
                y = rng.uniform(-8, 8)
                lhs = (y - p) * (x - p)
                rhs = (f(y) - fp) * (fp - rho)
                assert lhs <= rhs + 1e-9


def test_minimizer_side_property_and_strict_descent():
    rng = np.random.default_rng(24)
    for f in (QUAD, ABS, d.quadratic(2.0, -3.0, -1.0)):
        u = f.minimizer
        for _ in range(300):
            x, rho = rng.uniform(-6, 6), rng.uniform(-6, 6)
            if f(x) <= rho:
                continue
            p, fp = d.project_epigraph(f, (x, rho))
            assert (u - p) * (x - p) <= 1e-10
            if abs(x - u) > 1e-6:
                assert fp < f(x) - 1e-12 or fp <= f.inf_value + 1e-12


def test_projection_of_minimizer_abscissa_is_vertical():
    p, fp = d.project_epigraph(QUAD, (0.0, -5.0))
    assert (p, fp) == (0.0, -1.0)


@pytest.mark.parametrize("f", [QUAD, ABS])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", [0, 1])
def test_non_finite_points_raise(f, bad, axis):
    z = [0.5, -2.0]
    z[axis] = bad
    message = "epigraph points must have finite coordinates"
    epi = d.Epigraph1D(f)
    for call in (lambda: d.project_epigraph(f, z), lambda: d.classify_region(f, z),
                 lambda: d.dr_step_epi(f, z), lambda: epi._project(np.array(z))):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
    # the public projector checks its input as every set does, first
    with pytest.raises(ValueError, match="^vector coordinates must be finite$"):
        epi.project(z)


def test_invalid_subgradient_selection_raises():
    bad = d.custom(lambda x: x * x - 1, lambda x: 2 * x + 5, 0.0)
    with pytest.raises(d.NoConvergenceError):
        d.project_epigraph(bad, (3.0, -2.0))
    # the selection -2x has the wrong sign: the residual is negative at both
    # ends of the bracket [0, 3]
    flipped = d.custom(lambda x: x * x - 1, lambda x: -2 * x, 0.0)
    with pytest.raises(d.NoConvergenceError, match="does not change sign on the bracket"):
        d.project_epigraph(flipped, (3.0, 0.0))


@pytest.mark.parametrize("f, error, message", [
    (ABS, ValueError, "^epigraph points must have finite coordinates$"),
    (QUAD, ValueError, "^epigraph points must have finite coordinates$"),
])
def test_dra_from_the_edge_of_the_float_range_fails_loudly(f, error, message):
    # DRA from (1.5e308, 0) on the x-axis: the reflection 2 P_A z - z
    # overflows into a point that the row projector refuses (the quadratic's
    # in the record call, with the record point whose projection overflows);
    # run refuses the overflowed point in the scalar projector's input check
    axis, epi, z0 = d.Hyperplane([0.0, 1.0], 0.0), d.Epigraph1D(f), (1.5e308, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(error, match=message):
            d.run_rows(axis, epi, {d.MethodKind.DRA: None}, np.array([z0]))
        with pytest.raises(ValueError, match="^epigraph points must have finite coordinates$"):
            d.run(axis, epi, d.MethodKind.DRA, z0)


@pytest.mark.parametrize("quiet", [True, False], ids=["errstate", "warnings-as-errors"])
@pytest.mark.parametrize("z0", [(1e308, 0.0), (1.5e308, 0.0)], ids=["1e308", "1.5e308"])
@pytest.mark.parametrize("method", list(d.MethodKind), ids=lambda m: m.value)
def test_both_drivers_fail_alike_at_the_edge_of_the_float_range(method, z0, quiet):
    # the x-axis against epi(x^2 - 1) from a start whose reflection or
    # projection overflows: run_rows raises what run raises from the same
    # start, with overflows silent or with every numpy warning an error
    axis, epi = d.Hyperplane([0.0, 1.0], 0.0), d.Epigraph1D(QUAD)
    with warnings.catch_warnings(), np.errstate(**dict.fromkeys(
            ("over", "invalid"), "ignore" if quiet else "warn")):
        warnings.simplefilter("error")
        with pytest.raises(Exception) as expected:
            d.run(axis, epi, method, z0)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            d.run_rows(axis, epi, {method: None}, np.array([z0]))


@pytest.mark.parametrize("x", [1e100, 1e120])
def test_bisection_projection_of_huge_points(x):
    # halving [0, x] down to the 1e-12 tolerance or to adjacent floats near
    # p = (x / 2)^(1/3) takes about 280 (1e100) and 320 (1e120) steps
    plain = d.custom(QUAD.fn, QUAD.subgrad, QUAD.minimizer)
    p, _ = d.project_epigraph(plain, (x, 0.0))
    p_newton, _ = d.project_epigraph(QUAD, (x, 0.0))
    assert abs(p - p_newton) <= 1e-9 * (1 + abs(p_newton))


def test_bisection_midpoint_stays_finite_at_the_top_of_the_float_range():
    # f(x) = |x/2 - u/2| with u = -1.7e308: from (1.7e308, -1) both ends of
    # the bracket pass 9e307 as it narrows, so lo + hi overflows; the root
    # (x + u/4 - 1/2)/1.25 and f - rho there are finite
    u = -1.7e308
    f = d.custom(lambda x: abs(0.5 * x + 0.85e308),
                 lambda x: 0.5 if x > u else -0.5 if x < u else 0.0, u)
    z = (1.7e308, -1.0)
    p, fp = d.project_epigraph(f, z)
    assert p == 1.0199999999999999e308 and fp == f(p)
    rows = d.Epigraph1D(f).project_rows(np.array([z]))
    assert rows.tolist() == [[p, fp]]


def test_bisection_exact_zero_ends_and_halving_bound(monkeypatch):
    # f(x) = max(|x| - 1, 0) - 1 is flat on [-1, 1]: from below the flat
    # part the residual is exactly 0 at x itself, the bracket's far end from
    # the minimizer 0, so the sign test alone would raise on a valid input
    flat = d.custom(lambda x: max(abs(x) - 1.0, 0.0) - 1.0,
                    lambda x: 1.0 if x > 1 else -1.0 if x < -1 else 0.0, 0.0)
    points = [(0.5, -5.0), (-0.5, -5.0)]  # g_hi == 0, then g_lo == 0
    projected = [d.project_epigraph(flat, z) for z in points]
    assert projected == [(0.5, -1.0), (-0.5, -1.0)]
    assert d.Epigraph1D(flat).project_rows(np.array(points)).tolist() == \
        [list(p) for p in projected]
    # halving the widest bracket [-1.7e308, 0] down to _BISECT_TOL takes
    # 1,064 midpoints, plus the two ends: below the step cap
    u = -1.7e308
    f = d.custom(lambda x: 1e-300 * abs(x / 2 - u / 2),
                 lambda x: 5e-301 if x > u else -5e-301 if x < u else 0.0, u)
    calls = []
    residual = epigraph._residual
    monkeypatch.setattr(epigraph, "_residual", lambda *a: calls.append(a) or residual(*a))
    p, _ = d.project_epigraph(f, (0.0, -1.0))
    assert len(calls) == 1066 < epigraph._BISECT_MAX_STEPS
    assert abs(p) <= 1e-12


# ---------------------------------------------------------------------------
# region classification


def test_classify_region_examples():
    assert d.classify_region(QUAD, (0.0, 0.0)) is Region.IN_BOTH
    eps = 0.3
    assert d.classify_region(QUAD, (1 + eps, eps)) is Region.IN_NEITHER
    assert d.classify_region(QUAD, (0.0, 5.0)) is Region.IN_B_ONLY
    assert d.classify_region(QUAD, (0.0, -5.0)) is Region.IN_BPRIME_ONLY
    # boundary counts as membership
    assert d.classify_region(QUAD, (2.0, 3.0)) is Region.IN_B_ONLY
    assert d.classify_region(QUAD, (2.0, -3.0)) is Region.IN_BPRIME_ONLY
    # just off the kink at x = 1, f(x) = 2^-51 is in neither set but within
    # BOUNDARY_TIE of both
    assert d.classify_region(QUAD, (1.0000000000000002, 0.0)) is Region.IN_BOTH


# ---------------------------------------------------------------------------
# one DR step


def test_dr_step_fixed_point_region():
    z, case = d.dr_step_epi(QUAD, (0.0, 0.0))
    assert case is Region.IN_BOTH
    assert tuple(z) == (0.0, 0.0)


def test_dr_step_outside_both_regions():
    eps = 0.1
    z, case = d.dr_step_epi(QUAD, (1 + eps, -eps))
    assert case is Region.IN_NEITHER
    x_eps = cubic_root_oracle(eps)
    assert abs(z.x - x_eps) <= 1e-12
    assert abs(z.rho - (-eps + QUAD(x_eps))) <= 1e-12
    assert z.rho > 0
    assert QUAD(z.x) <= QUAD(1 + eps) + 1e-10


def test_dr_step_from_reflected_region_drops_to_axis():
    z, case = d.dr_step_epi(QUAD, (3.0, -10.0))
    assert case is Region.IN_BPRIME_ONLY
    assert tuple(z) == (3.0, 0.0)
    assert d.classify_region(QUAD, z) is Region.IN_NEITHER
    z2, case2 = d.dr_step_epi(QUAD, z)
    assert case2 is Region.IN_NEITHER
    assert d.classify_region(QUAD, z2) is Region.IN_B_ONLY


def test_dr_step_matches_generic_two_set_step():
    axis = d.Hyperplane([0.0, 1.0], 0.0)
    rng = np.random.default_rng(25)
    for f in (QUAD, ABS):
        epi = d.Epigraph1D(f)
        for _ in range(300):
            z = rng.uniform(-8, 8, 2)
            z_generic = d.dra_step(axis, epi, z)[0]
            z_closed, _ = d.dr_step_epi(f, (z[0], z[1]))
            assert np.linalg.norm(z_generic - np.asarray(z_closed)) <= 1e-10


# ---------------------------------------------------------------------------
# full runs


def test_run_epi_from_fixed_point():
    tr = d.run_epi(QUAD, (0.0, 0.0))
    assert tr.iterations == 1
    assert tr.termination.exact
    assert np.array_equal(tr.final_point, [0.0, 0.0])


def test_run_epi_quadratic():
    tr = d.run_epi(QUAD, (5.0, 3.0))
    assert tr.termination.exact
    x, rho = tr.final_point
    assert rho == 0.0
    assert abs(x) <= 1.0 + 1e-10
    assert QUAD(x) <= 1e-10


def test_run_epi_absshift():
    tr = d.run_epi(ABS, (7.0, -2.0))
    assert tr.termination.exact
    x, rho = tr.final_point
    assert rho == 0.0 and abs(x) <= 1.0 + 1e-10


def test_run_epi_on_custom_functions():
    """The bisection projector drives full runs for non-builtin convex f."""

    def plw(x):  # piecewise-linear, minimum -1 at x = 1
        return max(-0.5 * (x - 1), 0.25 * (x - 1), x - 3) - 1.0

    def plw_sub(x):
        if x < 1:
            return -0.5
        if x == 1:
            return 0.0
        return 0.25 if x < 11 / 3 else 1.0

    quartic = d.custom(lambda x: (x - 2) ** 4 - 1, lambda x: 4 * (x - 2) ** 3, 2.0)
    rng = np.random.default_rng(27)
    for f in (d.custom(plw, plw_sub, 1.0), quartic):
        for _ in range(100):
            tr = d.run_epi(f, rng.uniform(-20, 20, 2))
            assert tr.termination.exact
            x, rho = tr.final_point
            assert rho == 0.0 and f(x) <= 1e-9


def test_run_epi_ends_exact_whenever_inf_f_is_negative():
    # the hyperplane-epigraph theorem: with inf f < 0, DR on (x-axis, epi f)
    # converges finitely, also for inf f near 0 (quadratic(2, -2.4, 0.7) has
    # inf f = -0.02); the last shadow lies in epi f
    rng = np.random.default_rng(2003)
    fs = [d.quadratic(2.0, -2.4, 0.7)]
    while len(fs) < 15:
        f = d.quadratic(rng.integers(1, 40) / 10, rng.integers(-30, 31) / 10,
                        rng.integers(-40, 11) / 10)
        if f.inf_value < 0:
            fs.append(f)
    fs += [d.absshift(rng.integers(1, 40) / 10, -rng.integers(1, 40) / 10) for _ in range(5)]
    for f in fs:
        for z0 in rng.uniform(-5, 5, (5, 2)):
            tr = d.run_epi(f, z0)
            assert tr.termination.reason is d.Reason.EXACT_FIXED_POINT
            x, y = tr.a[-1]
            assert f(x) <= y


def test_run_epi_requires_negative_infimum():
    with pytest.raises(d.PreconditionViolatedError):
        d.run_epi(d.quadratic(1.0, 0.0, 1.0), (0.0, 0.0))
    with pytest.raises(d.PreconditionViolatedError):
        d.run_epi(d.quadratic(1.0, 0.0, 0.0), (0.0, 0.0))


def test_run_epi_case_automaton():
    rng = np.random.default_rng(26)
    for f in (QUAD, ABS):
        for _ in range(100):
            z0 = rng.uniform(-10, 10, 2)
            tr = d.run_epi(f, z0)
            cases = tr.cases
            assert cases[-1] is Region.IN_BOTH  # terminal point
            for n in range(tr.iterations):
                z = tr.z[n]
                z_next = tr.z[n + 1]
                if cases[n] in (Region.IN_BPRIME_ONLY, Region.IN_BOTH):
                    # lands on the axis
                    assert z_next[1] == 0.0
                    if cases[n] is Region.IN_BOTH:
                        assert cases[n + 1] is Region.IN_BOTH  # terminal
                elif z[1] >= 0:
                    # outside B' with rho >= 0: next point is in the epigraph
                    assert f(z_next[0]) <= z_next[1] + 1e-12


def test_run_epi_classifies_nothing_until_cases_is_read(monkeypatch):
    # the region tags are a derived column: no classify_region call while
    # the run steps, one per record on the first read of cases, none after
    calls = []

    def counted(f, z):
        calls.append(z)
        return classify(f, z)

    classify = epigraph.classify_region
    monkeypatch.setattr(epigraph, "classify_region", counted)
    for f, z0 in ((QUAD, (5.0, 3.0)), (ABS, (-7.0, -2.0)), (QUAD, (0.0, -0.5))):
        calls.clear()
        tr = d.run_epi(f, z0)
        assert calls == [] and "cases" not in vars(tr)
        cases = tr.cases
        assert len(calls) == len(tr.z) and len(cases) == len(tr.z)
        assert tr.cases is cases and len(calls) == len(tr.z)
        assert cases == tuple(classify(f, z) for z in tr.z)
        plain = d.run(tr.set_a, tr.set_b, d.MethodKind.DRA, z0, d.ExactFixedPoint())
        assert not hasattr(plain, "cases") and len(calls) == len(tr.z)


def _plw(x):  # piecewise-linear, minimum -1 at x = 1
    return max(-0.5 * (x - 1), 0.25 * (x - 1), x - 3) - 1.0


def _plw_sub(x):
    if x < 1:
        return -0.5
    if x == 1:
        return 0.0
    return 0.25 if x < 11 / 3 else 1.0


def test_run_epi_follows_the_closed_form_case_analysis():
    """Every step of a run is ``dr_step_epi`` exactly, and every region tag
    is the closed-form tag of the point it belongs to."""
    quartic = d.custom(lambda x: (x - 2) ** 4 - 1, lambda x: 4 * (x - 2) ** 3, 2.0)
    rng = np.random.default_rng(28)
    for f in (QUAD, ABS, d.custom(_plw, _plw_sub, 1.0), quartic):
        for z0 in rng.uniform(-20, 20, (100, 2)):
            tr = d.run_epi(f, z0)
            assert len(tr.cases) == len(tr.z) == tr.iterations + 1
            for n in range(tr.iterations):
                z_next, region = d.dr_step_epi(f, tr.z[n])
                assert np.array_equal(tr.z[n + 1], z_next)
                assert tr.cases[n] is region
            assert tr.cases[-1] is d.classify_region(f, tr.z[-1])


PINNED_FUNCTIONS = (d.quadratic(1.0, 0.0, -1.0), d.quadratic(0.5, 1.0, -3.0),
                    d.quadratic(2.0, -2.4, 0.7), d.quadratic(1e-3, 0.0, -2.0),
                    d.absshift(2.0, -1.0))


def _pinned_starts(f):
    """40 seeded starts, then the origin, its signed zeros, x = u above and
    below the graph and (1e6, -1e6)."""
    rng = np.random.default_rng(2400)
    Z = rng.uniform(-10.0, 10.0, (40, 2))
    u = f.minimizer
    extra = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (-0.0, -3.0), (3.0, -0.0),
             (u, -5.0), (u, 5.0), (1e6, -1e6)]
    return np.concatenate([Z, np.array(extra)])


def _epigraph_bit_digest():
    """(count, SHA-256) of the bits of every epigraph path on the pinned
    functions and starts: the scalar projector, ``Epigraph1D.project`` and
    ``project_rows``, one closed-form DR step with its region, ``run`` with
    every method under each kind of rule, and ``run_epi``."""
    h = hashlib.sha256()
    count = 0

    def floats(*xs):
        h.update(struct.pack(f"<{len(xs)}d", *xs))

    def trace(tr, with_shadows):
        # the shadows are hashed for the runs that once stored them: DRA,
        # a rule on the shadow and run_epi
        h.update(np.ascontiguousarray(tr.z).tobytes())
        if with_shadows:
            h.update(np.ascontiguousarray(tr.a).tobytes())
        t = tr.termination
        h.update(f"{t.reason.value} {tr.iterations} {t.exact}".encode())
        floats(math.nan if t.step_residual is None else t.step_residual)

    axis = d.Hyperplane([0.0, 1.0], 0.0)
    rules = ([d.ExactFixedPoint(), d.MaxIter(20)],
             [d.Feasibility(1e-6), d.MaxIter(20)],
             [d.Feasibility(1e-6, d.Monitor.SHADOW), d.MaxIter(20)])
    for f in PINNED_FUNCTIONS:
        epi = d.Epigraph1D(f)
        Z = _pinned_starts(f)
        h.update(epi.project_rows(Z).tobytes())
        for z in Z:
            floats(*d.project_epigraph(f, (z[0], z[1])))
            h.update(epi.project(z).tobytes())
            z_next, region = d.dr_step_epi(f, z)
            floats(*z_next)
            h.update(region.value.encode())
            for method in d.MethodKind:
                for stop in rules:
                    trace(d.run(axis, epi, method, z, stop),
                          method is d.MethodKind.DRA or stop is rules[2])
            tr = d.run_epi(f, z, max_iter=300)
            trace(tr, True)
            h.update(" ".join(c.value for c in tr.cases).encode())
            count += 1
    return count, h.hexdigest()


def test_epigraph_bits_are_pinned():
    # a change in the float arithmetic of any epigraph path moves it.  It
    # was recorded before the Newton kernel read the coefficients in local
    # floats and ``run_epi`` shared one x-axis, and re-recorded when
    # ``trace._norm`` took the row norm's order: 27 of the 3,185 step
    # residuals moved by one ulp, and no iterate, shadow, reason or count
    assert _epigraph_bit_digest() == (
        245, "7325e7dac1731bd669ccf95e7aa3e9dccda06dcf4252ee4393d2a8fd35eefa52"
    )
    # every run shares one read-only x-axis
    axis = d.run_epi(QUAD, (5.0, 3.0)).set_a
    assert d.run_epi(ABS, (7.0, -2.0)).set_a is axis
    for v in (axis.normal, axis._n):
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 1.0


def test_scalar_projections_go_through_the_module_hook(monkeypatch):
    # the benchmark's --trace 1 spans wrap ``drsplit.epigraph.project_epigraph``
    # by name; a set that called the kernel by another route would leave
    # those spans at zero without failing
    assert d.Epigraph1D is d.epigraph.Epigraph1D
    assert not hasattr(d.sets, "Epigraph1D")
    calls = []
    unwrapped = d.epigraph.project_epigraph

    def counting(f, z):
        calls.append(f)
        return unwrapped(f, z)

    monkeypatch.setattr(d.epigraph, "project_epigraph", counting)
    epi = d.Epigraph1D(QUAD)
    for k, z in enumerate([(3.0, -4.0), (0.5, 2.0), (-2.0, 0.0)], 1):
        assert epi.project(z).tolist() == list(unwrapped(QUAD, z))
        assert calls == [QUAD] * k
    axis = d.epigraph._X_AXIS
    for method in (d.MethodKind.DRA, d.MethodKind.MAP):
        on_b = []
        epi = d.Epigraph1D(ABS)
        epi._project = lambda x, _p=epi._project: on_b.append(1) or _p(x)
        calls.clear()
        tr = d.run(axis, epi, method, [5.0, 3.0], d.ExactFixedPoint())
        assert tr.iterations > 0 and len(calls) == len(on_b) >= tr.iterations
        assert calls == [ABS] * len(calls)
    # run_epi projects onto B once per step, on the one x-axis built at import
    calls.clear()
    tr = d.run_epi(QUAD, (5.0, 3.0))
    assert tr.set_a is axis and tr.iterations > 0
    assert calls == [QUAD] * tr.iterations


@pytest.mark.parametrize("n", [1, 7, 21])
def test_only_the_quadratic_has_a_row_kernel(monkeypatch, n):
    # the swept quadratic projects a stack in one vectorised pass; an
    # absshift stack goes row by row through the scalar projector, so its
    # rows have the one closed form's bits by construction
    calls = []
    unwrapped = d.epigraph.project_epigraph

    def counting(f, z):
        calls.append(f)
        return unwrapped(f, z)

    monkeypatch.setattr(d.epigraph, "project_epigraph", counting)
    X = np.random.default_rng(34).uniform(-5, 5, (n, 2))
    for f, per_row in ((ABS, 1), (QUAD, 0)):
        calls.clear()
        rows = d.Epigraph1D(f).project_rows(X)
        assert calls == [f] * (per_row * n)
        for x, row in zip(X, rows):
            assert row.tolist() == list(unwrapped(f, x))


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_quadratic_stack_refuses_a_non_finite_point_as_the_scalar_path_does(bad, k):
    # project_rows checks its stack before the kernel does; the kernel's
    # own check is the one that a caller of _project_rows, as run_rows is,
    # meets
    X = np.array([[0.5, -2.0], [1.0, 1.0], [-3.0, 0.0]])
    X[1, k] = bad
    message = "epigraph points must have finite coordinates"
    with pytest.raises(ValueError, match=message):
        d.project_epigraph(QUAD, X[1].tolist())
    with pytest.raises(ValueError, match=message):
        d.Epigraph1D(QUAD)._project_rows(X)


def test_consecutive_run_epi_calls_share_one_epigraph():
    # as every run shares the x-axis, runs on one f share its epigraph, and
    # only the last function's is kept
    first = d.run_epi(QUAD, (5.0, 3.0))
    second = d.run_epi(QUAD, (-4.0, 1.0))
    assert second.set_b is first.set_b and first.set_b.f is QUAD
    kept = weakref.ref(first.set_b)
    del first, second
    other = d.run_epi(ABS, (7.0, -2.0))
    assert other.set_b.f is ABS
    gc.collect()
    assert kept() is None


@pytest.mark.parametrize(
    "eta, max_iter", [(float("nan"), 100), (-1.0, 100), (1e-14, 0)]
)
def test_run_epi_rejects_bad_stopping_parameters(eta, max_iter):
    with pytest.raises(ValueError):
        d.run_epi(QUAD, (5.0, 3.0), eta, max_iter)


# ---------------------------------------------------------------------------
# witnesses


def test_absshift_witness_is_exact():
    step, fix = d.luque_witness(WitnessFamily.ABS_SHIFT, 0.25)
    assert abs(step - 0.25) <= 1e-12
    assert abs(fix - 0.25) <= 1e-12


def test_quadratic_witness_against_oracle():
    eps = 0.1
    x_eps = cubic_root_oracle(eps)
    rho_plus = -eps + QUAD(x_eps)
    step, fix = d.luque_witness(WitnessFamily.QUADRATIC, eps)
    assert abs(step - math.hypot(1 + eps - x_eps, QUAD(x_eps))) <= 1e-12
    assert abs(fix - math.hypot(x_eps - 1.0, rho_plus)) <= 1e-12
    assert rho_plus > 0 and fix > 0


@pytest.mark.parametrize("family", list(WitnessFamily))
def test_witness_residual_shrinks_but_never_fixes(family):
    eps_values = [0.1, 0.01, 0.001]
    steps, fixes = [], []
    for eps in eps_values:
        step, fix = d.luque_witness(family, eps)
        steps.append(step)
        fixes.append(fix)
    assert steps[0] > steps[1] > steps[2] > 0
    assert all(f > 0 for f in fixes)


def test_witness_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        d.luque_witness(WitnessFamily.QUADRATIC, 0.0)


def test_witness_rejects_an_unknown_family():
    with pytest.raises(ValueError, match="^unknown witness family 'bogus'$"):
        d.luque_witness("bogus", 0.1)
