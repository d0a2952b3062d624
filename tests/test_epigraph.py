import math
from fractions import Fraction

import numpy as np
import pytest

import drsplit as d
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


def test_invalid_subgradient_selection_raises():
    bad = d.custom(lambda x: x * x - 1, lambda x: 2 * x + 5, 0.0)
    with pytest.raises(d.NoConvergenceError):
        d.project_epigraph(bad, (3.0, -2.0))


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
