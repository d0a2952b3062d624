"""DRA in rational arithmetic: on the line x + 5y = c, or {Lx = b} in R^n,
against the orthant, with integer starts, both projectors are rational
maps, so finite convergence under Slater's condition is checked as the
theorem states it, z_{n+1} == z_n with no tolerance, and the float runs are
held to it."""

import random
from fractions import Fraction

import numpy as np

import drsplit as d
from conftest import LINE_L, affine_line_oracle, affine_oracle, dra_line_orthant_oracle

# the 11x11 integer grid on [-100, 100]^2
GRID = [(Fraction(x), Fraction(y)) for x in range(-100, 101, 20) for y in range(-100, 101, 20)]

# measured on GRID for x + 5y = 6: fixed after 1-113 steps, with at most
# 42 digits (numerator and denominator together) in any coordinate
MAX_STEPS, MAX_DIGITS = 113, 42


def _digits(z):
    return max(len(str(abs(v.numerator))) + len(str(v.denominator)) for v in z)


def _fixed_index(z0, c):
    """The first n with z_{n+1} == z_n, the fixed point z_n, and the most
    digits of any iterate on the way."""
    z, digits = z0, _digits(z0)
    for n in range(MAX_STEPS + 1):
        z_next = dra_line_orthant_oracle(z, c)
        digits = max(digits, _digits(z_next))
        if z_next == z:
            return n, z, digits
        z = z_next
    raise AssertionError(f"no exact fixed point within {MAX_STEPS} steps from {z0}")


def test_rational_dra_reaches_an_exact_fixed_point_under_slater():
    # x + 5y = 6 meets the open orthant (Slater), and DRA stops moving
    # exactly, not to within eta, after finitely many steps
    found = [_fixed_index(z0, 6) for z0 in GRID]
    assert 1 <= min(n for n, _, _ in found)
    assert max(digits for _, _, digits in found) <= MAX_DIGITS
    for _, z, _ in found:
        a = affine_line_oracle(z)
        assert a[0] + 5 * a[1] == 6 and min(a) >= 0


def test_float_run_stops_one_or_two_steps_after_the_rational_fixed_index():
    set_a, set_b = d.Affine(LINE_L, [6.0]), d.Orthant(2)
    for z0 in GRID:
        n, z, _ = _fixed_index(z0, 6)
        tr = d.run(set_a, set_b, d.MethodKind.DRA, [float(v) for v in z0],
                   d.ExactFixedPoint(1e-14))
        assert tr.termination.reason is d.Reason.EXACT_FIXED_POINT
        assert tr.iterations - n in (1, 2), z0
        shadow = np.array([float(v) for v in affine_line_oracle(z)])
        assert np.linalg.norm(tr.a[-1] - shadow) <= 1e-14 * (1 + np.linalg.norm(tr.z[-1]))


def test_rational_dra_on_the_infeasible_line_steps_by_the_gap_vector():
    # x + 5y = -6 misses the orthant: from step 0-9 on, every step is
    # exactly v = P_B 0 - P_A 0 = (3/13, 15/13), the gap between the sets
    v = (Fraction(3, 13), Fraction(15, 13))
    for z0 in GRID:
        steps, z = [], z0
        for _ in range(30):
            z_next = dra_line_orthant_oracle(z, -6)
            steps.append(tuple(b - a for a, b in zip(z, z_next)))
            z = z_next
        k = steps.index(v)
        assert k <= 9 and all(s == v for s in steps[k:]), z0


def _affine_orthant_draw(rng, m, n):
    """Integer L in [-5, 5]^{m x n} of full row rank, b = L xbar for a
    Slater point xbar in {1/8, ..., 1}^n (so the float b is exact), and an
    integer start in [-10, 10]^n."""
    while True:
        L = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        try:
            affine_oracle(L, [0] * m, [0] * n)
            break
        except ValueError:
            continue
    xbar = [Fraction(rng.randint(1, 8), 8) for _ in range(n)]
    b = [sum(l * x for l, x in zip(row, xbar)) for row in L]
    return L, b, [Fraction(rng.randint(-10, 10)) for _ in range(n)]


def test_rational_dra_in_rn_reaches_an_exact_fixed_point_under_slater():
    # five draws each at 3x7 and 5x12: the rational run stops moving exactly
    # (measured after 1-12 and 5-11 steps), its shadow solves L a = b and
    # a >= 0 with no tolerance, and the float run stops 1 or 2 steps later,
    # on a shadow within 1e-14 (1 + ||z||) of the rational one
    rng = random.Random(22)
    for m, n in [(3, 7)] * 5 + [(5, 12)] * 5:
        L, b, z0 = _affine_orthant_draw(rng, m, n)
        z = tuple(z0)
        for fixed in range(MAX_STEPS + 1):
            a = affine_oracle(L, b, z)
            z_next = tuple(zk - ak + max(2 * ak - zk, 0) for zk, ak in zip(z, a))
            if z_next == z:
                break
            z = z_next
        else:
            raise AssertionError(f"no exact fixed point within {MAX_STEPS} steps from {z0}")
        assert all(sum(l * x for l, x in zip(row, a)) == bi for row, bi in zip(L, b))
        assert min(a) >= 0
        tr = d.run(d.Affine(np.array(L, float), [float(v) for v in b]), d.Orthant(n),
                   d.MethodKind.DRA, [float(v) for v in z0], d.ExactFixedPoint(1e-14))
        assert tr.termination.reason is d.Reason.EXACT_FIXED_POINT
        assert tr.iterations - fixed in (1, 2), (m, n, z0)
        shadow = np.array([float(v) for v in a])
        assert np.linalg.norm(tr.a[-1] - shadow) <= 1e-14 * (1 + np.linalg.norm(tr.z[-1]))
