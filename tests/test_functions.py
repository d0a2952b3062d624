import dataclasses
import math
import re

import numpy as np
import pytest

import drsplit as d


def _check_convexity(
    f: d.ConvexFunction1D,
    lo: float = -10.0,
    hi: float = 10.0,
    cases: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> None:
    """Randomized convexity and subgradient-inequality spot check.

    Raises ValueError on the first violated triple/pair.  The reference
    oracle for the builtins and for hand-built functions: ``custom`` itself
    verifies nothing.
    """
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        x, y, z = np.sort(rng.uniform(lo, hi, size=3))
        if x == z:
            continue
        chord = ((z - y) * f(x) + (y - x) * f(z)) / (z - x)
        if f(y) > chord + tol:
            raise ValueError(f"convexity violated at ({x}, {y}, {z})")
        a, b = rng.uniform(lo, hi, size=2)
        if f(b) < f(a) + f.subgrad(a) * (b - a) - tol:
            raise ValueError(f"subgradient inequality violated at ({a}, {b})")


def test_quadratic_basics():
    f = d.quadratic(1, 0, -1)
    assert f(2.0) == 3.0
    assert f.subgrad(2.0) == 4.0
    assert f.minimizer == 0.0
    assert f.inf_value == -1.0
    assert f.spec_name() == "quadratic(1,0,-1)"


def test_quadratic_with_linear_term():
    f = d.quadratic(2, -4, 1)
    assert f.minimizer == 1.0
    assert f.inf_value == f(1.0) == -1.0
    assert f.subgrad(f.minimizer) == 0.0


def test_quadratic_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        d.quadratic(-1, 0, 0)
    with pytest.raises(ValueError):
        d.quadratic(0, 1, 0)
    # constant function is fine
    f = d.quadratic(0, 0, 3)
    assert f(17.0) == 3.0 and f.inf_value == 3.0


def test_absshift_basics():
    f = d.absshift(1, -1)
    assert f(-2.0) == 1.0
    assert f.subgrad(-2.0) == -1.0
    assert f.subgrad(0.0) == 0.0
    assert f.minimizer == 0.0 and f.inf_value == -1.0
    with pytest.raises(ValueError):
        d.absshift(0, 1)


def test_custom_wraps_callables():
    f = d.custom(lambda x: abs(x) ** 3, lambda x: 3 * x * abs(x), 0.0)
    assert f(2.0) == 8.0
    assert f.inf_value == 0.0
    with pytest.raises(ValueError):
        f.spec_name()


def test_function_from_name_roundtrip():
    # a parameter that six significant digits do not hold reads back whole
    for text in ("quadratic(1,0,-1)", "absshift(2,-0.5)", "quadratic(0.5, 1, 2)",
                 "quadratic(0.1234567,0,-1.0000001)", "quadratic(0.3333333333333333,0,-1)",
                 "absshift(123456789,-0.1)"):
        f = d.function_from_name(text)
        assert d.function_from_name(f.spec_name()).params == f.params


@pytest.mark.parametrize("bad, message", [pytest.param(bad, message, id=bad) for bad, message in [
    ("quadratic", "cannot parse function descriptor 'quadratic'"),
    ("quadratic(1,2)", "quadratic takes exactly 3 arguments"),
    ("quadratic()", "quadratic takes exactly 3 arguments"),
    ("absshift(1,2,3)", "absshift takes exactly 2 arguments"),
    ("cubic(1,2,3)", "unknown function 'cubic'"),
    # a kind with no problem-file name is no builtin
    ("custom(1)", "unknown function 'custom'"),
    # the arguments are read before the name
    ("quadratic(a,b,c)", "bad numeric argument in 'quadratic(a,b,c)'"),
    ("cubic(a)", "bad numeric argument in 'cubic(a)'"),
]])
def test_function_from_name_rejects(bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        d.function_from_name(bad)


@pytest.mark.parametrize(
    "f",
    [
        d.quadratic(1, 0, -1),
        d.quadratic(3, -2, 0.5),
        d.absshift(1, -1),
        d.absshift(0.25, 2),
        d.custom(lambda x: abs(x) ** 3, lambda x: 3 * x * abs(x), 0.0),
    ],
)
def test_convexity_spot_check(f):
    _check_convexity(f, cases=1000, seed=11)
    assert f.inf_value == f(f.minimizer)


def test_convexity_check_catches_nonconvex():
    g = d.ConvexFunction1D(fn=math.sin, subgrad=math.cos, minimizer=0.0)
    with pytest.raises(ValueError):
        _check_convexity(g, cases=1000, seed=3)


def test_convexity_check_catches_a_wrong_subgradient():
    # abs is convex, so the chord test passes; the selection +-2 is no
    # subgradient of it away from 0
    g = d.ConvexFunction1D(fn=abs, subgrad=lambda x: math.copysign(2.0, x), minimizer=0.0)
    with pytest.raises(ValueError, match="subgradient inequality violated"):
        _check_convexity(g, cases=1000, seed=3)


def test_inf_value_is_f_at_its_minimizer():
    # inf_value is no field that a hand-built function can contradict:
    # run_epi checks Slater's condition inf f < 0 on f itself
    assert "inf_value" not in {f.name for f in dataclasses.fields(d.ConvexFunction1D)}
    above = d.ConvexFunction1D(fn=lambda x: x * x + 1.0, subgrad=lambda x: 2.0 * x,
                               minimizer=0.0)
    assert above.inf_value == 1.0
    with pytest.raises(d.PreconditionViolatedError, match="requires inf f < 0"):
        d.run_epi(above, (3.0, 4.0))
    below = d.ConvexFunction1D(fn=lambda x: x * x - 1.0, subgrad=lambda x: 2.0 * x,
                               minimizer=0.0)
    assert d.run_epi(below, (3.0, 4.0)).termination.reason is d.Reason.EXACT_FIXED_POINT
    # kind and params are keyword-only: a fourth positional argument binds
    # to nothing
    with pytest.raises(TypeError):
        d.ConvexFunction1D(abs, lambda x: 0.0, 0.0, -1.0)
