"""Scalar convex functions with an explicit subgradient selection.

These are the generators of the 1-D epigraph sets: each function knows how
to evaluate itself, how to pick one element of its subdifferential, and
where its minimum is attained.  The builtins (``quadratic``, ``absshift``)
carry their parameters so downstream code can use closed-form shortcuts.
"""

from __future__ import annotations

import math
import re
from dataclasses import KW_ONLY, dataclass, field
from enum import Enum
from typing import Callable

import numpy as np


class FunctionKind(Enum):
    QUADRATIC = "quadratic"
    ABS_SHIFT = "absshift"
    CUSTOM = "custom"


@dataclass(frozen=True)
class ConvexFunction1D:
    """A convex, continuous function on the real line.

    ``subgrad`` must return one element of the subdifferential at every
    point, with ``subgrad(minimizer) == 0``.  ``inf_value`` is
    ``fn(minimizer)``, evaluated on each read, so it cannot disagree with
    the function.
    """

    fn: Callable[[float], float]
    subgrad: Callable[[float], float]
    minimizer: float
    _: KW_ONLY
    kind: FunctionKind = FunctionKind.CUSTOM
    params: tuple = field(default=())

    def __call__(self, x: float) -> float:
        return self.fn(x)

    @property
    def inf_value(self) -> float:
        return float(self.fn(self.minimizer))

    def spec_name(self) -> str:
        """Problem-file name of a builtin, e.g. ``quadratic(1,0,-1)``: each
        parameter in ``g`` format where that reads back whole, else its repr."""
        if self.kind is FunctionKind.CUSTOM:
            raise ValueError("custom functions have no problem-file name")
        texts = (format(p, "g") for p in self.params)
        args = ",".join(t if float(t) == p else repr(p) for t, p in zip(texts, self.params))
        return f"{self.kind.value}({args})"


def quadratic(q2: float, q1: float, q0: float) -> ConvexFunction1D:
    """Build f(x) = q2*x^2 + q1*x + q0 with q2 >= 0.

    q2 == 0 is accepted only together with q1 == 0 (a constant function),
    since otherwise the function has no minimizer.
    """
    q2, q1, q0 = float(q2), float(q1), float(q0)
    if not all(map(math.isfinite, (q2, q1, q0))):
        raise ValueError("quadratic parameters must be finite")
    if q2 < 0:
        raise ValueError("quadratic requires q2 >= 0")
    if q2 == 0 and q1 != 0:
        raise ValueError("quadratic with q2 == 0 must have q1 == 0")
    u = -q1 / (2.0 * q2) if q2 > 0 else 0.0
    return ConvexFunction1D(
        fn=lambda x: (q2 * x + q1) * x + q0,
        subgrad=lambda x: 2.0 * q2 * x + q1,
        minimizer=u,
        kind=FunctionKind.QUADRATIC,
        params=(q2, q1, q0),
    )


def absshift(alpha: float, beta: float) -> ConvexFunction1D:
    """Build f(x) = alpha*|x| + beta with alpha > 0.

    The subgradient selection at the kink x = 0 is 0, which is valid
    because 0 minimizes f.
    """
    alpha, beta = float(alpha), float(beta)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError("absshift parameters must be finite")
    if alpha <= 0:
        raise ValueError("absshift requires alpha > 0")
    return ConvexFunction1D(
        fn=lambda x: alpha * abs(x) + beta,
        subgrad=lambda x: alpha if x > 0 else (-alpha if x < 0 else 0.0),
        minimizer=0.0,
        kind=FunctionKind.ABS_SHIFT,
        params=(alpha, beta),
    )


def custom(
    fn: Callable[[float], float],
    subgrad: Callable[[float], float],
    minimizer: float,
) -> ConvexFunction1D:
    """Wrap a user-supplied convex function.

    Convexity is not verified here; see :func:`check_convexity` for a
    randomized spot check.
    """
    return ConvexFunction1D(fn=fn, subgrad=subgrad, minimizer=float(minimizer))


_CALL_RE = re.compile(r"^\s*([a-z_]+)\s*\(([^)]*)\)\s*$")
_BUILTINS = {FunctionKind.QUADRATIC: (quadratic, 3), FunctionKind.ABS_SHIFT: (absshift, 2)}


def function_from_name(text: str) -> ConvexFunction1D:
    """Parse a builtin from its problem-file name.

    Accepted forms: ``quadratic(q2,q1,q0)`` and ``absshift(alpha,beta)``.
    """
    m = _CALL_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse function descriptor {text!r}")
    name, raw_args = m.group(1), m.group(2)
    try:
        args = [float(a) for a in raw_args.split(",")] if raw_args.strip() else []
    except ValueError as e:
        raise ValueError(f"bad numeric argument in {text!r}") from e
    try:
        build, arity = _BUILTINS[FunctionKind(name)]
    except (ValueError, KeyError):
        raise ValueError(f"unknown function {name!r}") from None
    if len(args) != arity:
        raise ValueError(f"{name} takes exactly {arity} arguments")
    return build(*args)


def check_convexity(
    f: ConvexFunction1D,
    lo: float = -10.0,
    hi: float = 10.0,
    cases: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> None:
    """Randomized convexity and subgradient-inequality spot check.

    Raises ValueError on the first violated triple/pair.  Intended for
    validating ``custom`` inputs and for test suites.
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
