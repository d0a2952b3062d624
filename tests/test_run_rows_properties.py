"""Property test for ``run_rows`` against ``run``, one row at a time.

Finished rows step on in the batch, untested, until enough of them leave
together.  Random batches check that this changes no output column: mixes
of the four methods under random plans (an ExactFixedPoint rule or none, a
Feasibility rule on either monitor or none, a cap from 1 to 60), record
indices that fall past some caps, and 20 to 60 starts, on four affine
problems of the paper's kind.  Each row must end as ``run`` from its start
under its plan, and its ``d_b_at`` and ``first_n`` must be those of one
``run`` to its cap alone.
"""

import itertools

import numpy as np
import pytest

import drsplit as d
from drsplit.methods import FIRST_N_TOLS, NOT_REACHED
from drsplit.sets import _norms
from drsplit.trace import normalize_rules

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

# seeded runs, and no example database written into the checkout
SETTINGS = settings(max_examples=16, deadline=None, derandomize=True, database=None)

PROBLEMS = [
    (d.Affine([[1.0, 5.0]], [6.0]), d.Orthant(2)),
    (d.Hyperplane([1.0, 5.0], 6.0), d.Ball([1.0, 1.0], 2.0)),
    (d.Hyperplane([0.0, 1.0], 0.0), d.Epigraph1D(d.quadratic(1.0, 0.0, -1.0))),
    (d.Affine([[1.0, 2.0, -1.0]], [1.0]), d.Box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])),
]
SHADOW_METHODS = (d.MethodKind.DRA, d.MethodKind.SPINGARN)


@st.composite
def plans(draw):
    methods = draw(st.lists(st.sampled_from(list(d.MethodKind)), min_size=1, max_size=4,
                            unique=True))
    out = {}
    for method in methods:
        rules = [d.MaxIter(draw(st.integers(1, 60)))]
        if draw(st.booleans()):
            rules.append(d.ExactFixedPoint(draw(st.sampled_from([1e-14, 1e-10, 1e-6]))))
        if draw(st.booleans()):
            rules.append(d.Feasibility(draw(st.sampled_from([1e-8, 1e-4, 1e-1])),
                                       draw(st.sampled_from(list(d.Monitor)))))
        out[method] = rules
    return out


@st.composite
def batches(draw):
    set_a, set_b = draw(st.sampled_from(PROBLEMS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 10.0, 100.0]))
    Z = rng.uniform(-scale, scale, (draw(st.integers(20, 60)), set_a.dim))
    record_at = draw(st.lists(st.integers(0, 80), max_size=4))
    return set_a, set_b, draw(plans()), Z, record_at


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def _monitored(set_a, set_b, method, z0, cap):
    """d_B of the method's point (P_A z_n for DRA and SPINGARN, else z_n)
    at n = 0, ..., cap, from one run to the cap alone."""
    tr = d.run(set_a, set_b, method, z0, d.MaxIter(cap))
    if method not in SHADOW_METHODS:
        return tr.d_b
    return _norms(tr.a - set_b.project_rows(tr.a))


@SETTINGS
@given(batches())
# the MRP rows stop early and finish a few at a time, so some still wait in
# the batch at their cap of 9; the DRA rows step on to 46, past records at
# 40 and 53 that must not fall on the MRP rows
@example((*PROBLEMS[2],
          {d.MethodKind.DRA: d.MaxIter(46),
           d.MethodKind.MRP: [d.MaxIter(9), d.Feasibility(1e-8, d.Monitor.SHADOW)]},
          np.random.default_rng(0).uniform(-10.0, 10.0, (20, 2)), [40, 53]))
def test_run_rows_columns_are_those_of_run(case):
    set_a, set_b, plans, Z, record_at = case
    res = d.run_rows(set_a, set_b, plans, Z, record_at)
    for i, (z0, method) in enumerate(itertools.product(Z, plans)):
        tr = d.run(set_a, set_b, method, z0, plans[method])
        t = tr.termination
        got = (res["iterations"][i], res["reason"][i], res["exact"][i])
        assert got == (tr.iterations, t.reason, t.exact), (z0, method)
        assert _bits(res["final"][i]) == _bits(tr.final_point), (z0, method)
        cap = normalize_rules(plans[method])[2]
        dist = _monitored(set_a, set_b, method, z0, cap)
        d_b_at = [dist[m] if m <= cap else np.nan for m in record_at]
        first_n = [next((n for n, v in enumerate(dist) if v < tol), NOT_REACHED)
                   for tol in FIRST_N_TOLS]
        assert _bits(res["d_b_at"][i]) == _bits(d_b_at), (z0, method)
        assert res["first_n"][i].tolist() == first_n, (z0, method)
