"""Per-call microbenchmarks of the sets, epigraph, methods and lifting layers.

Every benchmark loops over a batch of seeded inputs, repeats the batch
until its time slice is spent, and reports the median over batches of the
time per call, scaled by the run's clock (see clock.py).
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter, perf_counter_ns

import numpy as np

import drsplit as d

BATCH = 64
MIN_BATCHES = 5

LINE_L = [[1.0, 5.0]]
LINE_A = [6.0]
DESK_POLYGON = [(2.0, -2.0), (2.0, 10.0), (-10.0, 10.0)]


def descriptor_zoo():
    """One instance of every descriptor class (the property-suite zoo)."""
    return [
        ("affine", d.Affine(LINE_L, LINE_A)),
        ("affine3", d.Affine([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]], [1.0, 2.0])),
        ("hyperplane", d.Hyperplane([1.0, 5.0], 6.0)),
        ("hyperplane0", d.Hyperplane([0.0, 1.0, 0.0], 0.0)),
        ("halfspace", d.Halfspace([1.0, 1.0], 2.0)),
        ("box", d.Box([-1.0, 0.0, -3.0], [2.0, 0.5, 4.0])),
        ("orthant", d.Orthant(4)),
        ("ball", d.Ball([1.0, -2.0], 3.0)),
        ("polygon", d.Polygon2D(DESK_POLYGON)),
        ("epi_quad", d.Epigraph1D(d.quadratic(1.0, 0.0, -1.0))),
        ("epi_abs", d.Epigraph1D(d.absshift(1.0, -1.0))),
        ("diagonal", d.Diagonal(3, 2)),
        ("product", d.Product([d.Halfspace([1.0], 2.0), d.Box([-1.0], [1.0]), d.Orthant(2)])),
        ("shifted", d.Shifted(d.Orthant(2), [1.5, -0.5])),
    ]


# f(x) = x^4/4 - 1 has no builtin kind, so its projection bisects
QUARTIC = d.custom(lambda x: 0.25 * x ** 4 - 1.0, lambda x: x ** 3, 0.0)
EPI_FUNCTIONS = {
    "quadratic": d.quadratic(1.0, 0.0, -1.0),
    "absshift": d.absshift(1.0, -1.0),
    "custom": QUARTIC,
}


def per_call_us(fn, inputs, seconds):
    """Median µs per ``fn(*args)`` over batches of ``inputs``; also returns
    the batch count."""
    samples = []
    deadline = perf_counter() + seconds
    while len(samples) < MIN_BATCHES or perf_counter() < deadline:
        t0 = perf_counter_ns()
        for args in inputs:
            fn(*args)
        samples.append((perf_counter_ns() - t0) / 1e3 / len(inputs))
    return statistics.median(samples), len(samples)


def _points(rng, s, radius=8.0):
    """Half the batch inside the set, half drawn from the box around it."""
    outside = rng.uniform(-radius, radius, (BATCH, s.dim))
    return [s.project(p) if i % 2 else p for i, p in enumerate(outside)]


def _epi_points(rng, f, lo, hi):
    """Points below the graph, so the projection does real work."""
    xs = rng.uniform(lo, hi, BATCH)
    return [(float(x), f(float(x)) - float(rng.uniform(0.5, 3.0))) for x in xs]


def _spingarn_pair():
    """The line/orthant pair translated so the line passes through 0, as
    ``run`` does before Spingarn's method."""
    line = d.Affine(LINE_L, LINE_A)
    shift = line.project(np.zeros(2))
    return d.Affine(LINE_L, [0.0]), d.Shifted(d.Orthant(2), shift)


def run_all(rng, seconds, clock, lifted_sets, eta, max_iter):
    """Every microbenchmark; returns {metric name: (value, samples)}.

    ``seconds`` is shared evenly among the benchmarks.
    """
    zoo = descriptor_zoo()
    jobs = []
    for name, s in zoo:
        jobs.append((f"sets.project_us.{name}", s.project, [(p,) for p in _points(rng, s)]))
    jobs.append(("sets.as_vector_us", d.as_vector,
                 [(p, 2) for p in rng.uniform(-100, 100, (BATCH, 2))]))
    for name, f in EPI_FUNCTIONS.items():
        lo, hi = (-3.0, 3.0) if name == "custom" else (-10.0, 10.0)
        jobs.append((f"epigraph.project_us.{name}", d.project_epigraph,
                     [(f, z) for z in _epi_points(rng, f, lo, hi)]))
    quad = EPI_FUNCTIONS["quadratic"]
    jobs.append(("epigraph.dr_step_epi_us", d.dr_step_epi,
                 [(quad, (x, float(r))) for x, r in
                  zip(rng.uniform(-10, 10, BATCH), rng.uniform(-10, 10, BATCH))]))

    line, orthant = d.Affine(LINE_L, LINE_A), d.Orthant(2)
    starts = rng.uniform(-100, 100, (BATCH, 2))
    for kind, step in (("DRA", d.dra_step), ("MAP", d.map_step), ("MRP", d.mrp_step)):
        jobs.append((f"methods.step_us.{kind}", step, [(line, orthant, z) for z in starts]))
    lin, shifted = _spingarn_pair()
    states = []
    for z in starts:
        w = z - shifted.shift
        a = lin.project(w)
        states.append((lin, shifted, d.SpingarnState(a=a, b=a - w)))
    jobs.append(("methods.step_us.SPINGARN", d.spingarn_step, states))

    share = seconds / (len(jobs) + 1)
    results = {}
    for name, fn, inputs in jobs:
        value, samples = per_call_us(fn, inputs, share)
        results[name] = (value * clock.scale(), samples)
    value, samples = _solve_lifted_ms(rng, lifted_sets, eta, max_iter, share)
    results["lifting.solve_lifted_ms_p50"] = (value * clock.scale(), samples)
    return results


def _solve_lifted_ms(rng, sets, eta, max_iter, seconds):
    """Median ms per DRA ``solve_lifted`` call on the lifted workload's sets,
    from seeded starts in [-10, 10]^2."""
    lp = d.lift(sets)
    rules = [d.ExactFixedPoint(eta), d.MaxIter(max_iter)]
    starts = rng.uniform(-10, 10, (16, 2))
    samples = []
    deadline = perf_counter() + seconds
    while len(samples) < len(starts) or perf_counter() < deadline:
        x0 = starts[len(samples) % len(starts)]
        t0 = perf_counter_ns()
        x, trace = d.solve_lifted(lp, d.MethodKind.DRA, x0, rules)
        samples.append((perf_counter_ns() - t0) / 1e6)
        if trace.termination.reason is not d.Reason.EXACT_FIXED_POINT or not all(
            math.isfinite(v) for v in x
        ):
            raise RuntimeError(f"solve_lifted from {x0} did not reach a fixed point")
    return statistics.median(samples), len(samples)
