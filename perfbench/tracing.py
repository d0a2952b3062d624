"""Spans and counts around the calls a sweep makes into each drsplit module.

The program itself is not changed: ``instrument`` swaps the module-level
names ``cli`` calls through (``run``, ``lift``, the step functions), the
epigraph projector, the trace constructor, and the ``project``/``distance``/
``reflect`` methods of the two set instances, for wrappers that record a
span and restores them on exit.  Spans stay in memory until ``write``.

A span's layer is the first dotted part of its name.  Its self time is its
duration minus the durations of its direct children, so the self times of
all spans under one root add up to the root's duration exactly.  Time the
benchmark's clock spent calibrating inside a span (``exclude``) is not part
of its duration.
"""

from __future__ import annotations

import contextlib
import gzip
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

import drsplit.epigraph as epigraph_mod
import drsplit.methods as methods_mod
from drsplit import cli

STEP_NAMES = ("dra_step", "map_step", "mrp_step")
SET_METHODS = ("project", "distance", "reflect")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index, start ns, end ns]
        self._stack = [-1]
        self.counts = Counter()
        self.run_spans = defaultdict(list)  # per method: its run spans
        self.iterations = Counter()
        self.records = 0
        self.stored_bytes = 0
        self._excluded = None

    @contextlib.contextmanager
    def span(self, name):
        i = len(self.spans)
        self.spans.append([name, self._stack[-1], perf_counter_ns(), 0])
        self._stack.append(i)
        try:
            yield i
        finally:
            self._stack.pop()
            self.spans[i][3] = perf_counter_ns()

    def wrap(self, fn, name, count=None):
        def traced(*args, **kwargs):
            if count is not None:
                self.counts[count] += 1
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _wrap_run(self, run):
        def traced_run(set_a, set_b, method, z0, stop=None, **kwargs):
            with self.span(f"methods.run.{method.value}") as i:
                trace = run(set_a, set_b, method, z0, stop, **kwargs)
            self.run_spans[method.value].append(i)
            self.iterations[method.value] += trace.iterations
            self.records += len(trace)
            self.stored_bytes += stored_bytes(trace)
            return trace
        return traced_run

    def instrument_sets(self, stack, set_a, set_b):
        for label, s in (("A", set_a), ("B", set_b)):
            for attr in SET_METHODS:
                stack.callback(s.__dict__.pop, attr, None)
                setattr(s, attr, self.wrap(getattr(s, attr), f"sets.project.{label}",
                                           count=f"project_calls.{label}"))

    def _wrap_lift(self, lift, stack):
        def traced_lift(sets):
            with self.span("lifting.lift"):
                lp = lift(sets)
            self.instrument_sets(stack, lp.set_a, lp.set_b)
            return lp
        return traced_lift

    @contextlib.contextmanager
    def instrument(self):
        """Swap in the wrappers for the duration of the block."""
        with contextlib.ExitStack() as stack:
            def patch(module, attr, new):
                stack.callback(setattr, module, attr, getattr(module, attr))
                setattr(module, attr, new)

            patch(cli, "run", self._wrap_run(cli.run))
            patch(cli, "lift", self._wrap_lift(cli.lift, stack))
            for name in STEP_NAMES:
                patch(cli, name, self.wrap(getattr(cli, name), "methods.extension_step",
                                           count="extension_steps"))
            patch(epigraph_mod, "project_epigraph",
                  self.wrap(epigraph_mod.project_epigraph, "epigraph.project_epigraph"))
            patch(methods_mod, "IterationTrace",
                  self.wrap(methods_mod.IterationTrace, "trace.IterationTrace"))
            yield stack

    def exclude(self, intervals) -> None:
        """Take the parts of ``intervals`` (start, end ns) that fall inside
        each span out of that span's duration."""
        starts = np.array([span[2] for span in self.spans], dtype=np.int64)
        ends = np.array([span[3] for span in self.spans], dtype=np.int64)
        excluded = np.zeros(len(self.spans), dtype=np.int64)
        for a, b in intervals:
            excluded += np.maximum(np.minimum(ends, b) - np.maximum(starts, a), 0)
        self._excluded = excluded.tolist()

    def duration_ns(self, i: int) -> int:
        _, _, start, end = self.spans[i]
        return end - start - (self._excluded[i] if self._excluded else 0)

    def run_ns(self, method: str) -> int:
        """Time inside ``run`` calls for one method."""
        return sum(self.duration_ns(i) for i in self.run_spans[method])

    def self_ns(self, root: int) -> dict:
        """Self time per layer, in ns, over the spans under ``root``."""
        child = defaultdict(int)
        for i in range(root + 1, len(self.spans)):
            child[self.spans[i][1]] += self.duration_ns(i)
        layers = Counter()
        for i in range(root, len(self.spans)):
            layers[self.spans[i][0].split(".")[0]] += self.duration_ns(i) - child[i]
        return layers

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start},{end}\n")


def stored_bytes(trace) -> int:
    """Bytes of the per-iterate data an IterationTrace holds, computed from
    array sizes: the four vector sequences plus 8 bytes per stored scalar
    (two distances and the step index)."""
    vectors = sum(v.nbytes for seq in (trace.z, trace.a, trace.r, trace.pbr) for v in seq)
    return vectors + 8 * 3 * len(trace)
