"""The three benchmark workloads: sweep problem, solve list and checks.

Each workload is a problem file plus two derived inputs:

* the sweep problem, run through ``parse_problem``, ``cli.sweep`` and
  ``emit_csv`` as a user running an experiment file would.  It is the same
  at every seed, so its CSV is checked against the committed reference;
* the solve list, one library call per (start, method), timed one by one.
  The seed moves every start by its own random offset (at most ``JITTER``
  of the grid spacing) and shuffles the order; ``DEFAULT_SEED`` leaves the
  starts on the grid, in grid order.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import drsplit as d
from drsplit import cli

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
JITTER = 0.25
# float columns of a sweep row may differ from the reference by this much
# (relative, plus the same absolute floor); every other column must match
FLOAT_RTOL = 1e-9
EXACT_COLUMNS = ("method", "iterations", "exact", "first_n_tol_1e2",
                 "first_n_tol_1e4", "reason")


@dataclass(frozen=True)
class WorkloadDef:
    problem: str        # path relative to the checkout root
    sweep_steps: int    # grid steps of the swept problem
    solve_steps: int    # grid steps of the solve list
    run_epi: bool       # also solve with run_epi from every start


WORKLOADS = {
    # the shipped 41x41 reference problem; every fourth grid line keeps the
    # sweep inside the run length and its starts on the reference grid
    "line_orthant": WorkloadDef("src/drsplit/problems/line_orthant.json", 11, 21, False),
    "epigraph": WorkloadDef("perfbench/problems/epigraph.json", 21, 21, True),
    "lifted": WorkloadDef("perfbench/problems/lifted.json", 21, 21, False),
}


def stop_rules(method, spec):
    """The sweep's stopping rules for one method."""
    if method is d.MethodKind.DRA:
        return [d.ExactFixedPoint(spec.eta), d.MaxIter(spec.max_iter)]
    return [d.Feasibility(spec.tol, spec.monitor), d.MaxIter(spec.max_iter)]


class Workload:
    """Seeded inputs of one workload, plus the checks on its outputs."""

    def __init__(self, name: str, seed: int, root: Path):
        self.name = name
        self.seed = seed
        self.defn = WORKLOADS[name]
        doc = json.loads((root / self.defn.problem).read_text(encoding="utf-8"))
        doc.get("outputs", {}).pop("csv_path", None)
        grid = dict(doc["start"]["grid"])
        doc["start"]["grid"]["steps"] = self.defn.sweep_steps
        self.sweep_text = json.dumps(doc, indent=2)
        self.spec = cli.parse_problem(self.sweep_text)
        if self.spec.lift_sets is not None:
            self.lifted = d.lift(self.spec.lift_sets)
            self.check_sets = list(self.spec.lift_sets)
        else:
            self.lifted = None
            self.check_sets = [self.spec.set_a, self.spec.set_b]
        rng = np.random.default_rng(seed)
        steps = self.defn.solve_steps
        axis = np.linspace(grid["lo"], grid["hi"], steps)
        self.starts = np.array([[x, y] for x in axis for y in axis])
        if seed != DEFAULT_SEED:
            spacing = (grid["hi"] - grid["lo"]) / (steps - 1)
            self.starts += rng.uniform(-JITTER * spacing, JITTER * spacing, self.starts.shape)
        self.kinds = [m.value for m in self.spec.methods] + (["EPI"] if self.defn.run_epi else [])
        self.solves = self.solves_from(self.starts)
        if seed != DEFAULT_SEED:
            self.solves = [self.solves[i] for i in rng.permutation(len(self.solves))]

    def solves_from(self, starts):
        """Every kind of solve from every start, start by start."""
        return [(kind, start) for start in starts for kind in self.kinds]

    # -- solves ---------------------------------------------------------

    def solve(self, kind: str, start):
        """One library solve; returns the final point in R^dim and the
        trace."""
        spec = self.spec
        if kind == "EPI":
            trace = d.run_epi(spec.set_b.f, start, spec.eta, spec.max_iter)
            return trace.final_point, trace
        method = d.MethodKind(kind)
        rules = stop_rules(method, spec)
        if self.lifted is not None:
            return d.solve_lifted(self.lifted, method, start, rules)
        trace = d.run(spec.set_a, spec.set_b, method, start, rules)
        return trace.final_point, trace

    # -- checks ---------------------------------------------------------

    def theory_ok(self, kind: str, reason, final) -> bool:
        """What the paper guarantees for a finished run.

        DRA (and ``run_epi``) must stop at an exact fixed point whose shadow
        lies in every set; MAP and MRP must stop on feasibility with the
        final point within tol of every set.  For lifted problems ``final``
        is the mean block, which is the shadow's block.
        """
        final = np.asarray(final, dtype=float)
        if kind in ("DRA", "EPI"):
            if reason is not d.Reason.EXACT_FIXED_POINT:
                return False
            point = final if self.lifted is not None else self.spec.set_a.project(final)
        else:
            if reason is not d.Reason.FEASIBILITY:
                return False
            point = final
        gap = max(s.distance(point) for s in self.check_sets)
        return math.isfinite(gap) and gap <= self.spec.tol

    def check_rows(self, rows, csv_bytes: bytes):
        """Failed row count of one sweep, and whether its CSV is
        byte-identical to the reference."""
        expected = len(self.spec.methods) * self.defn.sweep_steps ** 2
        failed = abs(len(rows) - expected)
        failed += sum(
            not self.theory_ok(r.method.value, r.reason, r.final) for r in rows
        )
        reference = gzip.decompress(self.reference_path().read_bytes())
        failed += compare_csv(csv_bytes.decode(), reference.decode())
        identical = hashlib.sha256(csv_bytes).digest() == hashlib.sha256(reference).digest()
        return failed, identical

    def reference_path(self) -> Path:
        return HERE / "reference" / f"{self.name}.csv.gz"


def compare_csv(text: str, reference: str) -> int:
    """Rows of ``text`` that differ from ``reference``: exact columns must
    match, float columns within FLOAT_RTOL.  Missing or extra rows count."""
    got = text.splitlines()
    want = reference.splitlines()
    if not got or got[0] != want[0]:
        return max(len(want) - 1, 1)
    header = want[0].split(",")
    bad = abs(len(got) - len(want))
    for line, ref in zip(got[1:], want[1:]):
        bad += any(
            not _cell_ok(col, a, b)
            for col, a, b in zip(header, line.split(","), ref.split(","))
        ) or line.count(",") != ref.count(",")
    return bad


def _cell_ok(column: str, got: str, want: str) -> bool:
    if column in EXACT_COLUMNS or column.startswith("z0_"):
        return got == want
    a, b = float(got), float(want)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= FLOAT_RTOL * (1.0 + abs(b))
