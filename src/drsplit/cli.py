"""Problem-file parsing, experiment sweeps, and CSV/trace emission.

A problem file is a JSON document pairing two set descriptors (or a list of
sets to lift) with methods, a start (single point or square grid), stopping
parameters, and output paths.  A sweep steps every start of every declared
method in one lockstep loop, as one batch with a block of rows per method,
and projects onto each set once per stage of a step for all blocks; the
rows, one per (start, method), are assembled per column from the result
columns.  The CSV has a fixed row order (row-major grid, method order as
declared) and writes each line with one format string after its start's
``z0`` text, formatted once per start, floats with 17 significant digits,
so equal specs give byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .epigraph import WitnessFamily, luque_witness
from .functions import function_from_name
from .lifting import lift
# dra_step, map_step and mrp_step are unused here but stay importable from
# this module: perfbench/tracing.py looks them up on it by name
from .methods import (  # noqa: F401
    InvalidSubspaceError,
    MethodKind,
    _Spingarn,
    _linearize,
    _step,
    dra_step,
    map_step,
    mrp_step,
    run,
)
from .sets import (
    Affine,
    Ball,
    Box,
    ConvexSet,
    Diagonal,
    DimensionMismatchError,
    Epigraph1D,
    Halfspace,
    Hyperplane,
    Orthant,
    Polygon2D,
    Product,
    as_rows,
)
from .trace import (
    DEFAULT_ETA,
    DEFAULT_MAX_ITER,
    ExactFixedPoint,
    Feasibility,
    MaxIter,
    Monitor,
    Reason,
    _exact_step,
    _norms,
    normalize_rules,
)

FIRST_N_TOLS = (1e-2, 1e-4)
NOT_REACHED = -1


class ParseError(ValueError):
    """Problem file is not well-formed (syntax or missing/bad field)."""

    def __init__(self, message, line=None, fieldname=None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if fieldname is not None:
            where.append(f"field {fieldname!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{message}{suffix}")
        self.line = line
        self.fieldname = fieldname


class ValidationError(ValueError):
    """Problem file is well-formed but semantically invalid."""


# ---------------------------------------------------------------------------
# set descriptor <-> config dict


# type tag -> (class, fields); each field is a constructor argument, in
# order, and an attribute of the same name
_DESCRIPTORS = {
    "affine": (Affine, ("L", "a")),
    "hyperplane": (Hyperplane, ("normal", "offset")),
    "halfspace": (Halfspace, ("normal", "offset")),
    "box": (Box, ("lo", "hi")),
    "orthant": (Orthant, ("dim",)),
    "ball": (Ball, ("center", "radius")),
    "polygon": (Polygon2D, ("vertices",)),
    "epigraph": (Epigraph1D, ("f",)),
    "diagonal": (Diagonal, ("copies", "base_dim")),
    "product": (Product, ("components",)),
}


def set_from_config(cfg: dict, ambient_dim: Optional[int] = None) -> ConvexSet:
    """Build a descriptor from its tagged dict form."""
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ParseError("set descriptor must be an object with a 'type' tag")
    kind = cfg["type"]
    if not isinstance(kind, str) or kind not in _DESCRIPTORS:
        raise ValidationError(f"unknown set type {kind!r}")
    cls, fields = _DESCRIPTORS[kind]
    if kind == "orthant":
        cfg = {**cfg, "dim": cfg.get("dim", ambient_dim)}
        if cfg["dim"] is None:
            raise ParseError("orthant needs a 'dim'", fieldname="dim")
    for key in fields:
        if key not in cfg:
            raise ParseError(f"missing key for {kind!r} descriptor", fieldname=key)
    if kind == "epigraph":
        args = [function_from_name(cfg["f"])]
    elif kind == "product":
        # block dims differ from the ambient dim, so components must
        # spell out their own dimensions
        args = [[set_from_config(c, None) for c in cfg["components"]]]
    else:
        args = [cfg[key] for key in fields]
    return cls(*args)


def set_to_config(s: ConvexSet) -> dict:
    for kind, (cls, fields) in _DESCRIPTORS.items():
        if isinstance(s, cls):
            break
    else:
        raise ValidationError(f"{type(s).__name__} has no problem-file form")
    cfg = {"type": kind}
    for key in fields:
        value = getattr(s, key)
        if kind == "epigraph":
            value = value.spec_name()
        elif kind == "product":
            value = [set_to_config(c) for c in value]
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        cfg[key] = value
    return cfg


# ---------------------------------------------------------------------------
# problem specs


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    steps: int


@dataclass(eq=False)
class ProblemSpec:
    """Validated, runnable description of one experiment."""

    dim: int
    methods: list
    set_a: Optional[ConvexSet]
    set_b: Optional[ConvexSet]
    lift_sets: Optional[list]
    start_point: Optional[np.ndarray]
    grid: Optional[GridSpec]
    eta: float
    tol: float
    monitor: Monitor
    max_iter: int
    csv_path: Optional[str]
    trace_path: Optional[str]
    record_at: list

    def to_dict(self) -> dict:
        if self.lift_sets is not None:
            sets = {
                "sets": [set_to_config(s) for s in self.lift_sets],
                "lift": True,
            }
        else:
            sets = {
                "set_a": set_to_config(self.set_a),
                "set_b": set_to_config(self.set_b),
            }
        if self.grid is not None:
            start = {"grid": {"lo": self.grid.lo, "hi": self.grid.hi,
                              "steps": self.grid.steps}}
        else:
            start = {"point": self.start_point.tolist()}
        outputs = {"record_at": list(self.record_at)}
        if self.csv_path is not None:
            outputs["csv_path"] = self.csv_path
        if self.trace_path is not None:
            outputs["trace_path"] = self.trace_path
        return {
            "dim": self.dim,
            **sets,
            "methods": [m.value for m in self.methods],
            "start": start,
            "stopping": {
                "eta": self.eta,
                "tol": self.tol,
                "monitor": self.monitor.value,
                "max_iter": self.max_iter,
            },
            "outputs": outputs,
        }

    def __eq__(self, other) -> bool:
        return isinstance(other, ProblemSpec) and self.to_dict() == other.to_dict()


def serialize_problem(spec: ProblemSpec) -> str:
    return json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n"


def _method_from_name(name: str) -> MethodKind:
    try:
        return MethodKind(str(name).upper())
    except ValueError:
        raise ValidationError(f"unknown method {name!r}")


def _checked(value, kinds, fieldname: str):
    """Return value if it is an instance of ``kinds``; booleans do not
    count as numbers."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ParseError(f"wrong type {type(value).__name__}", fieldname=fieldname)
    return value


def _finite(value, fieldname: str) -> float:
    """Return a JSON number as a finite float; an integer beyond the float
    range fails, since int-float comparison is exact."""
    if not abs(_checked(value, (int, float), fieldname)) <= sys.float_info.max:
        raise ValidationError(f"{fieldname!r} must be a finite number")
    return float(value)


def _load_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno) from e
    if not isinstance(doc, dict):
        raise ParseError("problem file must be a JSON object")
    return doc


def parse_problem(text: str) -> ProblemSpec:
    """Parse and validate a problem file.

    Raises ParseError for malformed documents (with line/field context) and
    ValidationError for semantic problems: rank-deficient affine matrices,
    grids in dimensions other than 2, unknown methods, Spingarn's method on
    a first set that is no affine subspace, and the like.  Output paths are
    compared with each other and with the problem file by ``main``.
    """
    return _spec_from_document(_load_document(text))


def _spec_from_document(doc: dict) -> ProblemSpec:
    def need(key, obj=doc):
        if key not in obj:
            raise ParseError("missing required field", fieldname=key)
        return obj[key]

    dim = _checked(need("dim"), int, "dim")
    if dim < 1:
        raise ValidationError("'dim' must be a positive integer")

    lifted = "sets" in doc
    if lifted:
        if "set_a" in doc or "set_b" in doc:
            raise ValidationError("give either 'sets' or 'set_a'/'set_b', not both")
        if doc.get("lift") is not True:
            raise ValidationError("'sets' requires \"lift\": true")
        raw_sets = doc["sets"]
        if not isinstance(raw_sets, list) or not raw_sets:
            raise ParseError("'sets' must be a nonempty list", fieldname="sets")
        configs = [("lifted set", c) for c in raw_sets]
    else:
        configs = [("set_a", need("set_a")), ("set_b", need("set_b"))]
    sets = []
    for name, cfg in configs:
        try:
            s = set_from_config(cfg, dim)
        except (ParseError, ValidationError):
            raise
        except (ValueError, TypeError, OverflowError) as e:
            raise ValidationError(str(e)) from e
        if s.dim != dim:
            raise ValidationError(f"{name} has dimension {s.dim}, expected {dim}")
        sets.append(s)
    set_a = set_b = lift_sets = None
    if lifted:
        lift_sets = sets
    else:
        set_a, set_b = sets

    methods = [_method_from_name(m) for m in _checked(need("methods"), list, "methods")]
    if not methods:
        raise ValidationError("'methods' must name at least one method")
    if len(set(methods)) < len(methods):
        raise ValidationError("'methods' must name each method once")
    if MethodKind.SPINGARN in methods and set_a is not None:
        try:
            _linearize(set_a, set_b)
        except InvalidSubspaceError as e:
            raise ValidationError(str(e)) from e

    start = _checked(need("start"), dict, "start")
    start_point = None
    grid = None
    if "grid" in start and "point" in start:
        raise ValidationError("give either 'point' or 'grid' in 'start', not both")
    if "grid" in start:
        if dim != 2:
            raise ValidationError("grid starts are only valid for dim = 2")
        g = _checked(start["grid"], dict, "start.grid")
        lo = _finite(need("lo", g), "start.grid.lo")
        hi = _finite(need("hi", g), "start.grid.hi")
        steps = _checked(need("steps", g), int, "start.grid.steps")
        if not (lo <= hi and steps >= 1):
            raise ValidationError("grid needs lo <= hi and steps >= 1")
        if not math.isfinite(hi - lo):  # linspace would make nan starts
            raise ValidationError("grid span hi - lo must be a finite number")
        grid = GridSpec(lo=lo, hi=hi, steps=steps)
    elif "point" in start:
        try:
            start_point = np.asarray(start["point"], dtype=float)
        except (TypeError, ValueError, OverflowError) as e:
            raise ParseError("start point must be a numeric list",
                             fieldname="start.point") from e
        if start_point.shape != (dim,) or not np.all(np.isfinite(start_point)):
            raise ValidationError(f"start point must be a finite vector of length {dim}")
    else:
        raise ParseError("start must contain 'point' or 'grid'", fieldname="start")

    stopping = _checked(doc.get("stopping", {}), dict, "stopping")
    eta = _finite(stopping.get("eta", DEFAULT_ETA), "stopping.eta")
    tol = _finite(stopping.get("tol", 1e-4), "stopping.tol")
    max_iter = _checked(stopping.get("max_iter", DEFAULT_MAX_ITER), int,
                        "stopping.max_iter")
    try:
        monitor = Monitor(stopping.get("monitor", "iterate"))
    except ValueError:
        raise ValidationError(f"unknown monitor {stopping.get('monitor')!r}")
    if not (eta > 0 and tol > 0 and max_iter >= 1):
        raise ValidationError("stopping parameters must be positive")

    outputs = _checked(doc.get("outputs", {}), dict, "outputs")
    record_at = _checked(outputs.get("record_at", [5, 10]), list, "outputs.record_at")
    record_at = [_checked(n, int, "outputs.record_at") for n in record_at]
    if any(n < 0 for n in record_at):
        raise ValidationError("record_at must contain nonnegative integers")
    if any(b <= a for a, b in zip(record_at, record_at[1:])):
        raise ValidationError("record_at must be strictly increasing")
    csv_path = outputs.get("csv_path")
    trace_path = outputs.get("trace_path")
    for key, path in (("csv_path", csv_path), ("trace_path", trace_path)):
        # open() takes an integer as a file descriptor, and "" names no file
        if path is not None and not _checked(path, str, f"outputs.{key}"):
            raise ValidationError(f"'outputs.{key}' must not be empty")
    if trace_path is not None and grid is not None:
        raise ValidationError("trace output requires a point start")

    return ProblemSpec(
        dim=dim,
        methods=methods,
        set_a=set_a,
        set_b=set_b,
        lift_sets=lift_sets,
        start_point=start_point,
        grid=grid,
        eta=eta,
        tol=tol,
        monitor=monitor,
        max_iter=max_iter,
        csv_path=csv_path,
        trace_path=trace_path,
        record_at=record_at,
    )


def _read_document(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return _load_document(fh.read())


def load_problem(path) -> ProblemSpec:
    return _spec_from_document(_read_document(path))


def builtin_problem_path(name: str):
    """Path of a problem file shipped with the package."""
    return resources.files(__package__) / "problems" / name


# ---------------------------------------------------------------------------
# sweeps


class SweepRow(NamedTuple):
    """One (start, method) result of a sweep."""

    z0: np.ndarray
    method: MethodKind
    iterations: int
    exact: bool
    final: np.ndarray
    d_b_at: tuple
    first_n: tuple
    reason: Reason


def _resolve_sets(spec: ProblemSpec):
    if spec.lift_sets is not None:
        lp = lift(spec.lift_sets)
        return lp.set_a, lp.set_b, lp
    return spec.set_a, spec.set_b, None


def _starts(spec: ProblemSpec) -> np.ndarray:
    """The starts as one (N, dim) array, a grid's in row-major order."""
    if spec.grid is None:
        return np.asarray(spec.start_point, dtype=float).reshape(1, -1)
    axis = np.linspace(spec.grid.lo, spec.grid.hi, spec.grid.steps)
    return np.column_stack((np.repeat(axis, axis.size), np.tile(axis, axis.size)))


_SHADOW_METHODS = (MethodKind.DRA, MethodKind.SPINGARN)  # their point is P_A z_n
_BLOCKS = (*_SHADOW_METHODS, MethodKind.MAP, MethodKind.MRP)  # the batch's block order


def _rules_for(method: MethodKind, spec: ProblemSpec):
    """The one reading of a problem's stopping fields, for run and sweep."""
    if method in _SHADOW_METHODS:
        return [ExactFixedPoint(spec.eta), MaxIter(spec.max_iter)]
    return [Feasibility(spec.tol, spec.monitor), MaxIter(spec.max_iter)]


def _exact_rows(Z, Z_prev, i, eta) -> np.ndarray:
    """The exactness flag of the last step of the rows i of Z."""
    Zp = Z_prev.take(i, axis=0)
    return _exact_step(_norms(Z.take(i, axis=0) - Zp), 1.0 + _norms(Zp), eta)


def _sweep_methods(set_a, set_b, methods, Z, spec: ProblemSpec) -> dict:
    """Run each of ``methods``, distinct MethodKinds, from every row of Z,
    as ``run`` would with ``_rules_for(method, spec)`` from each row alone.

    The rows of all methods step together, a block per method in the order
    of _BLOCKS.  Each row records d_B of its method's point (P_A z_n for
    DRA and SPINGARN, z_n for MAP and MRP) at each index in ``record_at``
    and the first index where it falls below each of FIRST_N_TOLS; it steps
    on after its rules fire until both are known or n reaches its cap.  A
    step projects onto each set once per stage: P_A z_n of the DRA and
    SPINGARN rows; P_B of every row's point; d_A(w) of the feasibility
    test; the update, P_B(2 P_A z_n - z_n) on the DRA rows and P_A on the
    MAP and MRP rows (SPINGARN steps its own pair).  Each rule is tested at
    every step on the running rows that carry it, and computes only what it
    reads: the exactness flag of the running rows under an ExactFixedPoint
    rule, else of the rows that stop; as in ``run``, d_B(w) at the
    monitored point w (the distance already taken when w is the method's
    point, else one more call onto B, and onto A for w = P_A z_n), then
    d_A(w) only where d_B(w) < tol, which a nan never passes.  No set is
    projected on zero rows.  Sets of different dimensions raise
    DimensionMismatchError and a method that is no MethodKind raises
    ValueError before the first step; Z is checked once, so, as in ``run``,
    an overflow shows up in the next Z and raises ValueError.

    Returns per-row arrays under the names of the SweepRow fields, start i
    and ``methods[k]`` in row i * len(methods) + k, ``reason`` an object
    array of Reason members.
    """
    if set_a.dim != set_b.dim:   # as run refuses the pair
        raise DimensionMismatchError(f"sets have dimensions {set_a.dim} and {set_b.dim}")
    Z = as_rows(Z, set_a.dim)
    for method in methods:
        if method not in _BLOCKS:
            raise ValueError(f"unknown method {method!r}")
    count, width = Z.shape[0], len(methods)
    # per block: each row's output index, the block's end in the batch, and
    # its (cap, last record, eta, tol at its method's point, tol at the
    # other point), with nan for a rule that _rules_for does not give
    rows, rules, bounds = [], [], [0]
    for kind in _BLOCKS:
        if kind in methods:
            eta, feas, cap = normalize_rules(_rules_for(kind, spec))
            tol = [math.nan, math.nan]
            if feas is not None:
                tol[(feas.monitor is Monitor.SHADOW) != (kind in _SHADOW_METHODS)] = feas.tol
            rules.append((cap, max((n for n in spec.record_at if n <= cap), default=0),
                          math.nan if eta is None else eta, *tol))
            rows.append(np.arange(count) * width + methods.index(kind))
        bounds.append(bounds[-1] + count * (kind in methods))
    _, s1, s2, s3, s4 = bounds           # DRA | SPINGARN | MAP | MRP rows
    rows = np.concatenate(rows)
    cap, last, eta, tol, tol_other = rule = np.repeat(np.array(rules).T, count, axis=1)
    Z = np.concatenate([Z] * width)
    tols = np.array(FIRST_N_TOLS)
    out = {"iterations": np.zeros(s4, dtype=int), "exact": np.zeros(s4, dtype=bool),
           "reason": np.empty(s4, dtype=object), "final": np.empty_like(Z),
           "d_b_at": np.full((s4, len(spec.record_at)), np.nan),
           "first_n": np.full((s4, len(tols)), NOT_REACHED)}
    running = np.ones(s4, dtype=bool)
    n_running = s4
    Z_prev = Z                           # the last iterate (Z at n = 0)
    first = out["first_n"].copy()
    pair = _Spingarn(set_a, set_b, Z[s1:s2]) if s2 > s1 else None
    n = 0
    while True:
        point = Z                        # P_A z_n on the DRA and SPINGARN rows, else z_n
        if s2:
            point = set_a._project_rows(Z[:s2])
            if s2 < s4:
                point = np.concatenate((point, Z[s2:]))
        PB = set_b._project_rows(point)
        d = _norms(point - PB)
        for j, m in enumerate(spec.record_at):
            if m == n:
                out["d_b_at"][rows, j] = d
        first = np.where((first == NOT_REACHED) & (d[:, None] < tols), n, first)

        if n_running:
            feasible, fixed = np.zeros((2, s4), dtype=bool)
            i = (running & (d < tol)).nonzero()[0]    # w is the point: d_B(w) is d
            W, t = point.take(i, axis=0), tol[i]
            j = (running & (tol_other > 0)).nonzero()[0]
            if j.size:                   # w is z_n on DRA and SPINGARN rows, else P_A z_n
                Wj, k = Z.take(j, axis=0), j.searchsorted(s2)
                if k < j.size:
                    Wj[k:] = set_a._project_rows(Wj[k:])
                k = (_norms(Wj - set_b._project_rows(Wj)) < tol_other[j]).nonzero()[0]
                i, W, t = (np.concatenate(p) for p in
                           ((i, j[k]), (W, Wj[k]), (t, tol_other[j[k]])))
            if i.size:
                feasible[i] = _norms(W - set_a._project_rows(W)) < t
            i = (running & (eta > 0)).nonzero()[0]
            if n and i.size:
                fixed[i] = _exact_rows(Z, Z_prev, i, eta[i])
            i = (feasible | fixed | (running & (n >= cap))).nonzero()[0]
            if i.size:
                out_i = rows[i]
                out["iterations"][out_i] = n
                if n:
                    out["exact"][out_i] = fixed[i]
                    off = i[np.isnan(eta[i])]    # rows with no eta rule take the flag here
                    if off.size:
                        out["exact"][rows[off]] = _exact_rows(Z, Z_prev, off, None)
                out["reason"][out_i] = Reason.MAX_ITER   # later lines win: feasibility > exact > cap
                out["reason"][out_i[fixed[i]]] = Reason.EXACT_FIXED_POINT
                out["reason"][out_i[feasible[i]]] = Reason.FEASIBILITY
                out["final"][out_i] = Z.take(i, axis=0)
                running[i] = False
                n_running -= i.size
        if n_running < s4:
            done = ~running & ((n >= cap) | ((n >= last) & (first != NOT_REACHED).all(axis=1)))
            if done.any():
                i = done.nonzero()[0]
                out["first_n"][rows[i]] = first.take(i, axis=0)
                if pair:
                    i = (~done[s1:s2]).nonzero()[0]
                    pair.a, pair.b = pair.a.take(i, axis=0), pair.b.take(i, axis=0)
                keep = (~done).nonzero()[0]     # take, not a mask: far cheaper on 2-D rows
                _, s1, s2, s3, s4 = bounds = keep.searchsorted(bounds).tolist()
                rows, running, first, Z, Z_prev, point, PB = (
                    v.take(keep, axis=0) for v in (rows, running, first, Z, Z_prev, point, PB))
                cap, last, eta, tol, tol_other = rule = rule.take(keep, axis=1)
                if not s4:
                    return out

        parts = [_step(MethodKind.DRA, None, set_b._project_rows, Z[:s1], point[:s1])] if s1 else []
        if s2 > s1:
            parts.append(pair.step())
        if s4 > s2:   # MAP and MRP end in P_A; with np.asarray, an identity on arrays,
            # in its place, _step gives the rows of their one call onto A
            X = [_step(kind, np.asarray, None, Z[lo:hi], pbz=PB[lo:hi])
                 for kind, lo, hi in ((MethodKind.MAP, s2, s3), (MethodKind.MRP, s3, s4)) if lo < hi]
            parts.append(set_a._project_rows(np.concatenate(X) if len(X) > 1 else X[0]))
        Z_next = np.concatenate(parts) if len(parts) > 1 else parts[0]
        if not np.isfinite(Z_next).all():
            raise ValueError("vector coordinates must be finite")
        Z_prev, Z = Z, Z_next
        n += 1


def sweep(spec: ProblemSpec) -> list:
    """Run every method from every start point and return the rows.

    All methods step the whole start stack at once, embedded and restricted
    by ``LiftedProblem.embed``/``restrict`` for a lifted problem, and each
    result column becomes Python values once; the rows are zipped from the
    columns, each start's row object repeated once per method.  Rows that
    hit the iteration cap are flagged by their termination reason, never
    dropped.
    """
    set_a, set_b, lp = _resolve_sets(spec)
    starts = _starts(spec)
    res = _sweep_methods(set_a, set_b, spec.methods,
                         starts if lp is None else lp.embed(starts), spec)
    final = res["final"] if lp is None else lp.restrict(res["final"])
    width = len(spec.methods)
    return list(map(SweepRow._make, zip(
        (z0 for z0 in starts for _ in range(width)), itertools.cycle(spec.methods),
        res["iterations"].tolist(), res["exact"].tolist(), final,
        map(tuple, res["d_b_at"].tolist()), map(tuple, res["first_n"].tolist()),
        res["reason"].tolist())))


# ---------------------------------------------------------------------------
# emission


def _coord_names(prefix: str, dim: int):
    if dim == 2:
        return [f"{prefix}_x", f"{prefix}_y"]
    return [f"{prefix}_{i}" for i in range(dim)]


def _write_lines(lines: Sequence[str], path=None) -> None:
    """Write each line and a newline to the file at path, or to stdout."""
    out = nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8", newline="")
    with out as fh:
        fh.write("\n".join(lines) + "\n")


def csv_header(dim: int, record_at: Sequence[int]) -> str:
    cols = _coord_names("z0", dim)
    cols += ["method", "iterations", "exact"]
    cols += _coord_names("final", dim)
    cols += [f"dB_at_{n}" for n in record_at]
    cols += ["first_n_tol_1e2", "first_n_tol_1e4", "reason"]
    return ",".join(cols)


def emit_csv(rows: Sequence[SweepRow], path, record_at: Sequence[int]) -> None:
    """Write one line per row under the fixed header, each as one ``%``
    format after the row's ``z0`` text, formatted once per run of rows that
    share the z0 object; floats carry 17 significant digits (``%.17g``
    prints as ``format(v, '.17g')``, nan and -0 included), so identical
    specs yield byte-identical files."""
    if not rows:
        raise ValueError("no rows to write")
    dim = len(rows[0].z0)
    z0_fmt = "%.17g," * dim
    fmt = ",".join(["%s,%d,%s"] + ["%.17g"] * (dim + len(record_at))
                   + ["%d"] * len(FIRST_N_TOLS) + ["%s"])
    words = {e: e.value for e in (*MethodKind, *Reason)}
    lines = [csv_header(dim, record_at)]
    z0_last = None
    for z0, method, iterations, exact, final, d_b_at, first_n, reason in rows:
        if z0 is not z0_last:        # one object has one text: rows sharing it reuse it
            z0_last, z0_text = z0, z0_fmt % tuple(z0.tolist())
        lines.append(z0_text + fmt % (words[method], iterations, "true" if exact else "false",
                                      *final.tolist(), *d_b_at, *first_n, words[reason]))
    _write_lines(lines, path)


def emit_trace(traces: dict, path) -> None:
    """Write per-iterate data (z, a, r, P_B r, distances) of a
    {method: trace} dict, in its order, one ``%`` format per line."""
    dim = next(iter(traces.values())).z[0].shape[0]
    cols = ["n", "method"]
    for prefix in ("z", "a", "r", "pbr"):
        cols += _coord_names(prefix, dim)
    cols += ["d_A", "d_B"]
    fmt = ",".join(["%d,%s"] + ["%.17g"] * (4 * dim + 2))
    lines = [",".join(cols)]
    for method, t in traces.items():
        cells = np.column_stack((t.z, t.a, t.r, t.pbr, t.d_a, t.d_b)).tolist()
        lines += [fmt % (n, method.value, *c) for n, c in zip(t.steps, cells)]
    _write_lines(lines, path)


# ---------------------------------------------------------------------------
# command line


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="drsplit",
        description="Convex-feasibility sweeps with DRA, MAP, MRP and "
        "Spingarn's method.",
    )
    p.add_argument("--problem", help="problem file (JSON)")
    p.add_argument("--method", help="comma-separated methods, overrides the file")
    p.add_argument("--out", help="CSV output path, overrides the file")
    p.add_argument("--trace", help="per-iterate trace output path (point starts)")
    p.add_argument("--tol", type=float, help="feasibility tolerance override")
    p.add_argument("--max-iter", type=int, help="iteration cap override")
    p.add_argument("--grid", help="lo,hi,steps grid override (dim 2)")
    p.add_argument("--record-at", help="comma-separated iteration indices")
    p.add_argument(
        "--witness",
        choices=[f.value for f in WitnessFamily],
        help="evaluate the small-step witness family instead of a problem",
    )
    p.add_argument("--eps", help="comma-separated eps values for --witness")
    return p


def _apply_overrides(doc: dict, args) -> dict:
    """Write the command-line overrides into a problem document, so that
    parsing checks the combined problem exactly as it checks a file."""
    doc = dict(doc)

    def put(section, key, value):
        # a section that is no object is left for parsing to reject
        if isinstance(doc.get(section, {}), dict):
            doc[section] = {**doc.get(section, {}), key: value}

    if args.method is not None:
        doc["methods"] = args.method.split(",")
    if args.tol is not None:
        put("stopping", "tol", args.tol)
    if args.max_iter is not None:
        put("stopping", "max_iter", args.max_iter)
    if args.grid is not None:
        try:
            lo, hi, steps = args.grid.split(",")
            grid = {"lo": float(lo), "hi": float(hi), "steps": int(steps)}
        except ValueError as e:
            raise ValidationError("--grid expects lo,hi,steps") from e
        doc["start"] = {"grid": grid}
    if args.record_at is not None:
        try:  # "" is the empty list, as a file writes it
            record_at = [int(n) for n in args.record_at.split(",") if args.record_at]
        except ValueError as e:
            raise ValidationError("--record-at expects integers") from e
        put("outputs", "record_at", record_at)
    if args.out is not None:
        put("outputs", "csv_path", args.out)
    if args.trace is not None:
        put("outputs", "trace_path", args.trace)
    return doc


def _run_witness(args) -> int:
    for name in ("problem", "method", "tol", "max_iter", "grid", "record_at", "trace"):
        if getattr(args, name) is not None:
            raise ValidationError(f"--witness does not take --{name.replace('_', '-')}")
    family = WitnessFamily(args.witness)
    lines = ["family,eps,step_residual,fix_distance"]
    for text in ("0.1,0.01,0.001" if args.eps is None else args.eps).split(","):
        try:
            eps = float(text)
        except ValueError:
            eps = math.nan
        if not 0.0 < eps < math.inf:
            raise ValidationError(f"--eps expects finite positive numbers, got {text!r}")
        try:
            step_residual, fix_distance = luque_witness(family, eps)
        except OverflowError as e:
            raise ValidationError(f"--eps {text!r} is too large: {e}") from e
        lines.append("%s,%.17g,%.17g,%.17g"
                     % (family.value, eps, step_residual, fix_distance))
    _write_lines(lines, args.out)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.witness:
            return _run_witness(args)
        if not args.problem:
            raise ValidationError("--problem or --witness is required")
        if args.eps is not None:
            raise ValidationError("--eps applies only with --witness")
        doc = _apply_overrides(_read_document(args.problem), args)
        spec = _spec_from_document(doc)
        if spec.csv_path is None:
            raise ValidationError("no CSV output path (use --out or outputs.csv_path)")
        paths = [os.path.realpath(p) for p in (args.problem, spec.csv_path, spec.trace_path) if p]
        if paths[0] in paths[1:]:
            raise ValidationError("an output path names the problem file")
        if len(set(paths)) < len(paths):
            raise ValidationError("csv_path and trace_path must be different files")
        rows = sweep(spec)
        emit_csv(rows, spec.csv_path, spec.record_at)
        if spec.trace_path is not None:
            # parsing allows a trace only with a point start
            set_a, set_b, lp = _resolve_sets(spec)
            z0 = spec.start_point if lp is None else lp.embed(spec.start_point)
            traces = {m: run(set_a, set_b, m, z0, _rules_for(m, spec))
                      for m in spec.methods}
            emit_trace(traces, spec.trace_path)
        print(f"wrote {len(rows)} rows to {spec.csv_path}")
        return 0
    except (ParseError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
