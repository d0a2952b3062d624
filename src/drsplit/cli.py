"""Problem-file parsing, experiment sweeps, and CSV/trace emission.

A problem file is a JSON document pairing two set descriptors (or a list of
sets to lift) with methods, a start (single point or square grid), stopping
parameters, and output paths.  A sweep makes one rule plan per declared
method from the stopping fields and runs every start through
``methods.run_rows``; its rows, one per (start, method), are assembled per
column.  The CSV has a fixed row order (row-major grid, method order as
declared) and writes each line with one format string after its start's
``z0`` text, formatted once per start, floats with 17 significant digits,
so equal specs give byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
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

from .epigraph import Epigraph1D, WitnessFamily, luque_witness
from .functions import function_from_name
from .lifting import lift
# dra_step, map_step and mrp_step are unused here but stay importable from
# this module: perfbench/tracing.py looks them up on it by name
from .methods import (  # noqa: F401
    FIRST_N_TOLS,
    InvalidSubspaceError,
    MethodKind,
    _SHADOW_METHODS,
    _linearize,
    dra_step,
    map_step,
    mrp_step,
    run,
    run_rows,
)
from .sets import (
    Affine,
    Ball,
    Box,
    ConvexSet,
    Diagonal,
    Halfspace,
    Hyperplane,
    Orthant,
    Polygon2D,
    Product,
)
from .trace import (
    DEFAULT_ETA,
    DEFAULT_MAX_ITER,
    ExactFixedPoint,
    Feasibility,
    MaxIter,
    Monitor,
    Reason,
)


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


def set_from_config(cfg: dict, ambient_dim: Optional[int] = None, where=None) -> ConvexSet:
    """Build a descriptor from its tagged dict form; errors name it ``where`` or its type."""
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ParseError("set descriptor must be an object with a 'type' tag")
    kind = cfg["type"]
    if not isinstance(kind, str) or kind not in _DESCRIPTORS:
        raise ValidationError(f"unknown set type {kind!r}")
    cls, fields = _DESCRIPTORS[kind]
    where = where or kind
    _known(cfg, ("type", *fields), where)
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
        args = [[set_from_config(c, None, f"{where}.components.{i}")
                 for i, c in enumerate(cfg["components"])]]
    else:
        args = [_numbers(cfg[key], f"{where}.{key}") for key in fields]
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


@dataclass(eq=False)
class ProblemSpec:
    """Validated, runnable description of one experiment."""

    dim: int
    methods: list
    set_a: Optional[ConvexSet]
    set_b: Optional[ConvexSet]
    lift_sets: Optional[list]
    start: dict              # the start section as parsed, which to_dict writes
    starts: np.ndarray       # read-only (N, dim); a grid's rows in row-major order
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
        outputs = {"record_at": list(self.record_at)}
        if self.csv_path is not None:
            outputs["csv_path"] = self.csv_path
        if self.trace_path is not None:
            outputs["trace_path"] = self.trace_path
        return {
            "dim": self.dim,
            **sets,
            "methods": [m.value for m in self.methods],
            "start": copy.deepcopy(self.start),
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


def _numbers(value, fieldname: str):
    """Return value if it is a number or a list of numbers and such lists;
    any other leaf raises ``_checked``'s ParseError."""
    if not isinstance(value, list):
        return _checked(value, (int, float), fieldname)
    for leaf in value:
        _numbers(leaf, fieldname)
    return value


def _finite(value, fieldname: str) -> float:
    """Return a JSON number as a finite float; an integer beyond the float
    range fails, since int-float comparison is exact."""
    if not abs(_checked(value, (int, float), fieldname)) <= sys.float_info.max:
        raise ValidationError(f"{fieldname!r} must be a finite number")
    return float(value)


def _known(obj: dict, keys, section=None) -> dict:
    """Return obj if it has no key beyond ``keys``; a misspelt or unread
    key raises ParseError naming its section, None for the top level."""
    for key in obj:
        if key not in keys:
            where = "the problem" if section is None else repr(section)
            raise ParseError(f"unknown key in {where}",
                             fieldname=key if section is None else f"{section}.{key}")
    return obj


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

    _known(doc, ("dim", "set_a", "set_b", "sets", "lift", "methods", "start", "stopping",
                 "outputs"))
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
        configs = [(f"sets.{i}", c) for i, c in enumerate(raw_sets)]
    else:
        configs = [("set_a", need("set_a")), ("set_b", need("set_b"))]
    sets = []
    for name, cfg in configs:
        try:
            s = set_from_config(cfg, dim, name)
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
            _linearize(set_a)
        except InvalidSubspaceError as e:
            raise ValidationError(str(e)) from e

    start = _known(_checked(need("start"), dict, "start"), ("point", "grid"), "start")
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
        start = {"grid": {"lo": lo, "hi": hi, "steps": steps}}
        axis = np.linspace(lo, hi, steps)
        starts = np.column_stack((np.repeat(axis, steps), np.tile(axis, steps)))
    elif "point" in start:
        try:   # _numbers's ParseError is a ValueError too, so it gets this message
            point = np.array(_numbers(start["point"], "start.point"), dtype=float)
        except (TypeError, ValueError, OverflowError) as e:
            raise ParseError("start point must be a numeric list",
                             fieldname="start.point") from e
        if point.shape != (dim,) or not np.all(np.isfinite(point)):
            raise ValidationError(f"start point must be a finite vector of length {dim}")
        start = {"point": point.tolist()}
        starts = point.reshape(1, dim)
    else:
        raise ParseError("start must contain 'point' or 'grid'", fieldname="start")
    starts.flags.writeable = False

    stopping = _known(_checked(doc.get("stopping", {}), dict, "stopping"),
                      ("eta", "tol", "monitor", "max_iter"), "stopping")
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

    outputs = _known(_checked(doc.get("outputs", {}), dict, "outputs"),
                     ("record_at", "csv_path", "trace_path"), "outputs")
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
    if trace_path is not None and "point" not in start:
        raise ValidationError("trace output requires a point start")

    return ProblemSpec(
        dim=dim,
        methods=methods,
        set_a=set_a,
        set_b=set_b,
        lift_sets=lift_sets,
        start=start,
        starts=starts,
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
    """(set_a, set_b, embed, restrict), with identities for a plain pair."""
    if spec.lift_sets is not None:
        lp = lift(spec.lift_sets)
        return lp.set_a, lp.set_b, lp.embed, lp.restrict
    return spec.set_a, spec.set_b, np.asarray, np.asarray


def _rules_for(method: MethodKind, spec: ProblemSpec):
    """The one reading of a problem's stopping fields, for run and sweep."""
    if method in _SHADOW_METHODS:
        return [ExactFixedPoint(spec.eta), MaxIter(spec.max_iter)]
    return [Feasibility(spec.tol, spec.monitor), MaxIter(spec.max_iter)]


def sweep(spec: ProblemSpec) -> list:
    """Run every method from every start point and return the rows.

    ``run_rows`` steps the start stack under the plans of ``_rules_for``,
    embedded and restricted by the maps of ``_resolve_sets``, and each
    result column becomes Python values once; the rows are zipped from the
    columns, each start's row object repeated once per method.  Rows that
    hit the iteration cap are flagged by their termination reason, never
    dropped.
    """
    set_a, set_b, embed, restrict = _resolve_sets(spec)
    res = run_rows(set_a, set_b, {m: _rules_for(m, spec) for m in spec.methods},
                   embed(spec.starts), spec.record_at)
    final = restrict(res["final"])
    width = len(spec.methods)
    return list(map(SweepRow._make, zip(
        (z0 for z0 in spec.starts for _ in range(width)), itertools.cycle(spec.methods),
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
    cols += [f"first_n_tol_1e{round(-math.log10(t))}" for t in FIRST_N_TOLS] + ["reason"]
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
    if args.method is not None:
        doc["methods"] = args.method.split(",")
    if args.grid is not None:
        try:
            lo, hi, steps = args.grid.split(",")
            grid = {"lo": float(lo), "hi": float(hi), "steps": int(steps)}
        except ValueError as e:
            raise ValidationError("--grid expects lo,hi,steps") from e
        doc["start"] = {"grid": grid}
    record_at = args.record_at
    if record_at is not None:
        try:  # "" is the empty list, as a file writes it
            record_at = [int(n) for n in record_at.split(",") if record_at]
        except ValueError as e:
            raise ValidationError("--record-at expects integers") from e
    for section, key, value in (
            ("stopping", "tol", args.tol), ("stopping", "max_iter", args.max_iter),
            ("outputs", "record_at", record_at), ("outputs", "csv_path", args.out),
            ("outputs", "trace_path", args.trace)):
        # a section that is no object is left for parsing to reject
        if value is not None and isinstance(doc.get(section, {}), dict):
            doc[section] = {**doc.get(section, {}), key: value}
    return doc


def _run_witness(args) -> int:
    for name, value in vars(args).items():
        if value is not None and name not in ("witness", "eps", "out"):
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
            set_a, set_b, embed, _ = _resolve_sets(spec)
            z0 = embed(spec.starts[0])
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
