import dataclasses
import hashlib
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drsplit as d
from conftest import descriptor_zoo
from drsplit import cli


def small_problem(tmp_path, steps=5, extra=None, **overrides):
    doc = {
        "dim": 2,
        "set_a": {"type": "affine", "L": [[1, 5]], "a": [6]},
        "set_b": {"type": "orthant", "dim": 2},
        "methods": ["DRA", "MAP", "MRP"],
        "start": {"grid": {"lo": -100, "hi": 100, "steps": steps}},
        "stopping": {"eta": 1e-14, "tol": 1e-4, "monitor": "iterate",
                     "max_iter": 100000},
        "outputs": {"csv_path": str(tmp_path / "out.csv"), "record_at": [5, 10]},
    }
    doc.update(extra or {})
    for key, value in overrides.items():
        doc[key] = value
    return doc


# ---------------------------------------------------------------------------
# parsing and validation


def test_builtin_problem_parses():
    path = cli.builtin_problem_path("line_orthant.json")
    spec = cli.parse_problem(path.read_text())
    assert spec.dim == 2
    assert isinstance(spec.set_a, d.Affine) and isinstance(spec.set_b, d.Orthant)
    assert spec.methods == [d.MethodKind.DRA, d.MethodKind.MAP, d.MethodKind.MRP]
    assert spec.start == {"grid": {"lo": -100.0, "hi": 100.0, "steps": 41}}
    assert all(type(v) is float for v in (spec.start["grid"]["lo"], spec.start["grid"]["hi"]))
    assert spec.tol == 1e-4 and spec.eta == 1e-14 and spec.max_iter == 100000
    assert spec.record_at == [5, 10]


def test_starts_are_one_read_only_stack(tmp_path):
    # each start form is parsed once into a read-only C-contiguous float64
    # (N, dim) stack; the shipped grid's rows are the reference CSV's z0
    # columns in its row order (x outer), and to_dict hands out a copy of the
    # start section, so editing it leaves the spec as it was
    path = cli.builtin_problem_path("line_orthant.json")
    out = tmp_path / "ref.csv"
    assert cli.main(["--problem", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REFERENCE_CSV_SHA256
    z0 = np.array([line.split(",")[:2] for line in out.read_text().splitlines()[1::3]],
                  dtype=float)
    assert len(z0) == 41 * 41
    lifted = oracle_problems(tmp_path)["lifted"]
    lifted["start"] = {"point": [7.5, -3.25]}
    point3 = small_problem(tmp_path, dim=3, start={"point": [1, -0.0, 2.5]},
                           set_a={"type": "hyperplane", "normal": [1, 1, 1], "offset": 1},
                           set_b={"type": "orthant", "dim": 3})
    cases = [(path.read_text(), z0), (json.dumps(lifted), [[7.5, -3.25]]),
             (json.dumps(point3), [[1.0, -0.0, 2.5]])]
    for text, expected in cases:
        spec = cli.parse_problem(text)
        starts = spec.starts
        assert type(starts) is np.ndarray and starts.dtype == np.float64
        assert starts.shape == (len(expected), spec.dim) and starts.flags.c_contiguous
        assert np.array_equal(starts.view(np.int64), np.array(expected).view(np.int64))
        assert not starts.flags.writeable
        with pytest.raises(ValueError):
            starts[0, 0] = 1.0
        before, text_before = spec.to_dict()["start"], cli.serialize_problem(spec)
        doc = spec.to_dict()
        for value in doc["start"].values():
            value.clear()
        doc["start"].clear()
        assert spec.start == before and cli.serialize_problem(spec) == text_before


def test_zero_matrix_is_validation_error(tmp_path):
    doc = small_problem(tmp_path)
    doc["set_a"] = {"type": "affine", "L": [[0, 0]], "a": [0]}
    with pytest.raises(cli.ValidationError):
        cli.parse_problem(json.dumps(doc))


def test_grid_requires_dim_two(tmp_path):
    doc = small_problem(tmp_path)
    doc["dim"] = 3
    doc["set_a"] = {"type": "hyperplane", "normal": [1, 1, 1], "offset": 0}
    doc["set_b"] = {"type": "orthant", "dim": 3}
    with pytest.raises(cli.ValidationError):
        cli.parse_problem(json.dumps(doc))


def test_unknown_method_rejected(tmp_path):
    doc = small_problem(tmp_path, methods=["DRA", "NEWTON"])
    with pytest.raises(cli.ValidationError):
        cli.parse_problem(json.dumps(doc))


def test_record_at_must_be_sorted(tmp_path):
    # a repeated index would write two dB_at_n columns of one name
    doc = small_problem(tmp_path)
    for record_at in ([10, 5], [5, 5], [0, 5, 5, 10]):
        doc["outputs"]["record_at"] = record_at
        with pytest.raises(cli.ValidationError, match="strictly increasing"):
            cli.parse_problem(json.dumps(doc))


@pytest.mark.parametrize("methods", [["DRA", "DRA"], ["MAP", "dra", "DRA"]])
def test_methods_must_not_repeat(tmp_path, methods, capsys):
    # a repeated method would write every CSV row twice
    doc = small_problem(tmp_path, methods=methods)
    with pytest.raises(cli.ValidationError, match="each method once"):
        cli.parse_problem(json.dumps(doc))
    path = tmp_path / "p.json"
    path.write_text(json.dumps(small_problem(tmp_path)))
    assert cli.main(["--problem", str(path), "--method", ",".join(methods)]) == 2
    assert "each method once" in capsys.readouterr().err


def test_trace_with_grid_rejected(tmp_path):
    doc = small_problem(tmp_path)
    doc["outputs"]["trace_path"] = str(tmp_path / "trace.csv")
    with pytest.raises(cli.ValidationError):
        cli.parse_problem(json.dumps(doc))


def test_missing_field_is_parse_error(tmp_path):
    doc = small_problem(tmp_path)
    del doc["methods"]
    with pytest.raises(cli.ParseError) as exc:
        cli.parse_problem(json.dumps(doc))
    assert "methods" in str(exc.value)


@pytest.mark.parametrize("section, key, value", [
    (None, "stoping", {"max_iter": 5}),
    ("start", "points", [[1, 2], [3, 4]]),
    ("stopping", "maxiter", 5),
    ("outputs", "trace", "t.csv"),
    ("set_b", "extra", 1),
])
def test_unknown_keys_are_parse_errors(tmp_path, capsys, section, key, value):
    # a misspelt section, or a start form beside the one that is read, was
    # silently ignored: the shipped grid ran with max_iter 100,000
    doc = json.loads(cli.builtin_problem_path("line_orthant.json").read_text())
    (doc if section is None else doc[section])[key] = value
    field = key if section is None else f"{section}.{key}"
    with pytest.raises(cli.ParseError, match="unknown key") as exc:
        cli.parse_problem(json.dumps(doc))
    assert exc.value.fieldname == field
    assert (section or "the problem") in str(exc.value) and repr(field) in str(exc.value)
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--problem", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    assert "unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("edit, field, message", [
    pytest.param({"start": {"point": [1, True]}}, "start.point", "numeric list",
                 id="point-bool"),
    pytest.param({"start": {"point": [1, "2"]}}, "start.point", "numeric list",
                 id="point-string"),
    pytest.param({"set_a": {"type": "affine", "L": [[1, True]], "a": [6]}}, "set_a.L",
                 "wrong type bool", id="affine-L-bool"),
    pytest.param({"set_b": {"type": "ball", "center": [0, 0], "radius": True}},
                 "set_b.radius", "wrong type bool", id="ball-radius-bool"),
    pytest.param({"set_b": {"type": "ball", "center": [0, 0], "radius": "3"}},
                 "set_b.radius", "wrong type str", id="ball-radius-string"),
    pytest.param({"set_a": {"type": "hyperplane", "normal": [1, 5], "offset": "6"}},
                 "set_a.offset", "wrong type str", id="hyperplane-offset-string"),
    pytest.param({"set_b": {"type": "product", "components": [
        {"type": "orthant", "dim": 1}, {"type": "box", "lo": [0], "hi": [True]}]}},
        "set_b.components.1.hi", "wrong type bool", id="product-box-hi-bool"),
])
def test_numeric_fields_refuse_booleans_and_strings(tmp_path, capsys, edit, field, message):
    # true was read as 1 and "2" as 2, in a start point and in a set's numbers
    doc = small_problem(tmp_path, start={"point": [1.0, 2.0]})
    doc.update(edit)
    with pytest.raises(cli.ParseError, match=message) as exc:
        cli.parse_problem(json.dumps(doc))
    assert exc.value.fieldname == field
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--problem", str(path)]) == 2
    assert repr(field) in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_an_infinite_radius_is_refused(tmp_path, capsys):
    # 1e400 reads as inf: a ball that sends every point to itself, and that
    # serialize_problem would write back as Infinity, which is not JSON
    doc = small_problem(tmp_path, set_b={"type": "ball", "center": [0, 0], "radius": 7})
    text = json.dumps(doc).replace('"radius": 7', '"radius": 1e400')
    with pytest.raises(cli.ValidationError, match="radius must be finite"):
        cli.parse_problem(text)
    path = tmp_path / "prob.json"
    path.write_text(text)
    assert cli.main(["--problem", str(path)]) == 2
    assert "radius must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_bad_json_reports_line():
    with pytest.raises(cli.ParseError) as exc:
        cli.parse_problem('{\n  "dim": 2,\n  bad\n}')
    assert exc.value.line == 3


def test_grid_span_must_be_finite(tmp_path, capsys):
    # hi - lo overflows: linspace would make nan and inf starts
    doc = small_problem(tmp_path, start={"grid": {"lo": -1.7e308, "hi": 1.7e308, "steps": 3}})
    with pytest.raises(cli.ValidationError, match="span"):
        cli.parse_problem(json.dumps(doc))
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(small_problem(tmp_path)))
    assert cli.main(["--problem", str(path), "--grid=-1.7e308,1.7e308,3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


def test_load_problem_reads_a_file(tmp_path):
    text = json.dumps(small_problem(tmp_path))
    path = tmp_path / "prob.json"
    path.write_text(text)
    assert cli.load_problem(path) == cli.parse_problem(text)
    builtin = cli.builtin_problem_path("line_orthant.json")
    assert cli.load_problem(builtin) == cli.parse_problem(builtin.read_text())


def test_point_start_and_lift_route(tmp_path):
    doc = {
        "dim": 2,
        "sets": [
            {"type": "halfspace", "normal": [-1, -1], "offset": 0},
            {"type": "halfspace", "normal": [1, 0], "offset": 2},
        ],
        "lift": True,
        "methods": ["DRA"],
        "start": {"point": [10, 10]},
        "outputs": {"csv_path": str(tmp_path / "lifted.csv"), "record_at": []},
    }
    spec = cli.parse_problem(json.dumps(doc))
    rows = cli.sweep(spec)
    assert len(rows) == 1
    row = rows[0]
    assert row.exact and row.reason is d.Reason.EXACT_FIXED_POINT
    assert -row.final[1] - 1e-10 <= row.final[0] <= 2 + 1e-10


def test_roundtrip_serialize_parse(tmp_path):
    traced = small_problem(tmp_path, start={"point": [3, -4]})
    traced["outputs"]["trace_path"] = str(tmp_path / "trace.csv")
    for text in (
        cli.builtin_problem_path("line_orthant.json").read_text(),
        json.dumps(small_problem(tmp_path, start={"point": [3, -4]})),
        json.dumps(traced),
        json.dumps(oracle_problems(tmp_path)["lifted"]),
    ):
        spec = cli.parse_problem(text)
        again = cli.parse_problem(cli.serialize_problem(spec))
        assert again == spec
    # a builtin's parameters read back whole, not to six significant digits
    epigraph = oracle_problems(tmp_path)["epigraph"]
    epigraph["set_b"]["f"] = "quadratic(0.1234567,0,-1.0000001)"
    spec = cli.parse_problem(json.dumps(epigraph))
    again = cli.parse_problem(cli.serialize_problem(spec))
    assert again.set_b.f.params == spec.set_b.f.params == (0.1234567, 0.0, -1.0000001)
    # the trace path, which only a point problem takes, is written and read back
    spec = cli.parse_problem(json.dumps(traced))
    assert spec.to_dict()["outputs"]["trace_path"] == traced["outputs"]["trace_path"]
    assert cli.parse_problem(cli.serialize_problem(spec)).trace_path == spec.trace_path


def test_epigraph_descriptor_roundtrip():
    cfg = {"type": "epigraph", "f": "quadratic(1,0,-1)"}
    s = cli.set_from_config(cfg)
    assert isinstance(s, d.Epigraph1D)
    assert cli.set_to_config(s) == cfg
    rng = np.random.default_rng(31)
    for name, s in descriptor_zoo():
        if name == "shifted":
            with pytest.raises(cli.ValidationError):
                cli.set_to_config(s)
            continue
        cfg = cli.set_to_config(s)
        rebuilt = cli.set_from_config(json.loads(json.dumps(cfg)))
        assert type(rebuilt) is type(s) and cli.set_to_config(rebuilt) == cfg
        for x in rng.uniform(-8, 8, (5, s.dim)):
            assert np.array_equal(rebuilt.project(x), s.project(x))


# ---------------------------------------------------------------------------
# sweeps


def test_small_sweep_row_content(tmp_path):
    spec = cli.parse_problem(json.dumps(small_problem(tmp_path)))
    rows = cli.sweep(spec)
    assert len(rows) == 5 * 5 * 3
    orthant = d.Orthant(2)
    for row in rows:
        if row.method is d.MethodKind.DRA:
            assert row.exact and row.reason is d.Reason.EXACT_FIXED_POINT
        else:
            assert not row.exact and row.reason is d.Reason.FEASIBILITY
            assert orthant.distance(row.final) < 1e-4
        # monitored distances fall below the scan tolerances at first_n
        assert 0 <= row.first_n[0] <= row.first_n[1]
    center = [r for r in rows if np.array_equal(r.z0, [0.0, 0.0])]
    dra_center = next(r for r in center if r.method is d.MethodKind.DRA)
    assert dra_center.iterations == 2
    assert np.allclose(dra_center.final, [3 / 13, 15 / 13], rtol=0, atol=1e-12)


def test_sweep_row_order_is_row_major_then_method(tmp_path):
    spec = cli.parse_problem(json.dumps(small_problem(tmp_path, steps=3)))
    rows = cli.sweep(spec)
    assert np.array_equal(rows[0].z0, [-100.0, -100.0])
    assert [r.method for r in rows[:3]] == [
        d.MethodKind.DRA, d.MethodKind.MAP, d.MethodKind.MRP
    ]
    assert np.array_equal(rows[3].z0, [-100.0, 0.0])
    assert np.array_equal(rows[9].z0, [0.0, -100.0])


def test_first_n_matches_reference_scan(tmp_path):
    """Cross-check the recorded first-n-below-tolerance indices against an
    independent loop for MAP from (100, -100)."""
    doc = small_problem(tmp_path, start={"point": [100.0, -100.0]}, methods=["MAP"])
    spec = cli.parse_problem(json.dumps(doc))
    row = cli.sweep(spec)[0]

    L = np.array([1.0, 5.0])
    z = np.array([100.0, -100.0])
    firsts = {}
    for n in range(10000):
        db = np.linalg.norm(z - np.maximum(z, 0.0))
        for tol in (1e-2, 1e-4):
            if tol not in firsts and db < tol:
                firsts[tol] = n
        if len(firsts) == 2:
            break
        pb = np.maximum(z, 0.0)
        z = pb - (L @ pb - 6.0) / 26.0 * L
    assert row.first_n == (firsts[1e-2], firsts[1e-4])
    # DRA monitors the shadow: from (0, 0) it is feasible at n = 0
    doc2 = small_problem(tmp_path, start={"point": [0.0, 0.0]}, methods=["DRA"])
    row2 = cli.sweep(cli.parse_problem(json.dumps(doc2)))[0]
    assert row2.first_n == (0, 0)


def test_sweep_records_distances_past_termination(tmp_path):
    spec = cli.parse_problem(
        json.dumps(small_problem(tmp_path, start={"point": [1.0, 1.0]}))
    )
    rows = cli.sweep(spec)
    for row in rows:
        assert len(row.d_b_at) == 2
        assert all(np.isfinite(v) for v in row.d_b_at)
        assert row.d_b_at[1] <= 1e-10  # stationary or feasible by then


def test_sweep_from_intersection_point_terminates_immediately(tmp_path):
    doc = small_problem(tmp_path, start={"point": [6.0, 0.0]})
    rows = cli.sweep(cli.parse_problem(json.dumps(doc)))
    by_method = {r.method: r for r in rows}
    assert by_method[d.MethodKind.DRA].iterations == 1  # one certifying step
    assert by_method[d.MethodKind.DRA].exact
    assert by_method[d.MethodKind.MAP].iterations == 0
    assert by_method[d.MethodKind.MRP].iterations == 0
    for r in rows:
        assert np.allclose(r.final, [6.0, 0.0], rtol=0, atol=1e-12)
        assert r.first_n == (0, 0)


def test_sweep_flags_max_iter_rows(tmp_path):
    doc = small_problem(tmp_path, start={"point": [100.0, -100.0]})
    doc["stopping"]["max_iter"] = 3
    doc["outputs"]["record_at"] = []
    spec = cli.parse_problem(json.dumps(doc))
    rows = cli.sweep(spec)
    assert all(r.reason is d.Reason.MAX_ITER for r in rows if r.method is not d.MethodKind.DRA)
    never = (d.methods.NOT_REACHED,) * 2
    assert all(r.first_n == never or r.first_n[0] >= 0 for r in rows)


# ---------------------------------------------------------------------------
# lockstep sweeps against the one-start-at-a-time reference


class _MonitoredRun:
    """Reference monitoring of one finished run: distances read from its
    trace, and past its termination by extending it one step at a time."""

    def __init__(self, set_a, set_b, method, trace):
        self.set_a, self.set_b = set_a, set_b
        self.method = method
        self.shadow = method in (d.MethodKind.DRA, d.MethodKind.SPINGARN)
        self._d = [
            set_b.distance(trace.a[k]) if self.shadow else trace.d_b[k]
            for k in range(len(trace))
        ]
        self._z = trace.z[-1]

    def _advance(self, z):
        if self.shadow:
            return d.dra_step(self.set_a, self.set_b, z)[0]
        if self.method is d.MethodKind.MAP:
            return d.map_step(self.set_a, self.set_b, z)
        return d.mrp_step(self.set_a, self.set_b, z)

    def distance_at(self, n, cap):
        if n > cap:
            return float("nan")
        while n >= len(self._d):
            self._z = self._advance(self._z)
            point = self.set_a.project(self._z) if self.shadow else self._z
            self._d.append(self.set_b.distance(point))
        return self._d[n]

    def first_below(self, tol, cap):
        for n in range(cap + 1):
            if self.distance_at(n, cap) < tol:
                return n
        return d.methods.NOT_REACHED


def reference_sweep(spec):
    """The sweep one start and one method at a time, through ``run``."""
    if spec.lift_sets is not None:
        lp = d.lift(spec.lift_sets)
        set_a, set_b, embed, restrict = lp.set_a, lp.set_b, lp.embed, lp.restrict
    else:
        set_a, set_b = spec.set_a, spec.set_b
        embed = restrict = np.asarray
    if "point" in spec.start:
        starts = [spec.starts[0]]
    else:
        grid = spec.start["grid"]
        axis = np.linspace(grid["lo"], grid["hi"], grid["steps"])
        starts = [np.array([x, y]) for x in axis for y in axis]
    rows = []
    for z0 in starts:
        for method in spec.methods:
            if method in (d.MethodKind.DRA, d.MethodKind.SPINGARN):
                rules = [d.ExactFixedPoint(spec.eta), d.MaxIter(spec.max_iter)]
            else:
                rules = [d.Feasibility(spec.tol, spec.monitor), d.MaxIter(spec.max_iter)]
            trace = d.run(set_a, set_b, method, embed(z0), rules)
            mon = _MonitoredRun(set_a, set_b, method, trace)
            rows.append(cli.SweepRow(
                z0=z0,
                method=method,
                iterations=trace.iterations,
                exact=trace.termination.exact,
                final=restrict(trace.final_point),
                d_b_at=tuple(mon.distance_at(n, spec.max_iter) for n in spec.record_at),
                first_n=tuple(mon.first_below(t, spec.max_iter) for t in d.methods.FIRST_N_TOLS),
                reason=trace.termination.reason,
            ))
    return rows


LIFTED_SETS = [
    {"type": "halfspace", "normal": [-1, -1], "offset": 0},
    {"type": "halfspace", "normal": [1, 0], "offset": 2},
    {"type": "box", "lo": [-5, -5], "hi": [5, 5]},
    {"type": "ball", "center": [1, 1], "radius": 3},
    {"type": "polygon", "vertices": [[2, -2], [2, 10], [-10, 10]]},
]
ALL_METHODS = ["DRA", "MAP", "MRP", "SPINGARN"]


def oracle_problems(tmp_path):
    line = small_problem(tmp_path, methods=ALL_METHODS)
    line["outputs"]["record_at"] = [0, 5, 10]
    shadow = small_problem(tmp_path, methods=ALL_METHODS)
    shadow["stopping"]["monitor"] = "shadow"
    capped = small_problem(tmp_path, methods=ALL_METHODS)
    capped["stopping"]["max_iter"] = 8
    capped["outputs"]["record_at"] = [5, 8, 9]
    lifted = small_problem(tmp_path, steps=3, methods=ALL_METHODS,
                           start={"grid": {"lo": -10, "hi": 10, "steps": 3}})
    del lifted["set_a"], lifted["set_b"]
    lifted.update(sets=LIFTED_SETS, lift=True)
    epigraph = small_problem(tmp_path, methods=ALL_METHODS,
                             start={"grid": {"lo": -10, "hi": 10, "steps": 5}})
    epigraph["set_a"] = {"type": "hyperplane", "normal": [0, 1], "offset": 0}
    epigraph["set_b"] = {"type": "epigraph", "f": "quadratic(1,0,-1)"}
    epigraph_abs = dict(epigraph, set_b={"type": "epigraph", "f": "absshift(1,-1)"})
    epigraph_quad = dict(epigraph, set_b={"type": "epigraph", "f": "quadratic(0.5,1,-3)"})
    # x + 5y = -6 misses the orthant: every run meets the cap, and MAP's
    # steps shrink until the exact test passes at its last one
    infeasible = small_problem(tmp_path, steps=3, methods=ALL_METHODS)
    infeasible["set_a"]["a"] = [-6]
    infeasible["stopping"]["max_iter"] = 200
    # the line as an affine hyperplane, which SPINGARN translates
    hyperplane = small_problem(tmp_path, methods=ALL_METHODS)
    hyperplane["set_a"] = {"type": "hyperplane", "normal": [1, 5], "offset": 6}
    return {"line": line, "shadow": shadow, "capped": capped,
            "infeasible": infeasible, "lifted": lifted, "epigraph": epigraph,
            "epigraph_abs": epigraph_abs, "epigraph_quad": epigraph_quad,
            "hyperplane": hyperplane}


def plan_rows(set_a, set_b, plans, Z, record_at=()):
    """run_rows' columns as SweepRows: start i and the k-th plan in row
    i * len(plans) + k."""
    res = d.run_rows(set_a, set_b, plans, Z, record_at)
    return [cli.SweepRow(z0, method, *(res[f][i] for f in cli.SweepRow._fields[2:]))
            for i, (z0, method) in enumerate(itertools.product(Z, plans))]


def assert_rows_match(rows, expected, rtol):
    assert len(rows) == len(expected)
    for got, want in zip(rows, expected):
        exact_fields = ("method", "iterations", "exact", "first_n", "reason")
        assert [getattr(got, f) for f in exact_fields] == [
            getattr(want, f) for f in exact_fields
        ], (want.z0, want.method)
        assert np.array_equal(got.z0, want.z0)
        for a, b in ((got.final, want.final), (got.d_b_at, want.d_b_at)):
            np.testing.assert_allclose(a, b, rtol=rtol, atol=rtol, equal_nan=True)


@pytest.mark.parametrize(
    "name", ["line", "shadow", "capped", "infeasible", "lifted", "epigraph",
             "epigraph_abs", "epigraph_quad", "hyperplane"]
)
def test_sweep_matches_reference_sweep(tmp_path, name):
    spec = cli.parse_problem(json.dumps(oracle_problems(tmp_path)[name]))
    rows = cli.sweep(spec)
    # rtol=0: each scalar projector has its row form's bits, so the sweep
    # and the one-start reference agree to the last bit
    assert_rows_match(rows, reference_sweep(spec), rtol=0)
    if name == "infeasible":
        assert all(r.reason is d.Reason.MAX_ITER for r in rows)
        assert any(r.exact for r in rows if r.method is d.MethodKind.MAP)
    if name == "capped":
        # the cap truncates some runs before either tolerance is reached,
        # and an index past the cap has no distance
        assert any(r.first_n[1] == d.methods.NOT_REACHED for r in rows)
        assert any(r.reason is d.Reason.MAX_ITER for r in rows)
        assert all(np.isnan(r.d_b_at[2]) and not np.isnan(r.d_b_at[1]) for r in rows)


@pytest.mark.parametrize(
    "name", ["line", "lifted", "epigraph", "epigraph_abs", "epigraph_quad"]
)
def test_sweep_rows_do_not_depend_on_the_batch(tmp_path, name):
    doc = oracle_problems(tmp_path)[name]
    spec = cli.parse_problem(json.dumps(doc))
    rows = cli.sweep(spec)
    by_start = len(spec.methods)
    for k, z0 in enumerate(spec.starts):
        doc["start"] = {"point": z0.tolist()}
        alone = cli.sweep(cli.parse_problem(json.dumps(doc)))
        assert_rows_match(rows[k * by_start : (k + 1) * by_start], alone, rtol=0)


@pytest.mark.parametrize("name", ["line", "shadow", "capped", "lifted", "epigraph"])
def test_sweep_rows_do_not_depend_on_the_other_methods(tmp_path, name):
    # all four methods share one lockstep loop; each method's rows keep
    # every bit when it runs alone or with the methods in reverse order
    doc = oracle_problems(tmp_path)[name]
    rows = cli.sweep(cli.parse_problem(json.dumps(doc)))
    for methods in [[m] for m in ALL_METHODS] + [ALL_METHODS[::-1]]:
        other = cli.sweep(cli.parse_problem(json.dumps(dict(doc, methods=methods))))
        for m in map(d.MethodKind, methods):
            assert_rows_match([r for r in other if r.method is m],
                              [r for r in rows if r.method is m], rtol=0)


def test_sweep_steps_all_methods_in_one_loop(tmp_path, monkeypatch):
    # DRA, MAP and MRP on the 11 x 11 line grid: the loop runs as many
    # iterations as the longest method, not their sum, and each iteration
    # projects onto B once (every row's point and DRA's reflections) and onto
    # A at most twice (the feasibility test, and the update of all methods
    # together, which gives the next shadows; the first ones precede the loop)
    spec = cli.parse_problem(json.dumps(small_problem(tmp_path, steps=11)))
    events = []

    def logged(name, f):
        def wrapper(X):
            events.append(name)
            return f(X)
        return wrapper

    for name, s in (("a", spec.set_a), ("b", spec.set_b)):
        monkeypatch.setattr(s, "_project_rows", logged(name, s._project_rows), raising=False)
    monkeypatch.setattr(d.methods, "_norms", logged("norms", d.methods._norms))
    rows = cli.sweep(spec)
    steps = [max(r.iterations for r in rows if r.method is m) for m in spec.methods]
    assert steps == [114, 310, 153]
    # an iteration starts with P_B of every row's point and the distances
    loops = sum(pair == ("b", "norms") for pair in zip(events, events[1:]))
    assert loops == max(steps) + 1          # n = 0, ..., 310; one loop per method took 580
    assert events.count("b") == loops and events.count("a") <= 2 * loops
    # 478 and 425 with DRA's own calls for its shadows and reflections,
    # 633 and 694 with one loop per method
    assert (events.count("a"), events.count("b")) == (364, 311)


def test_sweep_runs_the_newton_kernel_once_per_step(monkeypatch):
    # the benchmark's 21 x 21 epigraph sweep (DRA, MAP and MRP): the one
    # call onto B of a loop iteration holds the DRA reflections beside every
    # row's point, so the quadratic's Newton kernel runs once per iteration;
    # it ran 25 times in the 13 iterations while DRA projected its own
    path = Path(__file__).resolve().parents[1] / "perfbench" / "problems" / "epigraph.json"
    spec = cli.load_problem(path)
    events = []

    def logged(name, f):
        def wrapper(*args):
            events.append(name)
            return f(*args)
        return wrapper

    monkeypatch.setattr(d.epigraph, "_quadratic_projection_rows",
                        logged("kernel", d.epigraph._quadratic_projection_rows))
    monkeypatch.setattr(d.methods, "_norms", logged("norms", d.methods._norms))
    cli.sweep(spec)
    loops = sum(pair == ("kernel", "norms") for pair in zip(events, events[1:]))
    assert events.count("kernel") == loops == 13


@pytest.mark.parametrize("method", ALL_METHODS)
def test_sweep_overflow_fails_loudly(tmp_path, method):
    # finite starts up to the largest float: the projection onto x + y = 0
    # or the step overflows within the first steps, and the sweep's own
    # per-step check raises (not the check of the starts)
    doc = small_problem(tmp_path, steps=3, methods=[method],
                        start={"grid": {"lo": 0, "hi": 1.7e308, "steps": 3}})
    doc["set_a"] = {"type": "hyperplane", "normal": [1, 1], "offset": 0}
    spec = cli.parse_problem(json.dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="vector coordinates must be finite") as exc:
            cli.sweep(spec)
    assert exc.traceback[-1].name == "run_rows"


def test_sweep_certifies_nothing_on_an_infinite_bound(tmp_path):
    # as in run: from (1e200, 0), ||z_n|| overflows and the bound is inf
    doc = small_problem(tmp_path, start={"point": [1e200, 0.0]}, methods=["DRA", "SPINGARN"])
    doc["stopping"]["max_iter"] = 20
    spec = cli.parse_problem(json.dumps(doc))
    with np.errstate(over="ignore"):
        rows = cli.sweep(spec)
    assert [(r.reason, r.iterations, r.exact) for r in rows] == [(d.Reason.MAX_ITER, 20, False)] * 2


@pytest.mark.parametrize("monitor", list(d.Monitor), ids=lambda m: m.value)
def test_sweep_stops_by_the_rules_of_rules_for(tmp_path, monitor):
    # run_rows takes its eta, feasibility rule and cap from the plans alone,
    # so rules other than _rules_for's stop each row as they stop run from
    # its start: a feasibility rule on either point, for DRA (whose point
    # is the shadow) and for MAP (whose point is the iterate)
    rules = {
        d.MethodKind.DRA: [d.Feasibility(1e-2, monitor), d.MaxIter(25)],
        d.MethodKind.MAP: [d.Feasibility(1e-9, monitor), d.ExactFixedPoint(1e-2),
                           d.MaxIter(30)],
    }
    spec = cli.parse_problem(json.dumps(small_problem(tmp_path, methods=["DRA", "MAP"])))
    rows = plan_rows(spec.set_a, spec.set_b, rules, spec.starts)
    assert {r.reason for r in rows} == set(d.Reason)
    for row in rows:
        tr = d.run(spec.set_a, spec.set_b, row.method, row.z0, rules[row.method])
        t = tr.termination
        assert (row.iterations, row.exact, row.reason) == (tr.iterations, t.exact, t.reason)


@pytest.mark.parametrize("monitor, steps, a_rows, norm_rows", [
    pytest.param("iterate", (15468, 15275), 31646, 32372, id="iterate"),
    pytest.param("shadow", (15463, 15269), 62548, 63254, id="shadow"),
])
def test_sweep_computes_only_what_a_rule_reads(tmp_path, monkeypatch, monitor, steps,
                                               a_rows, norm_rows):
    # MAP and MRP on the 11 x 11 line grid: d_A(w) is taken only where
    # d_B(w) < tol, and the exactness test only for the rows that stop, so
    # set A projects the steps' rows and few more (on the shadow, also
    # P_A z_n of the running rows), and few rows go through _norms besides
    # the monitored distance
    doc = small_problem(tmp_path, steps=11, methods=["MAP", "MRP"])
    doc["stopping"]["monitor"] = monitor
    spec = cli.parse_problem(json.dumps(doc))
    counts = {"a": 0, "norms": 0}
    project_a, norms = spec.set_a._project_rows, d.methods._norms

    def counted_project_a(X):
        counts["a"] += X.shape[0]
        return project_a(X)

    def counted_norms(D):
        counts["norms"] += D.shape[0]
        return norms(D)

    monkeypatch.setattr(spec.set_a, "_project_rows", counted_project_a, raising=False)
    monkeypatch.setattr(d.methods, "_norms", counted_norms)
    rows = cli.sweep(spec)
    assert tuple(sum(r.iterations for r in rows if r.method is m) for m in spec.methods) == steps
    # projecting A and taking every norm at every step would give 62,906
    # and 125,812 on the iterate; testing the shadow of every batch row
    # with max(d_A, d_B) gave 94,480 and 95,186
    assert counts == {"a": a_rows, "norms": norm_rows}


def _numpy_call(fn):
    """A C function or method of numpy: np.zeros, ndarray.take, ufunc.reduce."""
    module = getattr(fn, "__module__", None) or type(getattr(fn, "__self__", None)).__module__
    return module.split(".")[0] == "numpy"


def _step_counts(kinds, ruled, cap):
    """Calls onto A and B, calls to _norms and numpy C calls that
    sys.setprofile sees while run_rows runs one start of the line problem
    under _rules_for's plans or a cap alone, to the cap."""
    doc = {"dim": 2, **LINE_GRID, "methods": list(kinds), "start": {"point": [100.0, -100.0]},
           "stopping": {"eta": 1e-14, "tol": 1e-4, "monitor": "iterate", "max_iter": cap},
           "outputs": {"record_at": [5, 10]}}
    spec = cli.parse_problem(json.dumps(doc))
    plans = {m: cli._rules_for(m, spec) if ruled else d.MaxIter(cap) for m in spec.methods}
    counts = dict.fromkeys(("a", "b", "norms", "numpy"), 0)

    def counted(name, f):
        def wrapper(X):
            counts[name] += 1
            return f(X)
        return wrapper

    def profile(frame, event, fn):
        if event == "c_call" and _numpy_call(fn):
            counts["numpy"] += 1

    set_a, set_b, norms = spec.set_a, spec.set_b, d.methods._norms
    set_a._project_rows = counted("a", set_a._project_rows)
    set_b._project_rows = counted("b", set_b._project_rows)
    d.methods._norms = counted("norms", norms)
    sys.setprofile(profile)
    try:
        res = d.run_rows(set_a, set_b, plans, spec.starts, spec.record_at)
    finally:
        sys.setprofile(None)
        d.methods._norms = norms
    assert (res["iterations"] == cap).all()     # no rule stops the start before the cap
    return counts


@pytest.mark.parametrize("kinds, ruled, a, b, norms, numpy_calls", [
    pytest.param(("DRA",), True, 1, 1, 3, 5, id="DRA-rules"),
    pytest.param(("DRA",), False, 1, 1, 1, 0, id="DRA-cap"),
    pytest.param(("MAP",), True, 1, 1, 1, 2, id="MAP-rules"),
    pytest.param(("MAP",), False, 1, 1, 1, 1, id="MAP-cap"),
    pytest.param(("DRA", "MAP", "MRP"), True, 1, 1, 3, 8, id="DRA-MAP-MRP-rules"),
    pytest.param(("DRA", "MAP", "MRP"), False, 1, 1, 1, 2, id="DRA-MAP-MRP-cap"),
    pytest.param(("SPINGARN", "MRP"), True, 1, 2, 3, 7, id="SPINGARN-MRP-rules"),
    pytest.param(("SPINGARN", "MRP"), False, 1, 2, 1, 1, id="SPINGARN-MRP-cap"),
])
def test_a_row_step_pays_only_for_its_blocks_and_rules(kinds, ruled, a, b, norms, numpy_calls):
    # one step of a batch of one start (the counts to cap 4 less those to
    # cap 3): a rule that no block carries, a cap that no row has reached
    # and a record index past every record cost it no numpy call.  The
    # profiler sees numpy's functions and methods, not its ufuncs, its array
    # operators or the functions that dispatch through __array_function__
    # (np.concatenate, and np.vdot, the one call of each finite check);
    # counting those too, the steps make 7, 2, 3, 2, 12, 6, 10 and 4 calls in
    # the order above.  Each step took 13, 9, 10, 10, 15, 11, 14 and 10 seen
    # calls when every step built every rule's mask
    step = {k: v4 - v3 for (k, v4), v3 in zip(_step_counts(kinds, ruled, 4).items(),
                                              _step_counts(kinds, ruled, 3).values())}
    assert step == {"a": a, "b": b, "norms": norms, "numpy": numpy_calls}


def test_sweep_exact_matches_run_where_map_and_mrp_stop(tmp_path):
    # MAP and MRP take the exactness test only at their stopping record:
    # there is none at n = 0 (a start in A and B), and at the cap the
    # last step decides it, true on the line that misses the orthant
    docs = [small_problem(tmp_path, methods=["MAP", "MRP"], start={"point": p})
            for p in ([6.0, 0.0], [1.0, 1.0])]
    capped = small_problem(tmp_path, steps=3, methods=["MAP", "MRP"])
    capped["stopping"]["max_iter"] = 3
    infeasible = small_problem(tmp_path, steps=3, methods=["MAP", "MRP"])
    infeasible["set_a"]["a"] = [-6]
    infeasible["stopping"]["max_iter"] = 200
    seen = set()
    for doc in docs + [capped, infeasible]:
        spec = cli.parse_problem(json.dumps(doc))
        for row in cli.sweep(spec):
            tr = d.run(spec.set_a, spec.set_b, row.method, row.z0,
                       cli._rules_for(row.method, spec))
            t = tr.termination
            assert (row.iterations, row.exact, row.reason) == (tr.iterations, t.exact, t.reason)
            seen.add((row.iterations == 0, row.reason, row.exact))
    assert {(True, d.Reason.FEASIBILITY, False), (False, d.Reason.MAX_ITER, False),
            (False, d.Reason.MAX_ITER, True)} <= seen


def _epigraph_functions(seed):
    """Seeded builtins with inf f <= -0.5, parameters of one decimal so that
    the problem-file text is exact (DRA's finite step count grows as inf f
    nears 0: 5,008 steps on quadratic(2,-2.4,0.7), inf f = -0.02)."""
    rng = np.random.default_rng(seed)
    fs = []
    while len(fs) < 20:
        f = d.quadratic(rng.integers(1, 40) / 10, rng.integers(-30, 31) / 10,
                        rng.integers(-40, 11) / 10)
        if f.inf_value <= -0.5:
            fs.append(f)
    return fs + [d.absshift(rng.integers(1, 40) / 10, -rng.integers(1, 40) / 10)
                 for _ in range(5)]


def test_sweep_from_the_x_axis_to_an_epigraph_ends_exact(tmp_path):
    # the paper's hyperplane-epigraph case: with inf f < 0, DRA from the
    # x-axis to epi f converges finitely, on the row path as in run
    for f in _epigraph_functions(1801):
        doc = small_problem(tmp_path, start={"grid": {"lo": -5, "hi": 5, "steps": 7}})
        doc["set_a"] = {"type": "hyperplane", "normal": [0, 1], "offset": 0}
        doc["set_b"] = {"type": "epigraph", "f": f.spec_name()}
        spec = cli.parse_problem(json.dumps(doc))
        assert (spec.set_b.f.kind, spec.set_b.f.params) == (f.kind, f.params)
        for row in cli.sweep(spec):
            assert row.method is not d.MethodKind.DRA or row.reason is d.Reason.EXACT_FIXED_POINT
            tr = d.run(spec.set_a, spec.set_b, row.method, row.z0,
                       cli._rules_for(row.method, spec))
            t = tr.termination
            assert (row.iterations, row.exact, row.reason) == (tr.iterations, t.exact, t.reason)


def test_dra_ends_exact_on_a_hyperplane_through_the_orthant_apex():
    # Slater's condition is sufficient, not necessary: sum(x) = 0 meets the
    # orthant only at 0, so no point of the hyperplane is interior to it,
    # yet DRA ends exact from every start, in run and in run_rows
    for n in (2, 10, 50):
        Z = np.random.default_rng(1900 + n).uniform(-10, 10, (20, n))
        set_a, set_b = d.Hyperplane([1] * n, 0), d.Orthant(n)
        rules = [d.ExactFixedPoint(1e-14), d.MaxIter(100000)]
        res = d.run_rows(set_a, set_b, {d.MethodKind.DRA: rules}, Z)
        assert list(res["reason"]) == [d.Reason.EXACT_FIXED_POINT] * len(Z)
        for z0, final in zip(Z, res["final"]):
            tr = d.run(set_a, set_b, d.MethodKind.DRA, z0, rules)
            t = tr.termination
            assert t.reason is d.Reason.EXACT_FIXED_POINT
            for z in (final, tr.final_point):
                shadow = set_a.project(z)
                assert set_a.distance(shadow) <= 1e-12
                assert set_b.distance(shadow) <= 1e-12


def test_sweep_with_a_cap_alone_matches_run(tmp_path):
    # neither an exactness nor a feasibility rule: every row stops at the
    # cap with the flag of its last step
    spec = cli.parse_problem(json.dumps(small_problem(tmp_path, methods=ALL_METHODS)))
    plans = dict.fromkeys(spec.methods, [d.MaxIter(4)])
    for row in plan_rows(spec.set_a, spec.set_b, plans, spec.starts):
        tr = d.run(spec.set_a, spec.set_b, row.method, row.z0, [d.MaxIter(4)])
        t = tr.termination
        assert (row.iterations, row.exact, row.reason) == (4, t.exact, d.Reason.MAX_ITER)
        assert np.array_equal(row.final.view(np.int64), tr.final_point.view(np.int64))


def test_sweep_matches_run_under_random_rule_plans(tmp_path, monkeypatch):
    # each row is tested by the rules its method carries, whatever rules
    # the other methods in the batch carry: seeded plans of an optional
    # exactness rule, an optional feasibility rule on either monitor and a
    # cap, for random method subsets and orders.  A row steps on past its
    # stop until it knows first_n and has passed its last record, or to its
    # cap, so its records match a run to that cap with no other rule: d_B
    # at the method's point (the shadow for DRA and SPINGARN, the iterate
    # for MAP and MRP), nan at an index past the cap
    rng = np.random.default_rng(2004)
    record_at = [0, 3, 9, 25, 61]          # 61: past every cap
    seen, pair_rows, past_stop = set(), [], 0
    step = d.methods._Spingarn.step

    def logged(pair):                      # SPINGARN's row count at each step
        pair_rows[-1].append(len(pair.a))
        return step(pair)

    monkeypatch.setattr(d.methods._Spingarn, "step", logged)
    for _ in range(30):
        methods = rng.permutation(ALL_METHODS)[:rng.integers(1, 5)].tolist()
        plan = {}
        for method in map(d.MethodKind, methods):
            rules = [d.MaxIter(int(rng.integers(1, 61)))]
            if rng.random() < 0.5:
                rules.append(d.ExactFixedPoint(10 ** rng.uniform(-14, -2)))
            if rng.random() < 0.5:
                rules.append(d.Feasibility(10 ** rng.uniform(-9, -1),
                                           list(d.Monitor)[rng.integers(2)]))
            plan[method] = [rules[k] for k in rng.permutation(len(rules))]
        spec = cli.parse_problem(json.dumps(small_problem(tmp_path, steps=3, methods=methods)))
        pair_rows.append([])
        for row in plan_rows(spec.set_a, spec.set_b, plan, spec.starts, record_at):
            tr = d.run(spec.set_a, spec.set_b, row.method, row.z0, plan[row.method])
            t = tr.termination
            assert (row.iterations, row.exact, row.reason) == (tr.iterations, t.exact, t.reason)
            assert np.array_equal(row.final.view(np.int64), tr.final_point.view(np.int64))
            seen.add((row.reason, row.exact))
            cap = d.trace.normalize_rules(plan[row.method])[2]
            full = d.run(spec.set_a, spec.set_b, row.method, row.z0, d.MaxIter(cap))
            point = full.a if row.method in d.methods._SHADOW_METHODS else full.z
            d_b = d.methods._norms(point - spec.set_b._project_rows(point))
            want = [d_b[m] if m <= cap else np.nan for m in record_at]
            past_stop += sum(row.iterations < m <= cap for m in record_at)
            assert np.array_equal(row.d_b_at, want, equal_nan=True), (row.z0, row.method)
            assert row.first_n.tolist() == [int(np.argmax(below)) if below.any() else d.methods.NOT_REACHED
                                            for below in (d_b[:, None] < d.methods.FIRST_N_TOLS).T]
    assert {(d.Reason.FEASIBILITY, False), (d.Reason.EXACT_FIXED_POINT, True),
            (d.Reason.MAX_ITER, False), (d.Reason.MAX_ITER, True)} <= seen
    # records past a row's stop, and SPINGARN rows that leave the batch
    # while other SPINGARN rows step on
    assert past_stop > 0
    assert any(0 < b < a for rows in pair_rows for a, b in zip(rows, rows[1:]))


@pytest.mark.parametrize("name", ["line", "epigraph", "lifted"])
def test_run_rows_equals_run_to_the_bit(name):
    # one arithmetic per projector: every row of run_rows ends as run from
    # its start alone, final point to the last bit (the sign of zero
    # included), iterations, reason and exact flag.  The 11 x 11 line grid
    # with all four methods, and 5 x 5 grids of the benchmark's epigraph
    # and lifted problem files
    if name == "line":
        doc = {"dim": 2, **LINE_GRID, "stopping": {"eta": 1e-14, "tol": 1e-4,
                                                    "monitor": "iterate", "max_iter": 100000}}
    else:
        problem = Path(__file__).resolve().parents[1] / "perfbench" / "problems" / f"{name}.json"
        doc = json.loads(problem.read_text())
        doc["start"]["grid"]["steps"] = 5
    spec = cli.parse_problem(json.dumps(doc))
    set_a, set_b, embed, _ = cli._resolve_sets(spec)
    Z = embed(spec.starts)
    plans = {m: cli._rules_for(m, spec) for m in spec.methods}
    res = d.run_rows(set_a, set_b, plans, Z)
    for i, (z0, method) in enumerate(itertools.product(Z, plans)):
        tr = d.run(set_a, set_b, method, z0, plans[method])
        t = tr.termination
        got = (res["iterations"][i], res["reason"][i], res["exact"][i])
        assert got == (tr.iterations, t.reason, t.exact), (z0, method)
        assert np.array_equal(res["final"][i].view(np.int64), tr.final_point.view(np.int64)), (z0, method)


def test_sweep_rejects_sets_of_different_dimensions():
    # as run does: a line of R^2 against the orthant of R^3 is refused
    # before the first step, not stepped from 2-D starts
    set_a, set_b = d.Affine([[1, 5]], [6]), d.Orthant(3)
    Z = np.array([[1.0, 2.0], [-3.0, 4.0]])
    with pytest.raises(d.DimensionMismatchError, match="^sets have dimensions 2 and 3$"):
        d.run(set_a, set_b, d.MethodKind.DRA, Z[0])
    kinds = list(map(d.MethodKind, ALL_METHODS))
    for methods in [[m] for m in kinds] + [kinds]:
        with pytest.raises(d.DimensionMismatchError, match="^sets have dimensions 2 and 3$"):
            d.run_rows(set_a, set_b, dict.fromkeys(methods), Z)


def test_sweep_rejects_an_unknown_method(tmp_path):
    # a method name instead of a MethodKind: the sweep raises before its
    # first step, rather than stepping by some other rule
    spec = cli.parse_problem(json.dumps(small_problem(tmp_path)))
    with pytest.raises(ValueError, match="unknown method"):
        d.run_rows(spec.set_a, spec.set_b, {"DRA": None}, spec.starts)


def test_sweep_rows_keep_their_fields_and_types(tmp_path):
    assert cli.SweepRow._fields == ("z0", "method", "iterations", "exact", "final",
                                    "d_b_at", "first_n", "reason")
    plain = small_problem(tmp_path, steps=3, methods=ALL_METHODS)
    for doc in (plain, oracle_problems(tmp_path)["lifted"]):
        rows = cli.sweep(cli.parse_problem(json.dumps(doc)))
        assert len(rows) == 3 * 3 * len(ALL_METHODS)
        for row in rows:
            for point in (row.z0, row.final):
                assert type(point) is np.ndarray
                assert (point.dtype, point.shape) == (np.float64, (2,))
            assert isinstance(row.method, d.MethodKind)
            assert type(row.iterations) is int and type(row.exact) is bool
            assert type(row.d_b_at) is tuple and type(row.first_n) is tuple
            assert all(type(v) is float for v in row.d_b_at)
            assert all(type(v) is int for v in row.first_n)
            assert isinstance(row.reason, d.Reason)
        with pytest.raises(AttributeError):
            rows[0].exact = not rows[0].exact


def test_benchmark_hooks_exist():
    # perfbench/tracing.py swaps these module attributes for timed wrappers;
    # it lives outside the package, so it is loaded by its path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    loader = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tracing)
    for name in ("run", "lift", *tracing.STEP_NAMES):
        assert callable(getattr(cli, name)), name
    assert callable(d.methods.IterationTrace)
    assert callable(d.epigraph.project_epigraph)
    with tracing.Tracer().instrument():
        pass
    assert cli.run is d.methods.run


def test_specs_have_what_the_benchmark_reads():
    # perfbench/ reads these attributes of a spec parsed from the shipped
    # problem and from its two problem files; the spec's fields are pinned,
    # so that a refactor of the spec cannot silently break a workload or
    # the traced pass
    root = Path(__file__).resolve().parents[1]
    paths = [cli.builtin_problem_path("line_orthant.json"),
             *sorted((root / "perfbench" / "problems").glob("*.json"))]
    assert [p.name for p in paths] == ["line_orthant.json", "epigraph.json", "lifted.json"]
    for path in paths:
        spec = cli.load_problem(path)
        for name in ("set_a", "set_b", "lift_sets", "methods", "record_at", "eta", "tol",
                     "monitor", "max_iter"):
            assert hasattr(spec, name), (path.name, name)
    assert [f.name for f in dataclasses.fields(cli.ProblemSpec)] == [
        "dim", "methods", "set_a", "set_b", "lift_sets", "start", "starts", "eta", "tol",
        "monitor", "max_iter", "csv_path", "trace_path", "record_at"]


def test_run_rows_is_the_one_row_driver():
    # the row engine has one home, methods; cli maps a problem to rule
    # plans and writes the rows, and holds no stepping code of its own
    assert d.run_rows is d.methods.run_rows
    for name in ("_sweep_methods", "_exact_rows", "_step", "_Spingarn", "_norms"):
        assert not hasattr(cli, name), name


# ---------------------------------------------------------------------------
# CSV emission


def test_csv_header_is_fixed():
    assert (
        cli.csv_header(2, [5, 10])
        == "z0_x,z0_y,method,iterations,exact,final_x,final_y,"
        "dB_at_5,dB_at_10,first_n_tol_1e2,first_n_tol_1e4,reason"
    )
    assert (
        cli.csv_header(2, [])
        == "z0_x,z0_y,method,iterations,exact,final_x,final_y,"
        "first_n_tol_1e2,first_n_tol_1e4,reason"
    )


def test_one_row_csv(tmp_path):
    doc = small_problem(tmp_path, start={"point": [0.0, 0.0]}, methods=["DRA"])
    spec = cli.parse_problem(json.dumps(doc))
    rows = cli.sweep(spec)
    out = tmp_path / "one.csv"
    cli.emit_csv(rows, out, spec.record_at)
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[2] == "DRA" and cells[3] == "2" and cells[4] == "true"
    assert float(cells[5]) == pytest.approx(3 / 13, abs=1e-12)
    assert cells[-1] == "exact_fixed_point"
    # floats carry 17 significant digits and parse back exactly
    assert float(cells[5]) == float(format(float(cells[5]), ".17g"))


def test_csv_deterministic(tmp_path):
    spec = cli.parse_problem(json.dumps(small_problem(tmp_path)))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.emit_csv(cli.sweep(spec), out1, spec.record_at)
    cli.emit_csv(cli.sweep(spec), out2, spec.record_at)
    assert out1.read_bytes() == out2.read_bytes()


def test_full_grid_cardinality(tmp_path):
    spec = cli.parse_problem(json.dumps(small_problem(tmp_path, steps=41)))
    assert len(spec.starts) == 41 * 41
    # 41 x 41 x 3 = 5043 data rows for the shipped experiment


def test_emit_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        cli.emit_csv([], tmp_path / "x.csv", [])


def _fmt(value):
    return format(float(value), ".17g")


def per_cell_csv(rows, record_at):
    """The CSV as written one ``_fmt`` call per float cell."""
    lines = [cli.csv_header(len(rows[0].z0), record_at)]
    for row in rows:
        cells = [_fmt(c) for c in row.z0]
        cells += [row.method.value, str(row.iterations),
                  "true" if row.exact else "false"]
        cells += [_fmt(c) for c in row.final]
        cells += [_fmt(v) for v in row.d_b_at]
        cells += [str(n) for n in row.first_n]
        cells.append(row.reason.value)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def per_cell_trace(traces):
    """The trace CSV as written one ``_fmt`` call per float cell."""
    dim = next(iter(traces.values())).z[0].shape[0]
    cols = ["n", "method"]
    for prefix in ("z", "a", "r", "pbr"):
        cols += cli._coord_names(prefix, dim)
    lines = [",".join(cols + ["d_A", "d_B"])]
    for method, trace in traces.items():
        for k, n in enumerate(trace.steps):
            cells = [str(n), method.value]
            for seq in (trace.z, trace.a, trace.r, trace.pbr):
                cells += [_fmt(c) for c in seq[k]]
            cells += [_fmt(trace.d_a[k]), _fmt(trace.d_b[k])]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e-300, 3 / 13, -1e-5, 123456789.125]


@pytest.mark.parametrize("dim, record_at", [(2, [5, 10, 200]), (3, [0]), (2, [])])
def test_emit_csv_matches_per_cell_writer(tmp_path, dim, record_at):
    def cells(start, n):
        return [EDGE_FLOATS[(start + j) % len(EDGE_FLOATS)] for j in range(n)]

    rows = []
    for k, method in enumerate(d.MethodKind):
        for j, first_n in enumerate([(3, 17), (0, d.methods.NOT_REACHED),
                                     (d.methods.NOT_REACHED, d.methods.NOT_REACHED)]):
            i = 3 * k + j
            rows.append(cli.SweepRow(
                z0=np.array(cells(i, dim)), method=method, iterations=1000 * i,
                exact=bool(i % 2), final=np.array(cells(i + 5, dim)),
                # an index in record_at past the cap has no distance: nan
                d_b_at=tuple(float("nan") if n > 100 else v
                             for n, v in zip(record_at, cells(i + 7, len(record_at)))),
                first_n=first_n, reason=list(d.Reason)[i % len(d.Reason)],
            ))
    out = tmp_path / "rows.csv"
    cli.emit_csv(rows, out, record_at)
    assert out.read_bytes() == per_cell_csv(rows, record_at).encode()


Z0_A = np.array([3 / 13, -0.0])
Z0_B = np.array([1e-300, 123456789.125])


@pytest.mark.parametrize("z0s", [
    [Z0_A] * 4,                              # one object on consecutive rows
    [Z0_A, Z0_A, Z0_B, Z0_B, Z0_A],          # an A, B, A order of shared objects
    [Z0_A, Z0_A.copy(), Z0_A.copy(), Z0_B, Z0_B.copy()],  # equal but distinct arrays
], ids=["shared", "a_b_a", "equal_copies"])
def test_emit_csv_formats_z0_by_object(tmp_path, z0s):
    # emit_csv formats a z0 once for the rows that share its object; every
    # row still prints its own start
    rows = [cli.SweepRow(z0, method, 7 * k, bool(k % 2), Z0_A * k, (0.5 * k, math.nan),
                         (k, d.methods.NOT_REACHED), reason)
            for k, (z0, method, reason) in enumerate(
                zip(z0s, itertools.cycle(d.MethodKind), itertools.cycle(d.Reason)))]
    out = tmp_path / "rows.csv"
    cli.emit_csv(rows, out, [5, 10])
    assert out.read_bytes() == per_cell_csv(rows, [5, 10]).encode()


def test_emit_csv_of_two_sweeps_concatenated(tmp_path):
    grid = small_problem(tmp_path, steps=3)
    point = small_problem(tmp_path, start={"point": [-100.0, 100.0]})
    rows = [row for doc in (grid, point, grid)
            for row in cli.sweep(cli.parse_problem(json.dumps(doc)))]
    out = tmp_path / "rows.csv"
    cli.emit_csv(rows, out, [5, 10])
    assert out.read_bytes() == per_cell_csv(rows, [5, 10]).encode()


@pytest.mark.parametrize("name", ["line", "lifted"])
def test_emit_trace_matches_per_cell_writer(tmp_path, name):
    doc = oracle_problems(tmp_path)[name]
    doc["start"] = {"point": [100.0, -100.0] if name == "line" else [7.5, -3.25]}
    spec = cli.parse_problem(json.dumps(doc))
    set_a, set_b, embed, _ = cli._resolve_sets(spec)
    z0 = embed(spec.starts[0])
    traces = {m: d.run(set_a, set_b, m, z0, cli._rules_for(m, spec))
              for m in (d.MethodKind.DRA, d.MethodKind.MAP, d.MethodKind.MRP)}
    out = tmp_path / "trace.csv"
    cli.emit_trace(traces, out)
    assert out.read_bytes() == per_cell_trace(traces).encode()


# ---------------------------------------------------------------------------
# command line


def test_main_witness_mode(capsys):
    code = cli.main(["--witness", "absshift", "--eps", "0.25,0.1"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "family,eps,step_residual,fix_distance"
    cells = out[1].split(",")
    assert cells[0] == "absshift"
    assert float(cells[2]) == pytest.approx(0.25, abs=1e-12)
    assert float(cells[3]) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize(
    "eps", ["abc", "-1", "0", "inf", "nan", "0.1,-1", "1e200", "0.1,1e200"]
)
def test_main_witness_rejects_a_bad_eps(capsys, eps):
    assert cli.main(["--witness", "quadratic", "--eps", eps]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows what
    # importing the package loads
    src = Path(d.__file__).resolve().parent.parent
    code = "import sys, drsplit, drsplit.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout == "False\n"


def test_main_runs_problem_file(tmp_path, capsys):
    doc = small_problem(tmp_path, steps=3)
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["--problem", str(path)])
    assert code == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 3 * 3


def test_main_overrides(tmp_path):
    doc = small_problem(tmp_path, steps=3)
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "override.csv"
    code = cli.main(
        [
            "--problem", str(path),
            "--method", "DRA",
            "--grid=-10,10,2",
            "--record-at", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("z0_x,z0_y,method,iterations,exact,final_x,final_y,dB_at_3,")
    assert len(lines) == 1 + 2 * 2


def test_main_tol_and_max_iter_overrides(tmp_path):
    # the flags give the bytes of a file that states the same values
    doc = small_problem(tmp_path, steps=3)
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "override.csv"
    assert cli.main(["--problem", str(path), "--tol", "1e-2", "--max-iter", "4",
                     "--out", str(out)]) == 0
    doc["stopping"].update(tol=1e-2, max_iter=4)
    spec = cli.parse_problem(json.dumps(doc))
    rows = cli.sweep(spec)
    expected = tmp_path / "expected.csv"
    cli.emit_csv(rows, expected, spec.record_at)
    assert out.read_bytes() == expected.read_bytes()
    assert max(r.iterations for r in rows) == 4
    assert cli.main(["--problem", str(path)]) == 0
    assert (tmp_path / "out.csv").read_bytes() != out.read_bytes()


def test_main_witness_out_file_matches_stdout(tmp_path, capsys):
    eps = (0.25, 1e-3, 5e-324)
    argv = ["--witness", "quadratic", "--eps", ",".join(map(repr, eps))]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "witness.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()
    lines = stdout.splitlines()
    assert len(lines) == 1 + len(eps)
    for line, e in zip(lines[1:], eps):
        values = (e, *d.luque_witness(d.WitnessFamily.QUADRATIC, e))
        assert line == ",".join(["quadratic"] + [format(v, ".17g") for v in values])


def _main_in(tmp_path, monkeypatch, argv):
    """main's exit code on argv, run in tmp_path, which holds prob.json (a
    point start writing out.csv); asserts that main wrote nothing."""
    monkeypatch.chdir(tmp_path)
    doc = small_problem(tmp_path, start={"point": [1.0, 2.0]})
    (tmp_path / "prob.json").write_text(json.dumps(doc))
    code = cli.main(argv)
    assert sorted(os.listdir(tmp_path)) == ["prob.json"]
    return code


@pytest.mark.parametrize("argv, code, message", [
    (["--out", ""], 2, "must not be empty"),
    (["--out", "a.csv", "--out", ""], 2, "must not be empty"),
    (["--trace", ""], 2, "must not be empty"),
    (["--grid", ""], 2, "--grid expects"),
    (["--method", ""], 2, "unknown method"),
    (["--witness", "quadratic", "--eps", ""], 2, "--eps expects"),
    # a witness writes to stdout without --out; "" is opened as a path
    (["--witness", "quadratic", "--out", ""], 3, "No such file"),
])
def test_main_applies_an_empty_override(tmp_path, monkeypatch, capsys, argv, code, message):
    # an empty value overrides the file or the default like any other, so
    # it fails the check of that field instead of being dropped
    problem = [] if "--witness" in argv else ["--problem", "prob.json"]
    assert _main_in(tmp_path, monkeypatch, [*problem, *argv]) == code
    out, err = capsys.readouterr()
    assert message in err and not out


def test_main_empty_record_at_is_the_empty_list(tmp_path):
    doc = small_problem(tmp_path, steps=2)
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    flag = tmp_path / "flag.csv"
    assert cli.main(["--problem", str(path), "--record-at", "", "--out", str(flag)]) == 0
    doc["outputs"]["record_at"] = []
    path.write_text(json.dumps(doc))
    assert cli.main(["--problem", str(path)]) == 0
    assert flag.read_bytes() == (tmp_path / "out.csv").read_bytes()
    assert b"dB_at" not in flag.read_bytes()


@pytest.mark.parametrize("argv", [
    ["--problem", "prob.json"], ["--method", "DRA"], ["--tol", "1e-3"], ["--max-iter", "5"],
    ["--grid=-1,1,3"], ["--record-at", "3"], ["--trace", "trace.csv"],
    # beside the flags a witness takes, naming the --out file
    ["--eps", "0.1", "--trace", "witness.csv"],
])
def test_main_witness_rejects_problem_flags(tmp_path, monkeypatch, capsys, argv):
    flag = next(a for a in argv if a.startswith("--") and a != "--eps").split("=")[0]
    argv = ["--witness", "quadratic", "--out", "witness.csv", *argv]
    assert _main_in(tmp_path, monkeypatch, argv) == 2
    assert f"--witness does not take {flag}" in capsys.readouterr().err


def test_main_problem_run_rejects_eps(tmp_path, monkeypatch, capsys):
    assert _main_in(tmp_path, monkeypatch, ["--problem", "prob.json", "--eps", "0.1"]) == 2
    assert "--eps applies only with --witness" in capsys.readouterr().err


def test_main_without_a_csv_path_exits_2(tmp_path, capsys):
    doc = small_problem(tmp_path, steps=2)
    del doc["outputs"]["csv_path"]
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--problem", str(path)]) == 2
    assert "no CSV output path" in capsys.readouterr().err


def test_main_point_run_with_trace(tmp_path):
    doc = small_problem(
        tmp_path, start={"point": [100.0, -100.0]}, methods=["DRA", "MAP"]
    )
    doc["outputs"]["trace_path"] = str(tmp_path / "trace.csv")
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--problem", str(path)]) == 0
    trace_lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "n,method,z_x,z_y,a_x,a_y,r_x,r_y,pbr_x,pbr_y,d_A,d_B"
    assert any(line.split(",")[1] == "MAP" for line in trace_lines[1:])
    first = trace_lines[1].split(",")
    assert first[0] == "0" and float(first[2]) == 100.0


@pytest.mark.parametrize("set_a", [{"type": "affine", "L": [[1, 5]], "a": [6]},
                                   {"type": "hyperplane", "normal": [1, 5], "offset": 6}],
                         ids=["affine", "hyperplane"])
def test_a_spingarn_problem_builds_its_subspace_at_parse_time(tmp_path, monkeypatch,
                                                              set_a, constructions):
    # parse_problem's check builds the first set's subspace through the
    # origin; the sweep and the --trace run reuse it and build no descriptor
    doc = small_problem(tmp_path, start={"point": [100.0, -100.0]},
                        methods=["DRA", "SPINGARN"], set_a=set_a)
    doc["outputs"]["trace_path"] = str(tmp_path / "trace.csv")
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    parsed = []

    def parse(doc, _parse=cli._spec_from_document):
        spec = _parse(doc)
        parsed.append(list(constructions))
        constructions.clear()
        return spec

    monkeypatch.setattr(cli, "_spec_from_document", parse)
    assert cli.main(["--problem", str(path)]) == 0
    kind = {"affine": d.Affine, "hyperplane": d.Hyperplane}[set_a["type"]]
    assert parsed == [[kind, kind]] and constructions == []
    methods = {line.split(",")[1] for line in (tmp_path / "trace.csv").read_text().splitlines()[1:]}
    assert methods == {"DRA", "SPINGARN"}


def test_main_grid_override_with_file_trace_rejected(tmp_path):
    doc = small_problem(tmp_path, start={"point": [100.0, -100.0]})
    doc["outputs"]["trace_path"] = str(tmp_path / "trace.csv")
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--problem", str(path), "--grid=-10,10,3"]) == 2
    assert not (tmp_path / "trace.csv").exists()
    assert not (tmp_path / "out.csv").exists()


def test_main_never_overwrites_the_problem_file(tmp_path, monkeypatch, capsys):
    # --out (by its absolute path and through a symlink), --trace (under
    # another spelling of the same path) and a csv_path in the file itself:
    # each names the problem file, so main exits 2 before writing anything
    monkeypatch.chdir(tmp_path)
    doc = small_problem(tmp_path, start={"point": [100.0, -100.0]}, methods=["DRA"])
    path = tmp_path / "prob.json"
    (tmp_path / "alias.json").symlink_to("prob.json")
    itself = dict(doc, outputs={"csv_path": "prob.json", "record_at": [5]})
    for problem, flags in [(doc, ["--out", str(path)]), (doc, ["--out", "alias.json"]),
                           (doc, ["--trace", "./prob.json"]), (itself, [])]:
        path.write_text(json.dumps(problem))
        before = path.read_bytes()
        assert cli.main(["--problem", "prob.json", *flags]) == 2
        captured = capsys.readouterr()
        assert "names the problem file" in captured.err and captured.out == ""
        assert path.read_bytes() == before
        assert not (tmp_path / "out.csv").exists()


def test_spingarn_needs_an_affine_first_set(tmp_path):
    doc = small_problem(tmp_path, methods=["SPINGARN"])
    doc["set_a"], doc["set_b"] = doc["set_b"], doc["set_a"]
    with pytest.raises(cli.ValidationError):
        cli.parse_problem(json.dumps(doc))
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--problem", str(path)]) == 2
    doc["methods"] = ["DRA"]
    path.write_text(json.dumps(doc))
    assert cli.main(["--problem", str(path), "--method", "MAP,SPINGARN"]) == 2
    assert not (tmp_path / "out.csv").exists()


def test_main_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["--problem", str(bad)]) == 2
    assert cli.main([]) == 2
    doc = small_problem(tmp_path, steps=2)
    doc["outputs"]["csv_path"] = str(tmp_path / "missing_dir" / "out.csv")
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--problem", str(path)]) == 3
    # one file for the CSV and the trace (under another spelling or through
    # a symlink), an empty path, which would write to stdout, and a start
    # with a point and a grid, which would run the grid alone
    same = tmp_path / "same.csv"
    (tmp_path / "link.csv").symlink_to("same.csv")
    point = small_problem(tmp_path, start={"point": [1.0, 2.0]})
    both = small_problem(tmp_path, start={"point": [1.0, 2.0], **doc["start"]})
    capsys.readouterr()
    for case, flags, message in [
        (point, ["--out", str(same), "--trace", os.path.relpath(same)], "different files"),
        (point, ["--out", str(same), "--trace", str(tmp_path / "link.csv")],
         "different files"),
        (dict(point, outputs={"csv_path": ""}), [], "must not be empty"),
        (dict(point, outputs={"csv_path": str(same), "trace_path": ""}), [],
         "must not be empty"),
        (both, [], "either 'point' or 'grid'"),
    ]:
        path.write_text(json.dumps(case))
        assert cli.main(["--problem", str(path), *flags]) == 2
        out, err = capsys.readouterr()
        assert message in err and not out
    assert not same.exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        pytest.param(None, "stopping", 5, id="stopping-number"),
        pytest.param(None, "outputs", [1], id="outputs-list"),
        pytest.param(None, "start", 5, id="start-number"),
        pytest.param(None, "methods", "DRA", id="methods-string"),
        pytest.param("outputs", "record_at", 5, id="record_at-number"),
        pytest.param("outputs", "csv_path", 1, id="csv_path-number"),
        pytest.param("stopping", "tol", "abc", id="tol-string"),
        pytest.param("stopping", "max_iter", 2.7, id="max_iter-fraction"),
        pytest.param("stopping", "max_iter", True, id="max_iter-bool"),
        pytest.param("stopping", "eta", float("nan"), id="eta-nan"),
        pytest.param("start.grid", "steps", 2.7, id="steps-fraction"),
        pytest.param("start.grid", "steps", True, id="steps-bool"),
        pytest.param("start.grid", "lo", "-10", id="lo-string"),
        pytest.param("start.grid", "lo", float("nan"), id="lo-nan"),
        pytest.param("start.grid", "hi", float("inf"), id="hi-inf"),
        pytest.param("start.grid", "lo", -10 ** 400, id="lo-huge-int"),
        pytest.param("stopping", "tol", 10 ** 400, id="tol-huge-int"),
        pytest.param("set_a", "a", [10 ** 400], id="affine-a-huge-int"),
        pytest.param("outputs", "record_at", [True, 5], id="record_at-bool"),
        pytest.param(None, "dim", True, id="dim-bool"),
        pytest.param(None, "lift", 1, id="lift-number"),
        pytest.param(None, "--grid", "nan,1,3", id="grid-flag-nan"),
        pytest.param("set_b", "dim", 2.7, id="orthant-dim-fraction"),
        pytest.param("set_a", "copies", 2.9, id="diagonal-copies-fraction"),
        pytest.param("set_a", "base_dim", 1.5, id="diagonal-base_dim-fraction"),
        pytest.param("sets.1", "dim", True, id="lifted-orthant-dim-bool"),
        pytest.param("set_a", "offset", float("nan"), id="halfspace-offset-nan"),
        pytest.param("set_b", "f", "quadratic(nan,0,-1)", id="epigraph-f-nan"),
    ],
)
def test_main_rejects_fields_of_the_wrong_type(tmp_path, capsys, section, key, value):
    doc = small_problem(tmp_path, steps=2)
    flags = []
    if key.startswith("--"):
        flags.append(f"{key}={value}")
    else:
        if key == "dim" and section != "set_b":
            # a 1-D problem, so that true (== 1) is its only fault
            doc.update(dim=1, set_a={"type": "hyperplane", "normal": [1], "offset": 0},
                       set_b={"type": "orthant", "dim": 1}, start={"point": [1.0]})
        if key in ("copies", "base_dim"):
            # the diagonal of R^2, which the truncated value also describes
            doc["set_a"] = {"type": "diagonal", "copies": 2, "base_dim": 1}
        if key == "offset":
            doc["set_a"] = {"type": "halfspace", "normal": [1, 1], "offset": 0}
        if key == "f":
            doc["set_a"] = {"type": "hyperplane", "normal": [0, 1], "offset": 0}
            doc["set_b"] = {"type": "epigraph", "f": "quadratic(1,0,-1)"}
        if key == "lift" or section == "sets.1":
            doc["sets"] = [doc.pop("set_a"), doc.pop("set_b")]
            doc["lift"] = True
        target = doc
        for name in section.split(".") if section else ():
            target = target[int(name) if name.isdigit() else name]
        target[key] = value
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--problem", str(path), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


_DROP = object()   # an edit that removes its field


@pytest.mark.parametrize(
    "edits, flags, message",
    [
        pytest.param(None, [], "problem file must be a JSON object", id="document-list"),
        pytest.param({"set_a": 5}, [], "must be an object with a 'type' tag",
                     id="set-number"),
        pytest.param({"set_a": {"type": "cube"}}, [], "unknown set type 'cube'",
                     id="set-unknown-type"),
        pytest.param({"set_b": {"type": "product", "components": [
            {"type": "orthant"}, {"type": "orthant", "dim": 1}]}}, [],
            "orthant needs a 'dim'", id="product-orthant-without-dim"),
        pytest.param({"set_b": {"type": "box", "lo": [0, 0]}}, [],
                     "missing key for 'box' descriptor", id="box-without-hi"),
        pytest.param({"dim": 0}, [], "'dim' must be a positive integer", id="dim-zero"),
        pytest.param({"sets": [], "lift": True}, [], "not both", id="sets-and-set_a"),
        pytest.param({"set_a": _DROP, "set_b": _DROP, "sets": [], "lift": True}, [],
                     "'sets' must be a nonempty list", id="sets-empty"),
        pytest.param({"set_a": _DROP, "set_b": _DROP, "sets": [{"type": "orthant"}]}, [],
                     "'sets' requires \"lift\": true", id="sets-without-lift"),
        pytest.param({"set_b": {"type": "orthant", "dim": 3}}, [],
                     "set_b has dimension 3, expected 2", id="set-dimension-mismatch"),
        pytest.param({"methods": []}, [], "must name at least one method", id="methods-empty"),
        pytest.param({"start.grid.steps": 0}, [], "grid needs lo <= hi and steps >= 1",
                     id="grid-steps-zero"),
        pytest.param({"start.grid.lo": 1, "start.grid.hi": -1}, [],
                     "grid needs lo <= hi and steps >= 1", id="grid-lo-above-hi"),
        pytest.param({"start.grid.lo": -1e308, "start.grid.hi": 1e308}, [],
                     "grid span hi - lo must be a finite number", id="grid-span-overflows"),
        pytest.param({"start": {"point": ["a", 1]}}, [], "start point must be a numeric list",
                     id="point-string"),
        pytest.param({"start": {"point": [[1, 2], [3]]}}, [],
                     "start point must be a numeric list", id="point-ragged"),
        pytest.param({"start": {"point": [1, 2, 3]}}, [],
                     "start point must be a finite vector of length 2", id="point-length"),
        pytest.param({"start": {}}, [], "start must contain 'point' or 'grid'",
                     id="start-empty"),
        pytest.param({"stopping.monitor": "both"}, [], "unknown monitor 'both'",
                     id="monitor-unknown"),
        pytest.param({"stopping.max_iter": 0}, [], "stopping parameters must be positive",
                     id="max_iter-zero"),
        pytest.param({"outputs.record_at": [-1, 5]}, [],
                     "record_at must contain nonnegative integers", id="record_at-negative"),
        pytest.param({}, ["--record-at", "a,b"], "--record-at expects integers",
                     id="record-at-flag-words"),
        pytest.param({}, ["--grid", "1,2"], "--grid expects lo,hi,steps",
                     id="grid-flag-two-fields"),
        # a flag that overrides a field of a section that is no object
        # leaves the section for its type check
        pytest.param({"stopping": [1]}, ["--tol", "1e-3"], "wrong type list",
                     id="tol-flag-on-a-stopping-list"),
        pytest.param({"outputs": "out.csv"}, ["--out", "a.csv"], "wrong type str",
                     id="out-flag-on-an-outputs-string"),
    ],
)
def test_main_rejects_malformed_problems_with_their_message(tmp_path, capsys, edits,
                                                             flags, message):
    # each raise site of the parser and of the overrides: main exits 2 with
    # the site's own message and writes nothing.  ``edits`` sets (or, with
    # _DROP, removes) fields by dotted path; None makes the document a list
    doc = small_problem(tmp_path, steps=2)
    for dotted, value in (edits or {}).items():
        *parents, key = dotted.split(".")
        target = doc
        for name in parents:
            target = target[name]
        if value is _DROP:
            del target[key]
        else:
            target[key] = value
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc if edits is not None else [doc]))
    assert cli.main(["--problem", str(path), *flags]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and message in err and not out
    assert not (tmp_path / "out.csv").exists()


# SHA-256 of the 5,043-row CSV of the shipped reference problem (recorded on
# x86_64 with numpy 2.4); refactors must keep it byte-identical, and a change
# that moves it names every changed cell
REFERENCE_CSV_SHA256 = "45071547f81a729afcb6089daffe1f67cf1a744ca3265cef5e91ffb22c751901"


def test_reference_sweep_csv_is_golden(tmp_path):
    out = tmp_path / "ref.csv"
    path = cli.builtin_problem_path("line_orthant.json")
    assert cli.main(["--problem", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REFERENCE_CSV_SHA256


def test_reference_sweep_takes_a_cap_beyond_int64(tmp_path):
    # --max-iter takes any positive integer, 2^64 too; every row of the
    # reference problem ends before 100,000 steps, so it writes that cap's bytes
    outs = [tmp_path / "big.csv", tmp_path / "ref.csv"]
    path = cli.builtin_problem_path("line_orthant.json")
    for out, cap in zip(outs, ("18446744073709551616", "100000")):
        assert cli.main(["--problem", str(path), "--out", str(out), "--max-iter", cap]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert hashlib.sha256(outs[0].read_bytes()).hexdigest() == REFERENCE_CSV_SHA256


def test_batched_restriction_equals_restrict(tmp_path):
    # sweep restricts every lifted final point at once with the stack form
    # of restrict, the diagonal projection's block on the columns of the
    # stack; int64 views make the sign of zero count.  Converged rows end
    # on the diagonal, where every block is the mean; a cap of 3 leaves DRA
    # and SPINGARN rows off it
    doc = oracle_problems(tmp_path)["lifted"]
    capped = json.loads(json.dumps(doc))
    capped["stopping"]["max_iter"] = 3
    lp = d.lift(cli.parse_problem(json.dumps(doc)).lift_sets)
    for spec in map(cli.parse_problem, map(json.dumps, (doc, capped))):
        rows = cli.sweep(spec)
        Z = np.array([lp.embed(z0) for z0 in spec.starts])
        for k, method in enumerate(spec.methods):
            plan = {method: cli._rules_for(method, spec)}
            final = d.run_rows(lp.set_a, lp.set_b, plan, Z, spec.record_at)["final"]
            for row, F in zip(rows[k::len(spec.methods)], final):
                assert row.method is method
                assert np.array_equal(row.final.view(np.int64), lp.restrict(F).view(np.int64))
    rng = np.random.default_rng(61)
    F = rng.choice([-1.0, 1.0], (5000, 10)) * 10.0 ** rng.uniform(-8, 8, (5000, 10))
    F[::7, 3] = -0.0
    batched = lp.restrict(F)
    for got, row in zip(batched, F):
        assert np.array_equal(got.view(np.int64), lp.restrict(row).view(np.int64))


LINE_GRID = {
    "set_a": {"type": "affine", "L": [[1, 5]], "a": [6]},
    "set_b": {"type": "orthant", "dim": 2},
    "methods": ALL_METHODS,
    "start": {"grid": {"lo": -100, "hi": 100, "steps": 11}},
    "outputs": {"record_at": [0, 5, 10]},
}
BENCHMARK_SWEEPS = {
    # the 21x21 sweeps of perfbench/problems/epigraph.json and lifted.json,
    # and the 11x11 line grid of all four methods with the feasibility rule
    # on either point; SHA-256 of their CSVs, recorded on x86_64 with numpy 2.4
    "epigraph": ({"set_a": {"type": "hyperplane", "normal": [0, 1], "offset": 0},
                  "set_b": {"type": "epigraph", "f": "quadratic(1,0,-1)"}},
                 "a1b650e4212d830c179ddcda97b607df635496b45e2e340f2176c5d753bf9afa"),
    "lifted": ({"sets": LIFTED_SETS, "lift": True},
               "3fdff3c7715a9a72c9fb7d802223fa71110a8f5e826f1bd8e8748ee8530a0ce3"),
    "line_iterate": (LINE_GRID,
                     "a17c6bd385eba8563978bf20cb53afe425bf91a18825e142cce02cf7d9196d44"),
    "line_shadow": (dict(LINE_GRID, stopping={"eta": 1e-14, "tol": 1e-4, "monitor": "shadow",
                                              "max_iter": 100000}),
                    "cd6bdc3bdace8ac1fa964ccd5e3b34830e9e9d23f41b33274eb51df24a96fde0"),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_SWEEPS))
def test_benchmark_sweep_csv_is_golden(tmp_path, name):
    fields, digest = BENCHMARK_SWEEPS[name]
    doc = {
        "dim": 2,
        "methods": ["DRA", "MAP", "MRP"],
        "start": {"grid": {"lo": -10, "hi": 10, "steps": 21}},
        "stopping": {"eta": 1e-14, "tol": 1e-4, "monitor": "iterate", "max_iter": 100000},
        "outputs": {"record_at": [5, 10]},
        **fields,
    }
    spec = cli.parse_problem(json.dumps(doc))
    out = tmp_path / f"{name}.csv"
    cli.emit_csv(cli.sweep(spec), out, spec.record_at)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


TRACE_RUNS = {
    # point-start --trace CSVs of all four methods; SHA-256 recorded on
    # x86_64 with numpy 2.4.  They pin r, d_A and n, which the trace
    # computes from the stored z, a and P_B r.  Beside each digest, every
    # method's (iterations, reason, exact), recorded before the scalar
    # projectors took the row forms' order: a change in the last bits
    # moves the digest and must leave these as they are
    "line": ({"set_a": {"type": "affine", "L": [[1, 5]], "a": [6]},
              "set_b": {"type": "orthant", "dim": 2}}, [100, -100],
             "96814791c8ec9d931afdd4e4e20fc94908bce5021cee9bb5585e0a4e06cdf272",
             {"DRA": (92, "exact_fixed_point", True), "MAP": (310, "feasibility", False),
              "MRP": (150, "feasibility", False), "SPINGARN": (92, "exact_fixed_point", True)}),
    "epigraph": ({"set_a": {"type": "hyperplane", "normal": [0, 1], "offset": 0},
                  "set_b": {"type": "epigraph", "f": "quadratic(1,0,-1)"}}, [5, 3],
                 "9d48370db06821174b074f4274a94e8965c0c0920466e88eff00e19304a3f290",
                 {"DRA": (5, "exact_fixed_point", True), "MAP": (7, "feasibility", False),
                  "MRP": (1, "feasibility", False), "SPINGARN": (5, "exact_fixed_point", True)}),
    "lifted": ({"sets": LIFTED_SETS, "lift": True}, [10, 10],
               "990390b8c8e93cb575b877b5ff89ba871c2bda33ec5be068beaa915a5c82a308",
               {"DRA": (7, "exact_fixed_point", True), "MAP": (47, "feasibility", False),
                "MRP": (20, "feasibility", False), "SPINGARN": (7, "exact_fixed_point", True)}),
}


@pytest.mark.parametrize("name", sorted(TRACE_RUNS))
def test_trace_csv_is_golden(tmp_path, monkeypatch, name):
    sets, point, digest, ends = TRACE_RUNS[name]
    doc = {
        "dim": 2,
        **sets,
        "methods": ALL_METHODS,
        "start": {"point": point},
        "stopping": {"eta": 1e-14, "tol": 1e-4, "monitor": "iterate", "max_iter": 100000},
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    trace = tmp_path / f"{name}.trace.csv"
    flags = ["--out", str(tmp_path / "out.csv"), "--trace", str(trace)]
    traces, emit = {}, cli.emit_trace
    monkeypatch.setattr(cli, "emit_trace", lambda t, out: (traces.update(t), emit(t, out)))
    assert cli.main(["--problem", str(path), *flags]) == 0
    assert {m.value: (t.iterations, t.termination.reason.value, t.termination.exact)
            for m, t in traces.items()} == ends
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest
