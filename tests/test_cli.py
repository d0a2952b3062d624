import hashlib
import json
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
    assert spec.grid == cli.GridSpec(-100.0, 100.0, 41)
    assert spec.tol == 1e-4 and spec.eta == 1e-14 and spec.max_iter == 100000
    assert spec.record_at == [5, 10]


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
    doc = small_problem(tmp_path)
    doc["outputs"]["record_at"] = [10, 5]
    with pytest.raises(cli.ValidationError):
        cli.parse_problem(json.dumps(doc))


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


def test_bad_json_reports_line():
    with pytest.raises(cli.ParseError) as exc:
        cli.parse_problem('{\n  "dim": 2,\n  bad\n}')
    assert exc.value.line == 3


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
    for text in (
        cli.builtin_problem_path("line_orthant.json").read_text(),
        json.dumps(small_problem(tmp_path, start={"point": [3, -4]})),
    ):
        spec = cli.parse_problem(text)
        again = cli.parse_problem(cli.serialize_problem(spec))
        assert again == spec


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
    assert all(r.first_n == (cli.NOT_REACHED, cli.NOT_REACHED) or r.first_n[0] >= 0 for r in rows)


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
        return cli.NOT_REACHED


def reference_sweep(spec):
    """The sweep one start and one method at a time, through ``run``."""
    if spec.lift_sets is not None:
        lp = d.lift(spec.lift_sets)
        set_a, set_b, embed, restrict = lp.set_a, lp.set_b, lp.embed, lp.restrict
    else:
        set_a, set_b = spec.set_a, spec.set_b
        embed = restrict = np.asarray
    if spec.grid is None:
        starts = [spec.start_point]
    else:
        axis = np.linspace(spec.grid.lo, spec.grid.hi, spec.grid.steps)
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
                first_n=tuple(mon.first_below(t, spec.max_iter) for t in cli.FIRST_N_TOLS),
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
    return {"line": line, "shadow": shadow, "capped": capped,
            "infeasible": infeasible, "lifted": lifted, "epigraph": epigraph,
            "epigraph_abs": epigraph_abs, "epigraph_quad": epigraph_quad}


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
             "epigraph_abs", "epigraph_quad"]
)
def test_sweep_matches_reference_sweep(tmp_path, name):
    spec = cli.parse_problem(json.dumps(oracle_problems(tmp_path)[name]))
    rows = cli.sweep(spec)
    assert_rows_match(rows, reference_sweep(spec), rtol=1e-12)
    if name == "infeasible":
        assert all(r.reason is d.Reason.MAX_ITER for r in rows)
        assert any(r.exact for r in rows if r.method is d.MethodKind.MAP)
    if name == "capped":
        # the cap truncates some runs before either tolerance is reached,
        # and an index past the cap has no distance
        assert any(r.first_n[1] == cli.NOT_REACHED for r in rows)
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
    for k, z0 in enumerate(cli._starts(spec)):
        doc["start"] = {"point": z0.tolist()}
        alone = cli.sweep(cli.parse_problem(json.dumps(doc)))
        assert_rows_match(rows[k * by_start : (k + 1) * by_start], alone, rtol=0)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_sweep_overflow_fails_loudly(tmp_path, method):
    # starts near the largest float: the line's projector or the step
    # overflows within the first steps
    doc = small_problem(tmp_path, steps=3, methods=[method],
                        start={"grid": {"lo": -1.7e308, "hi": 1.7e308, "steps": 3}})
    spec = cli.parse_problem(json.dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="vector coordinates must be finite"):
            cli.sweep(spec)


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
    assert len(cli._starts(spec)) == 41 * 41
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
        for j, first_n in enumerate([(3, 17), (0, cli.NOT_REACHED),
                                     (cli.NOT_REACHED, cli.NOT_REACHED)]):
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


@pytest.mark.parametrize("name", ["line", "lifted"])
def test_emit_trace_matches_per_cell_writer(tmp_path, name):
    doc = oracle_problems(tmp_path)[name]
    doc["start"] = {"point": [100.0, -100.0] if name == "line" else [7.5, -3.25]}
    spec = cli.parse_problem(json.dumps(doc))
    set_a, set_b, lp = cli._resolve_sets(spec)
    z0 = spec.start_point if lp is None else lp.embed(spec.start_point)
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


def test_main_grid_override_with_file_trace_rejected(tmp_path):
    doc = small_problem(tmp_path, start={"point": [100.0, -100.0]})
    doc["outputs"]["trace_path"] = str(tmp_path / "trace.csv")
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--problem", str(path), "--grid=-10,10,3"]) == 2
    assert not (tmp_path / "trace.csv").exists()
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


def test_reference_sweep_csv_is_golden(tmp_path):
    # SHA-256 of the 5,043-row CSV of the shipped reference problem
    # (recorded on x86_64 with numpy 2.4); refactors must keep it
    # byte-identical, and a change that moves it names every changed cell
    out = tmp_path / "ref.csv"
    path = cli.builtin_problem_path("line_orthant.json")
    assert cli.main(["--problem", str(path), "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "45071547f81a729afcb6089daffe1f67cf1a744ca3265cef5e91ffb22c751901"


def test_batched_restriction_equals_restrict(tmp_path):
    # sweep restricts every lifted final point at once, as the mean over
    # the copies axis of the (N, copies, base_dim) stack; int64 views make
    # the sign of zero count.  Converged rows end on the diagonal, where
    # every block is the mean; a cap of 3 leaves DRA and SPINGARN rows off it
    doc = oracle_problems(tmp_path)["lifted"]
    capped = json.loads(json.dumps(doc))
    capped["stopping"]["max_iter"] = 3
    lp = d.lift(cli.parse_problem(json.dumps(doc)).lift_sets)
    for spec in map(cli.parse_problem, map(json.dumps, (doc, capped))):
        rows = cli.sweep(spec)
        Z = np.array([lp.embed(z0) for z0 in cli._starts(spec)])
        for k, method in enumerate(spec.methods):
            final = cli._sweep_method(lp.set_a, lp.set_b, method, Z, spec)["final"]
            for row, F in zip(rows[k::len(spec.methods)], final):
                assert row.method is method
                assert np.array_equal(row.final.view(np.int64), lp.restrict(F).view(np.int64))
    rng = np.random.default_rng(61)
    F = rng.choice([-1.0, 1.0], (5000, 10)) * 10.0 ** rng.uniform(-8, 8, (5000, 10))
    F[::7, 3] = -0.0
    batched = F.reshape(len(F), lp.copies, lp.base_dim).mean(axis=1)
    for got, row in zip(batched, F):
        assert np.array_equal(got.view(np.int64), lp.restrict(row).view(np.int64))


BENCHMARK_SWEEPS = {
    # the 21x21 sweeps of perfbench/problems/epigraph.json and lifted.json;
    # SHA-256 of their CSVs, recorded on x86_64 with numpy 2.4
    "epigraph": ({"set_a": {"type": "hyperplane", "normal": [0, 1], "offset": 0},
                  "set_b": {"type": "epigraph", "f": "quadratic(1,0,-1)"}},
                 "a1b650e4212d830c179ddcda97b607df635496b45e2e340f2176c5d753bf9afa"),
    "lifted": ({"sets": LIFTED_SETS, "lift": True},
               "3fdff3c7715a9a72c9fb7d802223fa71110a8f5e826f1bd8e8748ee8530a0ce3"),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_SWEEPS))
def test_benchmark_sweep_csv_is_golden(tmp_path, name):
    sets, digest = BENCHMARK_SWEEPS[name]
    doc = {
        "dim": 2,
        **sets,
        "methods": ["DRA", "MAP", "MRP"],
        "start": {"grid": {"lo": -10, "hi": 10, "steps": 21}},
        "stopping": {"eta": 1e-14, "tol": 1e-4, "monitor": "iterate", "max_iter": 100000},
        "outputs": {"record_at": [5, 10]},
    }
    spec = cli.parse_problem(json.dumps(doc))
    out = tmp_path / f"{name}.csv"
    cli.emit_csv(cli.sweep(spec), out, spec.record_at)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


TRACE_RUNS = {
    # point-start --trace CSVs of all four methods; SHA-256 recorded on
    # x86_64 with numpy 2.4.  They pin r, d_A and n, which the trace
    # computes from the stored z, a and P_B r
    "line": ({"set_a": {"type": "affine", "L": [[1, 5]], "a": [6]},
              "set_b": {"type": "orthant", "dim": 2}}, [100, -100],
             "d5bfb5eb5339c9fff3dc0fbc19513129aaddc6785936e1ffa9f267ca11d33dff"),
    "epigraph": ({"set_a": {"type": "hyperplane", "normal": [0, 1], "offset": 0},
                  "set_b": {"type": "epigraph", "f": "quadratic(1,0,-1)"}}, [5, 3],
                 "792418a20972575dc099629cee7f512db5aa08704dc80d6fc9147d04587fd902"),
    "lifted": ({"sets": LIFTED_SETS, "lift": True}, [10, 10],
               "935344c05401c55f0a07cdce2e27b5ac0b82492040236c0d3910720cc799c0dd"),
}


@pytest.mark.parametrize("name", sorted(TRACE_RUNS))
def test_trace_csv_is_golden(tmp_path, name):
    sets, point, digest = TRACE_RUNS[name]
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
    assert cli.main(["--problem", str(path), *flags]) == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest
