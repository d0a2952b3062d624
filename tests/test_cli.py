import hashlib
import importlib.util
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
    for text in (
        cli.builtin_problem_path("line_orthant.json").read_text(),
        json.dumps(small_problem(tmp_path, start={"point": [3, -4]})),
        json.dumps(oracle_problems(tmp_path)["lifted"]),
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
    # the line as an affine hyperplane, which SPINGARN translates
    hyperplane = small_problem(tmp_path, methods=ALL_METHODS)
    hyperplane["set_a"] = {"type": "hyperplane", "normal": [1, 5], "offset": 6}
    return {"line": line, "shadow": shadow, "capped": capped,
            "infeasible": infeasible, "lifted": lifted, "epigraph": epigraph,
            "epigraph_abs": epigraph_abs, "epigraph_quad": epigraph_quad,
            "hyperplane": hyperplane}


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
    # projects onto B at most twice (the distances, DRA's update) and onto A
    # at most three times (DRA's shadow, the feasibility test, and the
    # update of MAP and MRP together)
    spec = cli.parse_problem(json.dumps(small_problem(tmp_path, steps=11)))
    events = []

    def logged(name, f):
        def wrapper(X):
            events.append(name)
            return f(X)
        return wrapper

    for name, s in (("a", spec.set_a), ("b", spec.set_b)):
        monkeypatch.setattr(s, "_project_rows", logged(name, s._project_rows), raising=False)
    monkeypatch.setattr(cli, "_norms", logged("norms", cli._norms))
    rows = cli.sweep(spec)
    steps = [max(r.iterations for r in rows if r.method is m) for m in spec.methods]
    assert steps == [114, 310, 153]
    # an iteration starts with P_B of every row's point and the distances
    loops = sum(pair == ("b", "norms") for pair in zip(events, events[1:]))
    assert loops == max(steps) + 1          # n = 0, ..., 310; one loop per method took 580
    assert events.count("b") <= 2 * loops and events.count("a") <= 3 * loops
    assert (events.count("a"), events.count("b")) == (478, 425)   # 633 and 694 then


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
    assert exc.traceback[-1].name == "_sweep_methods"


def test_sweep_certifies_nothing_on_an_infinite_bound(tmp_path):
    # as in run: from (1e200, 0), ||z_n|| overflows and the bound is inf
    doc = small_problem(tmp_path, start={"point": [1e200, 0.0]}, methods=["DRA", "SPINGARN"])
    doc["stopping"]["max_iter"] = 20
    spec = cli.parse_problem(json.dumps(doc))
    with np.errstate(over="ignore"):
        rows = cli.sweep(spec)
    assert [(r.reason, r.iterations, r.exact) for r in rows] == [(d.Reason.MAX_ITER, 20, False)] * 2


@pytest.mark.parametrize("monitor", list(d.Monitor), ids=lambda m: m.value)
def test_sweep_stops_by_the_rules_of_rules_for(tmp_path, monkeypatch, monitor):
    # the sweep takes its eta, feasibility rule and cap from _rules_for
    # alone, so other rules stop each row as they stop run from its start:
    # a feasibility rule on either point, for DRA (whose point is the
    # shadow) and for MAP (whose point is the iterate)
    rules = {
        d.MethodKind.DRA: [d.Feasibility(1e-2, monitor), d.MaxIter(25)],
        d.MethodKind.MAP: [d.Feasibility(1e-9, monitor), d.ExactFixedPoint(1e-2),
                           d.MaxIter(30)],
    }
    monkeypatch.setattr(cli, "_rules_for", lambda method, spec: rules[method])
    spec = cli.parse_problem(json.dumps(small_problem(tmp_path, methods=["DRA", "MAP"])))
    rows = cli.sweep(spec)
    assert {r.reason for r in rows} == set(d.Reason)
    for row in rows:
        t = d.run(spec.set_a, spec.set_b, row.method, row.z0, rules[row.method]).termination
        assert (row.iterations, row.exact, row.reason) == (t.iterations, t.exact, t.reason)


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
    project_a, norms = spec.set_a._project_rows, cli._norms

    def counted_project_a(X):
        counts["a"] += X.shape[0]
        return project_a(X)

    def counted_norms(D):
        counts["norms"] += D.shape[0]
        return norms(D)

    monkeypatch.setattr(spec.set_a, "_project_rows", counted_project_a, raising=False)
    monkeypatch.setattr(cli, "_norms", counted_norms)
    rows = cli.sweep(spec)
    assert tuple(sum(r.iterations for r in rows if r.method is m) for m in spec.methods) == steps
    # projecting A and taking every norm at every step would give 62,906
    # and 125,812 on the iterate; testing the shadow of every batch row
    # with max(d_A, d_B) gave 94,480 and 95,186
    assert counts == {"a": a_rows, "norms": norm_rows}


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
            t = d.run(spec.set_a, spec.set_b, row.method, row.z0,
                      cli._rules_for(row.method, spec)).termination
            assert (row.iterations, row.exact, row.reason) == (t.iterations, t.exact, t.reason)
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
            t = d.run(spec.set_a, spec.set_b, row.method, row.z0,
                      cli._rules_for(row.method, spec)).termination
            assert (row.iterations, row.exact, row.reason) == (t.iterations, t.exact, t.reason)


def test_sweep_with_a_cap_alone_matches_run(tmp_path, monkeypatch):
    # neither an exactness nor a feasibility rule: every row stops at the
    # cap with the flag of its last step
    monkeypatch.setattr(cli, "_rules_for", lambda method, spec: [d.MaxIter(4)])
    spec = cli.parse_problem(json.dumps(small_problem(tmp_path, methods=ALL_METHODS)))
    for row in cli.sweep(spec):
        t = d.run(spec.set_a, spec.set_b, row.method, row.z0, [d.MaxIter(4)]).termination
        assert (row.iterations, row.exact, row.reason) == (4, t.exact, d.Reason.MAX_ITER)


def test_sweep_rejects_an_unknown_method(tmp_path):
    # a method name instead of a MethodKind: the sweep raises before its
    # first step, rather than stepping by some other rule
    spec = cli.parse_problem(json.dumps(small_problem(tmp_path)))
    with pytest.raises(ValueError, match="unknown method"):
        cli._sweep_methods(spec.set_a, spec.set_b, ["DRA"], cli._starts(spec), spec)


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
])
def test_main_witness_rejects_problem_flags(tmp_path, monkeypatch, capsys, argv):
    argv = ["--witness", "quadratic", "--out", "witness.csv", *argv]
    assert _main_in(tmp_path, monkeypatch, argv) == 2
    assert f"--witness does not take {argv[4].split('=')[0]}" in capsys.readouterr().err


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
    # sweep restricts every lifted final point at once with the stack form
    # of restrict, the mean over the copies axis of the (N, copies,
    # base_dim) stack; int64 views make the sign of zero count.  Converged rows end on the diagonal, where
    # every block is the mean; a cap of 3 leaves DRA and SPINGARN rows off it
    doc = oracle_problems(tmp_path)["lifted"]
    capped = json.loads(json.dumps(doc))
    capped["stopping"]["max_iter"] = 3
    lp = d.lift(cli.parse_problem(json.dumps(doc)).lift_sets)
    for spec in map(cli.parse_problem, map(json.dumps, (doc, capped))):
        rows = cli.sweep(spec)
        Z = np.array([lp.embed(z0) for z0 in cli._starts(spec)])
        for k, method in enumerate(spec.methods):
            final = cli._sweep_methods(lp.set_a, lp.set_b, [method], Z, spec)["final"]
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
