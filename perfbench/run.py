"""drsplit benchmark: sweep and solve workloads, per-layer timings, a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload line_orthant --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
instrumentation; ``--trace 1`` runs the layer microbenchmarks and a traced
sweep and reports the per-layer metrics.  Both check every result: sweep
rows against the committed reference CSV, and every row and solve against
what the paper guarantees.  Times are wall times scaled to an idle
reference core (clock.py); the raw medians are printed as notes.
Human-readable lines come first; the last line of standard output is the
JSON result.  The process exits with 1 when a check fails and with 2 when
drsplit cannot be found.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

# one BLAS thread, set before numpy is imported here or in a child
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

from clock import Clock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
WARMUP_STEPS = 5
MIN_ROUNDS = 3
CHUNK_S = 0.1        # solves timed between two calibrations
MEM_SOLVES = 200
TRACED_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "drsplit" / "__init__.py").is_file():
        print(f"error: drsplit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # one core for the run and its children, so calibration and work share it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    wl = workloads.Workload(args.workload, args.seed, ROOT)
    bench = Bench(wl, args.seconds)
    if args.trace:
        metrics = bench.traced()
        listed = spec["per_layer"]
    else:
        metrics = bench.end_to_end()
        listed = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(metrics):
        raise RuntimeError(f"measured {sorted(metrics)} but BENCHMARK.json lists {sorted(units)}")

    bench.notes["speed_factor_median"] = statistics.median(bench.clock.factors)
    env = environment()
    for name in units:
        value, samples = metrics[name]
        print(f"{name:36s} {value:16.6g} {units[name]:6s} n={samples}")
    print(f"{'error_rate':36s} {bench.failed / max(bench.attempted, 1):16.6g} "
          f"       failed={bench.failed} attempted={bench.attempted}")
    for key, value in bench.notes.items():
        print(f"{key:36s} {value}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": units[n]} for n in units},
    }
    stem = f"{wl.name}-seed{wl.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {**result, "env": env, "samples": {n: metrics[n][1] for n in units},
         "notes": bench.notes}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def environment():
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cores_used": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


class Bench:
    """One run over one workload; tallies attempted and failed outputs."""

    def __init__(self, wl, seconds):
        self.wl = wl
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.notes = {}
        self.csv_path = OUT / f"sweep-{wl.name}-seed{wl.seed}-{os.getpid()}.csv"
        self._first_csv = None
        self.clock = Clock()

    # -- sweeps ---------------------------------------------------------

    def sweep_pass(self):
        """parse_problem, cli.sweep and emit_csv on the workload's sweep
        problem.  Returns the row count, the wall seconds of each phase and
        the clock's scale factor; None if the pass raised."""
        from drsplit import cli

        expected = len(self.wl.spec.methods) * self.wl.defn.sweep_steps ** 2
        self.attempted += expected
        try:
            with self.clock.sampling() as clock:
                t0 = perf_counter()
                spec = cli.parse_problem(self.wl.sweep_text)
                t1 = perf_counter()
                rows = cli.sweep(spec)
                t2 = perf_counter()
                cli.emit_csv(rows, self.csv_path, spec.record_at)
                t3 = perf_counter()
        except Exception:
            traceback.print_exc()
            self.failed += expected
            return None
        self._check_sweep(rows)
        # a calibration inside parse or emit (each well under SAMPLE_S) is
        # rare; the total excludes every one
        return {"total": t3 - t0 - clock["paused"], "parse": t1 - t0, "emit": t3 - t2,
                "rows": len(rows), "factor": clock["factor"]}

    def _check_sweep(self, rows):
        import workloads

        data = self.csv_path.read_bytes()
        if self._first_csv is None:
            self._first_csv = data
            failed, identical = self.wl.check_rows(rows, data)
            self.failed += failed
            self.notes["csv_sha256_identical"] = identical
        elif data != self._first_csv:
            # every pass (traced or not) must write the same bytes
            self.failed += max(workloads.compare_csv(data.decode(), self._first_csv.decode()), 1)

    def sweep_passes(self, seconds):
        passes = []
        start = perf_counter()
        while not passes or perf_counter() - start + passes[-1]["total"] <= seconds:
            result = self.sweep_pass()
            if result is None:
                break
            passes.append(result)
        return passes

    def warm_up(self):
        """A small sweep and a few solves, so imports, caches and first-call
        paths are done before timing."""
        from drsplit import cli

        doc = json.loads(self.wl.sweep_text)
        doc["start"]["grid"]["steps"] = WARMUP_STEPS
        cli.sweep(cli.parse_problem(json.dumps(doc)))
        self.solve_cycle(self.wl.solves[:10])

    # -- solves ---------------------------------------------------------

    def solve_cycle(self, solves, latencies=None, keep=None):
        """Every solve once, each checked.  With ``latencies``, appends each
        solve's scaled latency in ms to ``latencies[i]``, by list index,
        calibrating after every CHUNK_S of solves; with ``keep``, appends
        each returned trace."""
        chunk, chunk_start = [], perf_counter()
        for i, (kind, start) in enumerate(solves):
            self.attempted += 1
            try:
                t0 = perf_counter()
                final, trace = self.wl.solve(kind, start)
                t1 = perf_counter()
            except Exception:
                traceback.print_exc()
                self.failed += 1
                continue
            self.failed += not self.wl.theory_ok(kind, trace.termination.reason, final)
            if keep is not None:
                keep.append(trace)
            if latencies is not None:
                chunk.append((i, (t1 - t0) * 1e3))
                if perf_counter() - chunk_start >= CHUNK_S:
                    self._flush(chunk, latencies)
                    chunk, chunk_start = [], perf_counter()
        if latencies is not None:
            self._flush(chunk, latencies)

    def _flush(self, chunk, latencies):
        factor = self.clock.scale()
        for i, ms in chunk:
            latencies[i].append(ms * factor)

    def setup_seconds(self):
        """Scaled seconds of each fresh-process set-up probe."""
        problem = OUT / f"problem-{self.wl.name}-seed{self.wl.seed}-{os.getpid()}.json"
        problem.write_text(self.wl.sweep_text, encoding="utf-8")
        times = []
        for _ in range(SETUP_PROBES):
            out = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(problem)],
                capture_output=True, text=True, timeout=120, check=True,
            )
            seconds, calibration = map(float, out.stdout.split())
            times.append(seconds * self.clock.scale(after=calibration))
        problem.unlink()
        return times

    # -- the two kinds of run ---------------------------------------------

    def end_to_end(self):
        """Rounds of one sweep pass and one pass over the solve list, while
        the next round fits in the run (at least MIN_ROUNDS).

        Rounds interleave the two kinds of work and repeat them seconds
        apart: the sweep counts at its median pass and each solve at the
        median of its repeats.
        """
        setup = self.setup_seconds()
        self.warm_up()
        passes = []
        repeats = [[] for _ in self.wl.solves]
        start = perf_counter()
        rounds = 0
        while True:
            t0 = perf_counter()
            result = self.sweep_pass()
            if result is not None:
                passes.append(result)
            self.solve_cycle(self.wl.solves, repeats)
            rounds += 1
            elapsed = perf_counter() - start
            if rounds >= MIN_ROUNDS and elapsed + (perf_counter() - t0) > self.seconds:
                break
        # peak allocation of a pass that keeps every returned trace, over
        # solves from an evenly spread share of the starts; untimed, since
        # tracemalloc slows every allocation
        memory_solves = self.wl.solves_from(
            self.wl.starts[::max(len(self.wl.solves) // MEM_SOLVES, 1)])
        tracemalloc.start()
        self.solve_cycle(memory_solves, keep=[])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        self.csv_path.unlink(missing_ok=True)

        rates = [p["rows"] / (p["total"] * p["factor"]) for p in passes] or [0.0]
        latencies = np.array([statistics.median(r) for r in repeats if r])
        p50, p99 = np.percentile(latencies, [50, 99])
        n = len(latencies)
        self.notes["rounds"] = rounds
        self.notes["solve_ms_p99_samples_beyond"] = int(np.sum(latencies > p99))
        if passes:
            self.notes["raw.sweep_rows_per_s"] = statistics.median(
                p["rows"] / p["total"] for p in passes)
        return {
            "sweep_rows_per_s": (statistics.median(rates), len(passes)),
            "solve_ms_p50": (float(p50), n),
            "solve_ms_p99": (float(p99), n),
            "setup_s": (statistics.median(setup), len(setup)),
            "peak_mem_mb": (peak / 1e6, len(memory_solves)),
        }

    def traced_pass(self):
        """One sweep pass with every layer boundary traced; returns the
        tracer, the indices of the root and sweep spans, and the clock's
        scale factor."""
        from drsplit import cli
        from tracing import Tracer

        tracer = Tracer()
        with self.clock.sampling() as clock, tracer.instrument() as stack, \
                tracer.span("cli.pass") as root:
            with tracer.span("cli.parse_problem"):
                spec = cli.parse_problem(self.wl.sweep_text)
            if spec.lift_sets is None:
                tracer.instrument_sets(stack, spec.set_a, spec.set_b)
            with tracer.span("cli.sweep") as sweep_span:
                rows = cli.sweep(spec)
            with tracer.span("cli.emit_csv"):
                cli.emit_csv(rows, self.csv_path, spec.record_at)
        tracer.exclude(clock["intervals"])
        self.attempted += len(rows)
        self._check_sweep(rows)
        return tracer, root, sweep_span, clock["factor"]

    def traced(self):
        import layers
        from drsplit import cli

        self.warm_up()
        rng = np.random.default_rng([self.wl.seed, 1])
        lifted_sets = cli.load_problem(HERE / "problems" / "lifted.json").lift_sets
        spec = self.wl.spec
        metrics = layers.run_all(rng, 0.4 * self.seconds, self.clock, lifted_sets,
                                 spec.eta, spec.max_iter)
        passes = self.sweep_passes(0.4 * self.seconds)
        traced = [self.traced_pass() for _ in range(TRACED_PASSES)]
        # counts are exact: every traced pass must make the same calls
        repeat = len({(tuple(sorted(t.counts.items())), tuple(sorted(t.iterations.items())),
                       t.records, t.stored_bytes) for t, *_ in traced}) == 1
        self.notes["traced_counts_repeat"] = repeat
        self.failed += not repeat
        tracer, root, sweep_span, factor = min(
            traced, key=lambda t: t[0].duration_ns(t[1]) * t[3])
        tracer.write(OUT / f"spans-{self.wl.name}-seed{self.wl.seed}.csv.gz")
        self.csv_path.unlink(missing_ok=True)

        layer_ns = tracer.self_ns(root)
        if sum(layer_ns.values()) != tracer.duration_ns(root):
            raise RuntimeError("layer self times do not add up to the traced sweep")
        s = factor / 1e9    # scaled seconds per traced ns
        for layer, ns in sorted(layer_ns.items()):
            self.notes[f"self_s.{layer}"] = ns * s
        traced_s = tracer.duration_ns(root) * s
        untraced_s = min(p["total"] * p["factor"] for p in passes)
        n_passes = len(passes)
        monitor_ns = tracer.duration_ns(sweep_span) - sum(
            tracer.run_ns(kind) for kind in tracer.run_spans)
        for kind in ("DRA", "MAP", "MRP"):
            metrics[f"methods.iterations.{kind}"] = (tracer.iterations[kind], 1)
            metrics[f"methods.us_per_iter.{kind}"] = (
                tracer.run_ns(kind) * s * 1e6 / max(tracer.iterations[kind], 1), 1)
        metrics.update({
            "sets.project_calls.A": (tracer.counts["project_calls.A"], 1),
            "sets.project_calls.B": (tracer.counts["project_calls.B"], 1),
            "sets.self_s": (layer_ns["sets"] * s, 1),
            "methods.self_s": (layer_ns["methods"] * s, 1),
            "trace.records": (tracer.records, 1),
            "trace.stored_bytes": (tracer.stored_bytes, 1),
            "trace.self_s": (layer_ns["trace"] * s, 1),
            "cli.parse_ms": (statistics.median(
                p["parse"] * p["factor"] for p in passes) * 1e3, n_passes),
            "cli.monitor_s": (monitor_ns * s, 1),
            "cli.extension_steps": (tracer.counts["extension_steps"], 1),
            "cli.emit_csv_s": (statistics.median(
                p["emit"] * p["factor"] for p in passes), n_passes),
            "cli.self_s": (layer_ns["cli"] * s, 1),
            "tracing.sweep_s": (traced_s, TRACED_PASSES),
            "tracing.untraced_sweep_s": (untraced_s, n_passes),
            "tracing.overhead_pct": ((traced_s / untraced_s - 1.0) * 100.0, n_passes),
        })
        return metrics


if __name__ == "__main__":
    sys.exit(main())
