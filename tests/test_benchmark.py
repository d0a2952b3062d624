"""The benchmark runs on the committed sources: a short pass of
``perfbench/run.py`` on each workload exits 0, reports no failed operation
and measures exactly the metrics that ``BENCHMARK.json`` declares."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int) -> dict:
    """The result line of one 0.3 s pass, checked to be correct."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_pass_is_correct(workload):
    result = bench(workload, 1)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_end_to_end_pass_reports_the_declared_metrics():
    result = bench("epigraph", 0)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
