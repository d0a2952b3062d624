"""Record the reference sweep CSV of every workload at the default seed.

Run from the root of a checkout, only when a change to the results is
intended and justified:

    python3 perfbench/make_reference.py

Writes perfbench/reference/<workload>.csv.gz (gzip without a timestamp, so
the same CSV gives the same file).
"""

import gzip
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from drsplit import cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        wl = workloads.Workload(name, workloads.DEFAULT_SEED, ROOT)
        spec = cli.parse_problem(wl.sweep_text)
        rows = cli.sweep(spec)
        csv_path = out / f"reference-{name}.csv"
        cli.emit_csv(rows, csv_path, spec.record_at)
        data = csv_path.read_bytes()
        csv_path.unlink()
        bad = sum(not wl.theory_ok(r.method.value, r.reason, r.final) for r in rows)
        if bad:
            print(f"{name}: {bad} rows break the theory checks; not written", file=sys.stderr)
            return 1
        with open(wl.reference_path(), "wb") as fh:
            fh.write(gzip.compress(data, mtime=0))
        print(f"{name}: {len(rows)} rows -> {wl.reference_path().relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
