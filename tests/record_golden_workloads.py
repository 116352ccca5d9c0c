"""Record the golden benchmark-workload runs checked by ``test_golden_workloads.py``.

Each case is one workload of ``BENCHMARK.json`` at seed 0 (velocity
(1, 1, 1)): its config is generated by ``bench/workloads.py``'s
``write_config`` and solved by one ``nndiff solve``.  Kept per case:

* the SHA-256 of every VTK file the run writes and of ``steps.csv``;
* report.json without its timings (``solver_wall_time_s`` and the
  ``perf`` fields that divide by the wall time), and with ``perf``'s
  per-kernel list kept as the tallies below;
* every per-kernel ledger tally (calls, FLOPs, bytes).

The file hashes pin every printed digit of the fields, so they follow the
BLAS/LAPACK build that numpy and scipy use and its thread count: a
different build, or more than one thread, may sum in another order, move
the last bits and, through the iteration counts, the tallies.  The runs
are recorded, and tested, with BLAS on one thread.

Run from the repository root to rewrite the data file (only when a change
of results is intended and explained):

    PYTHONPATH=src python tests/record_golden_workloads.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as in the benchmark and the tests (conftest.py), set
# before numpy loads: the answers at n = 27 depend on the thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import nndiff.cli  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
BENCH = REPO / "bench"
DATA = Path(__file__).parent / "data" / "golden_workloads.json"
CASES = tuple(w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"])
# report.json's "perf" fields that are measured times, or computed from them
PERF_TIMINGS = ("wall_time_s", "measured_flops_per_s", "efficiency_pct", "over_unity")


def compute(case: str, out_dir: Path) -> dict:
    """Everything the golden test compares for one workload, as JSON-ready data.

    ``bench/`` must be on ``sys.path``.
    """
    import workloads

    cfg = workloads.write_config(workloads.WORKLOADS[case], workloads.velocity_for_seed(0),
                                 REPO / "src", out_dir)
    with contextlib.redirect_stdout(io.StringIO()):
        assert nndiff.cli.main(["solve", "--config", str(cfg)]) == 0
    files = sorted(out_dir.glob("*.vtk")) + sorted(out_dir.glob("steps.csv"))
    report = json.loads((out_dir / "report.json").read_text())
    del report["solver_wall_time_s"]
    for key in PERF_TIMINGS:
        del report["perf"][key]
    kernels = report["perf"].pop("kernels")
    return {
        "files": {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files},
        "report": report,
        "kernels": {k["name"]: [k["calls"], k["flops"], k["bytes"]] for k in kernels},
    }


def main() -> int:
    sys.path.insert(0, str(BENCH))
    golden = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            golden[case] = compute(case, Path(tmp))
    DATA.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
