"""nndiff benchmark: time to solution on the cube-with-hole problem.

Run from the root of an nndiff checkout:

    python3 bench/run.py --workload steady-tron-n27 --seed 0 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics (time_to_solution_s, setup_s,
dof_per_s, peak_rss_mb); ``--trace 1`` measures STREAM bandwidth, then
alternates untraced and traced samples and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  BLAS and OpenMP
are pinned to one thread here, before numpy loads, so reductions run in a
fixed order and iteration counts repeat exactly.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("steady-galerkin-ilu0-n27", "steady-tron-n27", "transient-blmvm-n18")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = Path.cwd()
    src = root / "src"
    if not (src / "nndiff" / "__init__.py").is_file():
        print(f"error: {src / 'nndiff'} not found; run from the root of an nndiff "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness  # imports numpy, so only after the thread variables are set

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
