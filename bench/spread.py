"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --seeds 10 --seconds 45
    python3 bench/spread.py --workload steady-tron-n27 --seeds 5

Runs ``bench/run.py`` once per seed (1..N) and workload, one run at a
time, from the current directory.  Seeds are the outer loop, so a slow
spell on the host lands on several workloads rather than on several runs
of one.  For each workload it prints each metric's median, quartiles and
spread (Q3 - Q1) / median, the figure BENCHMARK.json's bounds are judged
against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES
from stats import quartile_spread

RUN = Path(__file__).with_name("run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOAD_NAMES)

    values: dict = {w: {} for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in workloads:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit code {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            line = ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed; {line}", flush=True)
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])

    if args.seeds < 2:
        return 0
    for workload in workloads:
        print(f"\n{workload}")
        print(f"{'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name, vals in values[workload].items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{name:20s} {statistics.median(vals):12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{quartile_spread(vals):8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
