"""Record the golden solver runs checked by ``test_golden.py``.

Each case solves the cube-with-hole n = 9 tet4 problem (alpha_L/alpha_T =
1/0.001, velocity (1, 1, 1), Dirichlet 0 outside and 1 on the hole, bounds
[0, 1], rtol = 1e-6) with one solver, steady or for three backward-Euler
steps.  Every per-kernel ledger tally (calls, FLOPs, bytes), every
per-level report field and the final field (SHA-256 of its little-endian
float64 bytes; extrema and sum are kept for reading a failure) are kept.

Run from the repository root to rewrite the data file (only when a change
of results is intended and explained):

    PYTHONPATH=src python tests/record_golden_runs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from nndiff import (
    BoundarySpec,
    DiffusivityField,
    DispersionParams,
    TransientConfig,
    generate_cube_with_hole,
    run_transient,
)
from record_golden import sha256

DATA = Path(__file__).parent / "data" / "golden_cube_hole_n9.json"
CASES = {
    "steady-galerkin": dict(dt=None, solver="galerkin"),
    "steady-tron": dict(dt=None, solver="tron"),
    "steady-blmvm": dict(dt=None, solver="blmvm"),
    "transient-blmvm-3": dict(dt=0.02, n_steps=3, solver="blmvm"),
}


def problem():
    """(mesh, boundary conditions, diffusivity) shared by every case."""
    mesh = generate_cube_with_hole(9, "tet4")
    diffusivity = DiffusivityField.dispersion(DispersionParams(1.0, 0.001, 0.0), np.ones(3))
    return mesh, BoundarySpec(dirichlet={1: 0.0, 2: 1.0}), diffusivity


def compute(case: str, mesh, bc, diffusivity) -> dict:
    """Everything the golden test compares for one case, as JSON-ready data."""
    cfg = TransientConfig(rtol=1e-6, c_min=0.0, c_max=1.0, **CASES[case])
    result = run_transient(mesh, bc, diffusivity, 0.0, cfg)
    final = np.ascontiguousarray(result.final, dtype="<f8")
    return {
        "kernels": {
            k: [t["calls"], t["flops"], t["bytes"]]
            for k, t in sorted(result.ledger.breakdown().items())
        },
        "reports": [
            dict(status=r.status, iterations=r.iterations, inner_iterations=r.inner_iterations,
                 residual_norm=r.residual_norm, objective=r.objective,
                 flops=r.flops, bytes=r.bytes)
            for r in result.reports
        ],
        "final_sha256": sha256(final),
        "final_min": float(final.min()),
        "final_max": float(final.max()),
        "final_sum": float(final.sum()),
    }


def main() -> int:
    shared = problem()
    golden = {case: compute(case, *shared) for case in CASES}
    DATA.write_text(json.dumps(golden, indent=1))  # the file has no final newline
    print(f"wrote {len(golden)} cases to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
