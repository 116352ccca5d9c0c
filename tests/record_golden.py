"""Record the golden load/operator cases checked by ``test_golden.py``.

Each case assembles one mesh, hashes its stiffness, capacity, transient
operator and free block, hashes ``fem.assemble_load`` at every time level,
and runs a short transient solve whose per-kernel tallies, per-level
reports and final field are kept.  Sources and Neumann fluxes depend on
time, so a load that is reused instead of recomputed at ``t`` shows.

Run from the repository root to rewrite the data file (only when a change
of results is intended and explained):

    PYTHONPATH=src python tests/record_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from nndiff import (
    BoundarySpec,
    DiffusivityField,
    DispersionParams,
    TransientConfig,
    generate_box,
    generate_cube_with_hole,
    run_transient,
)
from nndiff.fem import assemble, assemble_load
from nndiff.mesh import with_boundary_markers
from nndiff.transient import build_transient_operator

DATA = Path(__file__).parent / "data" / "golden_transient_loads.json"
DT, N_STEPS = 0.02, 3


def _source(points, t):
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    return (1.0 + 10.0 * t) * np.sin(np.pi * x) * (1.0 + y * z) - 0.3 * t


def _flux(points, t):
    return (0.5 - 20.0 * t) * (points[:, 0] + 2.0 * points[:, 2]) + t * t


def _hex_diffusivity(points):
    d = np.zeros((len(points), 3, 3))
    d[:, 0, 0] = 1.0 + points[:, 0]
    d[:, 1, 1] = 0.5 + points[:, 1] * points[:, 2]
    d[:, 2, 2] = 2.0
    d[:, 0, 1] = d[:, 1, 0] = 0.1 * points[:, 2]
    return d


def _tet_case():
    """Cube-with-hole n = 9: unit value on the hole, time-dependent flux outside."""
    mesh = generate_cube_with_hole(9, "tet4")
    diffusivity = DiffusivityField.dispersion(DispersionParams(1.0, 0.001, 0.0), np.ones(3))
    return mesh, BoundarySpec(dirichlet={2: 1.0}, neumann={1: _flux}), diffusivity


def _hex_case():
    """3x2x2 hex8 box: Dirichlet ramp on x = 0, time-dependent flux elsewhere."""
    mesh = with_boundary_markers(
        generate_box(3, 2, 2, "hex8"),
        lambda c: np.where(np.abs(c[:, 0]) < 1e-12, 1, 3),
    )
    bc = BoundarySpec(dirichlet={1: lambda p, t: p[:, 1] * (1.0 + t)}, neumann={3: _flux})
    return mesh, bc, DiffusivityField.from_function(_hex_diffusivity)


CASES = {
    "tet4-n9-flux-galerkin-3": _tet_case,
    "hex8-box-flux-galerkin-3": _hex_case,
}


def sha256(array) -> str:
    """SHA-256 of an array's little-endian bytes (int64 or float64)."""
    a = np.asarray(array)
    dtype = "<i8" if a.dtype.kind in "iu" else "<f8"
    return hashlib.sha256(np.ascontiguousarray(a, dtype=dtype).tobytes()).hexdigest()


def _matrix_hashes(m) -> list:
    return [m.n, sha256(m.row_offsets), sha256(m.col_indices), sha256(m.values)]


def compute(case: str) -> dict:
    """Everything the golden test compares for one case, as JSON-ready data."""
    mesh, bc, diffusivity = CASES[case]()
    system = assemble(mesh, None, bc, diffusivity, _source)
    operator = build_transient_operator(system.stiffness, system.mass, DT)
    times = [k * DT for k in range(N_STEPS + 1)]
    cfg = TransientConfig(dt=DT, n_steps=N_STEPS, solver="galerkin", rtol=1e-8)
    result = run_transient(mesh, bc, diffusivity, _source, cfg)
    final = np.ascontiguousarray(result.final, dtype="<f8")
    return {
        "matrices": {
            "stiffness": _matrix_hashes(system.stiffness),
            "mass": _matrix_hashes(system.mass),
            "operator": _matrix_hashes(operator),
            "free_block": _matrix_hashes(operator.submatrix(system.free)),
        },
        "assemble_load": sha256(system.load),
        "loads": [sha256(assemble_load(mesh, _source, bc, t)) for t in times],
        "kernels": {
            k: [t["calls"], t["flops"], t["bytes"]] for k, t in result.ledger.breakdown().items()
        },
        "reports": [
            dict(status=r.status, iterations=r.iterations, residual_norm=r.residual_norm,
                 flops=r.flops, bytes=r.bytes)
            for r in result.reports
        ],
        "fields": [sha256(c) for c in result.fields],
        "final_min": float(final.min()),
        "final_max": float(final.max()),
        "final_sum": float(final.sum()),
    }


def main() -> int:
    golden = {case: compute(case) for case in sorted(CASES)}
    DATA.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
