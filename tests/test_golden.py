"""Golden run: ledger tallies, report fields and final fields on cube-with-hole n = 9.

``data/golden_cube_hole_n9.json`` was recorded before the CG/tron inner
solve and the solver reports were merged into one code path.  Each case
must reproduce, exactly, every per-kernel tally (calls, FLOPs, bytes),
every per-level report field, and the final field (SHA-256 of its
little-endian float64 bytes; extrema and sum are kept for reading a
failure).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from nndiff import (
    BoundarySpec,
    DiffusivityField,
    DispersionParams,
    TransientConfig,
    generate_cube_with_hole,
    run_transient,
)

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_cube_hole_n9.json").read_text())
CASES = {
    "steady-galerkin": dict(steady=True, solver="galerkin"),
    "steady-tron": dict(steady=True, solver="tron"),
    "steady-blmvm": dict(steady=True, solver="blmvm"),
    "transient-blmvm-3": dict(dt=0.02, n_steps=3, solver="blmvm"),
}


@pytest.fixture(scope="module")
def problem():
    mesh = generate_cube_with_hole(9, "tet4")
    diffusivity = DiffusivityField.dispersion(DispersionParams(1.0, 0.001, 0.0), np.ones(3))
    return mesh, BoundarySpec(dirichlet={1: 0.0, 2: 1.0}), diffusivity


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_ledger_and_fields(problem, case):
    mesh, bc, diffusivity = problem
    cfg = TransientConfig(rtol=1e-6, c_min=0.0, c_max=1.0, **CASES[case])
    result = run_transient(mesh, bc, diffusivity, 0.0, cfg)
    golden = GOLDEN[case]

    kernels = {k: [t.calls, t.flops, t.bytes] for k, t in result.ledger.breakdown().items()}
    assert kernels == golden["kernels"]
    reports = [
        dict(status=r.status, iterations=r.iterations, inner_iterations=r.inner_iterations,
             residual_norm=r.residual_norm, objective=r.objective,
             flops=r.flops, bytes=r.bytes)
        for r in result.reports
    ]
    assert reports == golden["reports"]
    final = np.ascontiguousarray(result.final, dtype="<f8")
    assert (final.min(), final.max(), final.sum()) == (
        golden["final_min"], golden["final_max"], golden["final_sum"]
    )
    assert hashlib.sha256(final.tobytes()).hexdigest() == golden["final_sha256"]
