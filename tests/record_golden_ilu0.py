"""Record the golden ILU(0) hashes checked by ``test_golden_ilu0.py``.

Each case is the reduced (free-dof) Galerkin matrix of the cube-with-hole
problem of ``configs/cube_hole_galerkin.toml`` at n = 18, in tet4 and in
hex8, whose 27-point rows are wider.  For each the SHA-256 of the factor
values (L strictly below the diagonal, U on and above it, in the matrix's
CSR order), the ``ilu0_setup`` tally and the SHA-256 of three applies are
kept.

The data was recorded with the row-by-row factorization and the
``spsolve_triangular`` applies, before the level-scheduled
``ilu0_factor`` and the triangular solves set up once replaced them; the
factor values were then read from the scipy factors, L's and U's entries
in the same CSR order.

Run from the repository root to rewrite the data file (only when a change
of results is intended and explained):

    PYTHONPATH=src python tests/record_golden_ilu0.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from nndiff import BoundarySpec, DiffusivityField, DispersionParams, generate_cube_with_hole
from nndiff.fem import apply_dirichlet, assemble
from nndiff.sparse import Ilu0Preconditioner, OpLedger, ilu0_factor
from record_golden import sha256

DATA = Path(__file__).parent / "data" / "golden_ilu0.json"
CASES = ["hole-n18-tet4", "hole-n18-hex8"]


def reduced_matrix(case: str):
    """The free-dof stiffness of the Galerkin config's problem for ``case``."""
    _, n, kind = case.split("-")
    mesh = generate_cube_with_hole(int(n[1:]), kind)
    diffusivity = DiffusivityField.dispersion(DispersionParams(1.0, 0.001, 0.0), np.ones(3))
    system = assemble(mesh, None, BoundarySpec(dirichlet={1: 0.0, 2: 1.0}), diffusivity, 0.0)
    return apply_dirichlet(system).matrix


def apply_inputs(n: int) -> list:
    """Three right-hand sides: ones, an alternating ramp and seeded uniforms."""
    ramp = (np.arange(n) % 7 - 3.0) * np.where(np.arange(n) % 2, 1.0, -0.5)
    return [np.ones(n), ramp, np.random.default_rng(18).random(n)]


def compute(case: str) -> dict:
    a = reduced_matrix(case)
    ledger = OpLedger()
    p = Ilu0Preconditioner(a, ledger)
    setup = ledger.breakdown()["ilu0_setup"]
    return {
        "n": a.n,
        "nnz": a.nnz,
        "factor_values": sha256(ilu0_factor(a)[0]),
        "ilu0_setup": [setup["calls"], setup["flops"], setup["bytes"]],
        "applies": [sha256(p.apply(r)) for r in apply_inputs(a.n)],
    }


def main() -> int:
    golden = {case: compute(case) for case in CASES}
    DATA.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
