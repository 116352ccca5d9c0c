"""Record the golden assembly hashes checked by ``test_golden_assembly.py``.

The other golden files pin tet4 with one constant dispersion tensor and
hex8 with a per-point tensor function.  These cases cover the tet4 tensor
paths that neither reaches, on the cube-with-hole mesh at n = 9:

- ``cellwise-velocities``: one dispersion tensor per cell, from a
  velocity that varies over the cells (``from_cell_tensors``);
- ``pointwise-function``: a tensor function sampled at every quadrature
  point and averaged per cell (P1 gradients are cellwise constant);
- ``constant-full``: one symmetric tensor with all nine entries nonzero.

For each, the SHA-256 of the stiffness and the capacity (``row_offsets``,
``col_indices``, ``values``) and of the load vector are kept.

``tet4-hole-n27`` pins the benchmark's mesh size, where the grouping
sorts and the blocked stiffness run over many blocks: the
``boundary_faces`` faces and owners of the cube with a hole at n = 27, the
sort order and run starts of its ``CooPattern``, and the stiffness,
capacity and load of a full constant tensor with a constant source.

The data was recorded with the four-operand element ``einsum``, the
``np.lexsort`` pattern sort and the per-cell tensor check, before the
blocked element stiffness, the packed-key sort and the single check of a
constant tensor replaced them.  ``tet4-hole-n27`` was recorded with the
packed-key ``np.lexsort`` sort and the 2048-cell blocked stiffness, before
the counting-pass grouping and the per-entry stiffness replaced them.

Run from the repository root to rewrite the data file (only when a change
of results is intended and explained):

    PYTHONPATH=src python tests/record_golden_assembly.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from nndiff import BoundarySpec, DiffusivityField, DispersionParams, generate_cube_with_hole
from nndiff.fem import _cell_pattern, assemble
from nndiff.mesh import boundary_faces
from record_golden import _flux, _source, sha256

DATA = Path(__file__).parent / "data" / "golden_assembly.json"


def _pointwise_tensors(points):
    """A symmetric positive definite tensor that varies within each cell."""
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    d = np.empty((len(points), 3, 3))
    d[:, 0, 0] = 1.5 + x * y
    d[:, 1, 1] = 1.0 + 0.5 * np.sin(np.pi * z)
    d[:, 2, 2] = 2.0 + x
    d[:, 0, 1] = d[:, 1, 0] = 0.2 * z
    d[:, 0, 2] = d[:, 2, 0] = -0.1 * y
    d[:, 1, 2] = d[:, 2, 1] = 0.05 * x * z
    return d


def _cellwise(mesh):
    centroids = mesh.vertices[mesh.cells].mean(axis=1)
    velocity = np.stack(
        [1.0 + centroids[:, 1], np.sin(np.pi * centroids[:, 0]), 0.3 - centroids[:, 2]],
        axis=1,
    )
    return DiffusivityField.dispersion(DispersionParams(1.0, 0.01, 1e-3), velocity)


def _pointwise(mesh):
    return DiffusivityField.from_function(_pointwise_tensors)


def _constant_full(mesh):
    return DiffusivityField.constant(
        [[2.0, 0.3, -0.2], [0.3, 1.5, 0.4], [-0.2, 0.4, 1.2]]
    )


CASES = {
    "cellwise-velocities": _cellwise,
    "pointwise-function": _pointwise,
    "constant-full": _constant_full,
}


def _matrix_hashes(m) -> list:
    return [m.n, sha256(m.row_offsets), sha256(m.col_indices), sha256(m.values)]


def compute(case: str) -> dict:
    mesh = generate_cube_with_hole(9, "tet4")
    bc = BoundarySpec(dirichlet={2: 1.0}, neumann={1: _flux})
    system = assemble(mesh, None, bc, CASES[case](mesh), _source, t=0.1)
    return {
        "stiffness": _matrix_hashes(system.stiffness),
        "mass": _matrix_hashes(system.mass),
        "load": sha256(system.load),
    }


BENCHMARK_CASE = "tet4-hole-n27"


def compute_benchmark_mesh() -> dict:
    mesh = generate_cube_with_hole(27, "tet4")
    faces, owners = boundary_faces(mesh.cells, mesh.kind)
    pattern = _cell_pattern(mesh.n_vertices, mesh.cells)
    bc = BoundarySpec(dirichlet={1: 0.0, 2: 1.0})
    system = assemble(mesh, None, bc, _constant_full(mesh), 1.5)
    return {
        "boundary_faces": [sha256(faces), sha256(owners)],
        "pattern": [sha256(pattern._order), sha256(pattern._starts)],
        "stiffness": _matrix_hashes(system.stiffness),
        "mass": _matrix_hashes(system.mass),
        "load": sha256(system.load),
    }


def main() -> int:
    golden = {case: compute(case) for case in sorted(CASES)}
    golden[BENCHMARK_CASE] = compute_benchmark_mesh()
    DATA.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
