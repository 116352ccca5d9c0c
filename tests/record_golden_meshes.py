"""Record the golden mesh hashes checked by ``test_golden_meshes.py``.

For every generated mesh, and for its uniform refinements, the SHA-256 of
the vertices, cells, boundary facets and markers is kept, together with
the hashes of ``boundary_faces`` (faces and owning cells) of its cells.
Meshes with fewer than ``SMALL`` cells are refined twice, the rest once.

Run from the repository root to rewrite the data file (only when a change
of results is intended and explained):

    PYTHONPATH=src python tests/record_golden_meshes.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from nndiff.mesh import boundary_faces, generate_box, generate_cube_with_hole, refine_uniform
from record_golden import sha256

DATA = Path(__file__).parent / "data" / "golden_meshes.json"
SMALL = 3000
BASES = {
    "box-3x2x2": lambda kind: generate_box(3, 2, 2, kind),
    "hole-n9": lambda kind: generate_cube_with_hole(9, kind),
    "hole-n18": lambda kind: generate_cube_with_hole(18, kind),
}
CASES = [f"{name}-{kind}" for name in BASES for kind in ("tet4", "hex8")]


def _hashes(mesh) -> dict:
    faces, owners = boundary_faces(mesh.cells, mesh.kind)
    return {
        "n_vertices": mesh.n_vertices,
        "n_cells": mesh.n_cells,
        "vertices": sha256(mesh.vertices),
        "cells": sha256(mesh.cells),
        "facets": sha256(mesh.boundary_facets),
        "markers": sha256(mesh.boundary_markers),
        "faces": sha256(faces),
        "owners": sha256(owners),
    }


def compute(case: str) -> list:
    """Hashes of the base mesh and of each refinement, coarsest first."""
    name, kind = case.rsplit("-", 1)
    mesh = BASES[name](kind)
    levels = [mesh]
    for _ in range(2 if mesh.n_cells < SMALL else 1):
        levels.append(refine_uniform(levels[-1]))
    return [_hashes(m) for m in levels]


def main() -> int:
    golden = {case: compute(case) for case in CASES}
    DATA.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
