"""Golden meshes: generators, uniform refinement and ``boundary_faces``.

``data/golden_meshes.json`` was recorded by ``record_golden_meshes.py``
before face, edge and sub-lattice point lookups were moved onto the
one sort-and-runs grouping, ``nndiff.sparse.sorted_runs``.  Every array must
reproduce bit for bit.
"""

import json

import pytest

from record_golden_meshes import CASES, DATA, compute

GOLDEN = json.loads(DATA.read_text())


@pytest.mark.parametrize("case", CASES)
def test_golden_mesh_hashes(case):
    assert compute(case) == GOLDEN[case]
