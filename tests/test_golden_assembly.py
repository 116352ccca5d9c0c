"""Golden tet4 assembly for cell-wise, per-point and full constant tensors,
and the grouping sorts and operators of the benchmark-sized mesh.

``data/golden_assembly.json`` was recorded by ``record_golden_assembly.py``
with the four-operand element ``einsum``, the ``np.lexsort`` pattern sort
and the per-cell tensor check.  Every hash must reproduce exactly.
"""

import json

import pytest

from record_golden_assembly import BENCHMARK_CASE, CASES, DATA, compute, compute_benchmark_mesh

GOLDEN = json.loads(DATA.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_assembly(case):
    assert compute(case) == GOLDEN[case]


def test_golden_benchmark_mesh():
    assert compute_benchmark_mesh() == GOLDEN[BENCHMARK_CASE]
