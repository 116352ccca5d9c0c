"""Golden ILU(0): factor values, setup tally and applies at n = 18.

``data/golden_ilu0.json`` was recorded by ``record_golden_ilu0.py`` with
the row-by-row factorization and ``spsolve_triangular`` applies, before
the level-scheduled factorization and the triangular solves set up once.
Every hash and count must reproduce exactly.
"""

import json

import pytest

from record_golden_ilu0 import CASES, DATA, compute

GOLDEN = json.loads(DATA.read_text())


@pytest.mark.parametrize("case", CASES)
def test_golden_ilu0(case):
    assert compute(case) == GOLDEN[case]
