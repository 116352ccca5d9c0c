"""Golden benchmark workloads: output files, report and ledger at workload scale.

``data/golden_workloads.json`` was recorded by ``record_golden_workloads.py``
before the kernel costs moved into one table (``sparse.KERNEL_COSTS``) and
blmvm's vector steps were written as plain numpy expressions; its two
n = 27 cases were recorded again with BLAS on one thread, as the tests run
(``conftest.py``).  Every VTK file, ``steps.csv``, the timing-free report
and every per-kernel tally must reproduce exactly.
"""

import json

import pytest

from record_golden_workloads import BENCH, CASES, DATA, compute

GOLDEN = json.loads(DATA.read_text())


@pytest.mark.parametrize("case", CASES)
def test_golden_workload(case, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    assert compute(case, tmp_path) == GOLDEN[case]
