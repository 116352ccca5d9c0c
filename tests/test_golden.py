"""Golden data: every case of every ``data/golden_*.json`` file reproduces exactly.

``golden.py`` computes each case and says, per file, what it pins, which
code it was recorded before and what was re-recorded when.  Every tally,
count, report field and hash must reproduce bit for bit.

The files hold for the OpenBLAS kernel of the host they were recorded on:
under another kernel ``np.dot`` and LAPACK round differently, and some
answers move.  ROADMAP item 13 (answers that do not depend on the host's
BLAS) re-records every file once, with ``python tests/golden.py``.
"""

import json

import pytest

from golden import DATA, GOLDEN, RUN_CASES, record

STORED = {name: json.loads((DATA / name).read_text()) for name in GOLDEN}
RUNS = STORED["golden_cube_hole_n9.json"]
# FLOPs and bytes of the ILU(0) setup, which runs before the solve it serves
SETUP_OUTSIDE_REPORTS = {"steady-galerkin": [25134, 82608]}


@pytest.mark.parametrize("name, case", [
    (name, case) for name, (cases, _) in GOLDEN.items() for case in cases
])
def test_golden(name, case):
    assert GOLDEN[name][1](case) == STORED[name][case]


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_golden_reports_add_up_to_the_ledger(case):
    """The reports' FLOPs and bytes sum to the ledger's, bar Galerkin's ILU(0) setup.

    A hand edit of one tally or one report that is not matched by the other
    breaks the sum.
    """
    kernels, reports = RUNS[case]["kernels"], RUNS[case]["reports"]
    gap = [
        sum(t[i] for t in kernels.values()) - sum(r[key] for r in reports)
        for i, key in ((1, "flops"), (2, "bytes"))
    ]
    setup = kernels.get("ilu0_setup", [0, 0, 0])[1:]
    assert gap == setup == SETUP_OUTSIDE_REPORTS.get(case, [0, 0])


@pytest.mark.parametrize("name", ["golden_meshes.json", "golden_ilu0.json"])
def test_recording_again_changes_no_byte(name):
    assert record(name).encode() == (DATA / name).read_bytes()


def test_every_data_file_has_one_table_entry():
    assert sorted(GOLDEN) == sorted(p.name for p in DATA.glob("golden_*.json"))
