"""Golden runs: ledger tallies, report fields, operators, loads and fields.

``data/golden_cube_hole_n9.json`` (recorder: ``record_golden_runs.py``)
was recorded before the CG/tron inner solve and the solver reports were
merged into one code path.  Its ``spmv`` tallies and the tron and blmvm
report FLOPs and bytes were re-recorded when the QP solvers began to form
H c once per evaluated point; nothing else in it moved.  Each case must
reproduce, exactly, every per-kernel tally (calls, FLOPs, bytes), every
per-level report field, and the final field (SHA-256 of its
little-endian float64 bytes; extrema and sum are kept for reading a
failure).

``data/golden_transient_loads.json`` was recorded by ``record_golden.py``
before the cell geometry and the sparsity pattern were shared across
loads and operators: time-dependent sources and Neumann fluxes on tet4
and hex8, with every operator, load and solved field hashed.
"""

import json

import pytest

from record_golden import CASES as LOAD_CASES
from record_golden import DATA as LOAD_DATA
from record_golden import compute
from record_golden_runs import CASES, DATA
from record_golden_runs import compute as compute_run
from record_golden_runs import problem as run_problem

GOLDEN = json.loads(DATA.read_text())
# FLOPs and bytes of the ILU(0) setup, which runs before the solve it serves
SETUP_OUTSIDE_REPORTS = {"steady-galerkin": [25134, 82608]}


@pytest.fixture(scope="module")
def problem():
    return run_problem()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_ledger_and_fields(problem, case):
    got, golden = compute_run(case, *problem), GOLDEN[case]
    assert got["kernels"] == golden["kernels"]
    assert got["reports"] == golden["reports"]
    final = [got[k] for k in ("final_min", "final_max", "final_sum")]
    assert final == [golden[k] for k in ("final_min", "final_max", "final_sum")]
    assert got["final_sha256"] == golden["final_sha256"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_reports_add_up_to_the_ledger(case):
    """The reports' FLOPs and bytes sum to the ledger's, bar Galerkin's ILU(0) setup.

    A hand edit of one tally or one report that is not matched by the other
    breaks the sum.
    """
    kernels, reports = GOLDEN[case]["kernels"], GOLDEN[case]["reports"]
    gap = [
        sum(t[i] for t in kernels.values()) - sum(r[key] for r in reports)
        for i, key in ((1, "flops"), (2, "bytes"))
    ]
    setup = kernels.get("ilu0_setup", [0, 0, 0])[1:]
    assert gap == setup == SETUP_OUTSIDE_REPORTS.get(case, [0, 0])


LOAD_GOLDEN = json.loads(LOAD_DATA.read_text())


@pytest.mark.parametrize("case", sorted(LOAD_CASES))
def test_golden_operators_loads_and_fields(case):
    assert compute(case) == LOAD_GOLDEN[case]
