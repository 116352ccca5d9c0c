"""Output checks for one benchmark sample.

Each check returns a list of failure messages; an empty list means the
sample's outputs are correct.  Field values are read back from the VTK
files the program wrote; ``write_vtk`` formats them with %.17g, so they
read back bit-exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from nndiff.qp import QpProblem, kkt_check

# CG stops on its recursively updated residual; the true residual may
# drift from it by rounding, so allow this multiple of rtol.
RESIDUAL_RTOL_FACTOR = 10.0
# The solve path stops tron at ||pg|| <= rtol * ||pg(x0)|| + rtol * ||rhs||,
# up to twice the cli qp certificate tolerance rtol * ||g(clip(0))||.
KKT_TOL_FACTOR = 2.0


def read_vtk_scalars(path, name: str = "c") -> np.ndarray:
    """Point scalars ``name`` from a legacy ASCII VTK file."""
    text = Path(path).read_text()
    at = text.find("\nPOINT_DATA ")
    tokens = text[at:].split() if at >= 0 else []
    try:
        n_points = int(tokens[1])
        start = tokens.index(name) - 1
    except (IndexError, ValueError):
        raise ValueError(f"{path}: no point scalars named {name!r}") from None
    # SCALARS <name> <type> <components> LOOKUP_TABLE default <values...>
    if tokens[start] != "SCALARS" or tokens[start + 4 : start + 6] != ["LOOKUP_TABLE", "default"]:
        raise ValueError(f"{path}: malformed SCALARS header for {name!r}")
    values = tokens[start + 6 : start + 6 + n_points]
    if len(values) != n_points:
        raise ValueError(f"{path}: {len(values)} values for {n_points} points")
    return np.array([float(v) for v in values])


def _dirichlet_exact(c: np.ndarray, reduced) -> list[str]:
    got = c[reduced.dirichlet_idx]
    bad = np.flatnonzero(got != reduced.dirichlet_values)
    if bad.size:
        return [f"{bad.size} Dirichlet nodes differ from their prescribed values"]
    return []


def _in_bounds(c: np.ndarray, lo: float, hi: float, what: str) -> list[str]:
    outside = int(np.count_nonzero((c < lo) | (c > hi)))
    return [f"{what}: {outside} nodes outside [{lo:g}, {hi:g}]"] if outside else []


def relative_residual(reduced, x) -> float:
    """||b - A x|| / ||b|| on the reduced system, computed with scipy."""
    m = reduced.matrix
    a = sp.csr_matrix((m.values, m.col_indices, m.row_offsets), shape=(m.n, m.n))
    b = reduced.rhs
    return float(np.linalg.norm(b - a @ x) / np.linalg.norm(b))


def check_sample(workload, exit_code: int, out_dir: Path, reduced, rtol: float,
                 c_min: float, c_max: float) -> list[str]:
    """Every check that applies to ``workload``'s outputs in ``out_dir``."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    failures = []
    report = json.loads((out_dir / "report.json").read_text())
    if report.get("status") != "converged":
        failures.append(f"report status {report.get('status')!r}")
    c = read_vtk_scalars(out_dir / "out.vtk")
    failures += _dirichlet_exact(c, reduced)
    x = c[reduced.free]

    if workload.solver == "galerkin":
        res = relative_residual(reduced, x)
        if not res <= RESIDUAL_RTOL_FACTOR * rtol:
            failures.append(f"relative residual {res:.3e} > {RESIDUAL_RTOL_FACTOR:g} * rtol")
    elif workload.solver == "tron":
        problem = QpProblem(reduced.matrix, -reduced.rhs, lower=c_min, upper=c_max)
        g0 = problem.hessian.matvec_raw(
            np.clip(np.zeros(problem.n), problem.lower, problem.upper)
        ) + problem.linear
        tol_abs = KKT_TOL_FACTOR * (rtol * float(np.linalg.norm(g0)) + 1e-12)
        cert = kkt_check(problem, x, tol_abs)
        if not cert.ok:
            failures.append(f"KKT violation {cert.max_violation:.3e} > {cert.tol:.3e}")
        failures += _in_bounds(c, c_min, c_max, "final field")
    else:
        failures += _transient_checks(workload, out_dir, c, c_min, c_max)
    return failures


def _transient_checks(workload, out_dir: Path, c, c_min, c_max) -> list[str]:
    failures = []
    rows = (out_dir / "steps.csv").read_text().splitlines()[1:]
    if len(rows) != workload.levels:
        failures.append(f"{len(rows)} step rows, expected {workload.levels}")
    violated = [r for r in rows if int(r.split(",")[4]) != 0]
    if violated:
        failures.append(f"{len(violated)} step rows report bound violations")
    snapshots = len(list(out_dir.glob("out_*.vtk")))
    if snapshots != workload.snapshots:
        failures.append(f"{snapshots} snapshots, expected {workload.snapshots}")
    failures += _in_bounds(c, c_min, c_max, "final field")
    return failures
