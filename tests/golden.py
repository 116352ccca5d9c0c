"""The golden data files under ``tests/data``: one table and one recorder.

:data:`GOLDEN` maps each data file's name to its cases and to the function
that computes one case as JSON-ready data; ``test_golden.py`` checks that
every case reproduces its stored value exactly.  Each compute function's
docstring says what its file pins, which code it was recorded before and
what was re-recorded when.

Run from the repository root to rewrite the named data files, or all of
them when none is named (only when a change of results is intended and
explained):

    PYTHONPATH=src python tests/golden.py [NAME ...]

The recorder runs BLAS on one thread, as the tests (``conftest.py``) and the
benchmark do: numpy's dot product sums long vectors in an order that depends
on the thread count, and the hashed answers follow it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as in the benchmark and the tests (conftest.py), set
# before numpy loads: the answers at n = 27 depend on the thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import nndiff.cli  # noqa: E402
from nndiff import (  # noqa: E402
    BoundarySpec,
    DiffusivityField,
    DispersionParams,
    TransientConfig,
    generate_box,
    generate_cube_with_hole,
    run_transient,
)
from nndiff.fem import _cell_pattern, apply_dirichlet, assemble, assemble_load  # noqa: E402
from nndiff.mesh import boundary_faces, refine_uniform, with_boundary_markers  # noqa: E402
from nndiff.sparse import Ilu0Preconditioner, OpLedger, ilu0_factor  # noqa: E402
from nndiff.transient import build_transient_operator  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
BENCH = REPO / "bench"
DATA = Path(__file__).parent / "data"


def sha256(array) -> str:
    """SHA-256 of an array's little-endian bytes (int64 or float64)."""
    a = np.asarray(array)
    dtype = "<i8" if a.dtype.kind in "iu" else "<f8"
    return hashlib.sha256(np.ascontiguousarray(a, dtype=dtype).tobytes()).hexdigest()


def matrix_hashes(m) -> list:
    return [m.n, sha256(m.row_offsets), sha256(m.col_indices), sha256(m.values)]


def _kernels(ledger) -> dict:
    return {k: [t["calls"], t["flops"], t["bytes"]] for k, t in ledger.breakdown().items()}


def _source(points, t):
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    return (1.0 + 10.0 * t) * np.sin(np.pi * x) * (1.0 + y * z) - 0.3 * t


def _flux(points, t):
    return (0.5 - 20.0 * t) * (points[:, 0] + 2.0 * points[:, 2]) + t * t


# ---------------------------------------------------------------------------
# golden_cube_hole_n9.json: solver runs
# ---------------------------------------------------------------------------

RUN_CASES = {
    "steady-galerkin": dict(dt=None, solver="galerkin"),
    "steady-tron": dict(dt=None, solver="tron"),
    "steady-blmvm": dict(dt=None, solver="blmvm"),
    "transient-blmvm-3": dict(dt=0.02, n_steps=3, solver="blmvm"),
}


def run_case(case: str):
    """``run_transient``'s result for one run case, on the problem :func:`compute_run` describes."""
    mesh = generate_cube_with_hole(9, "tet4")
    diffusivity = DiffusivityField.dispersion(DispersionParams(1.0, 0.001, 0.0), np.ones(3))
    bc = BoundarySpec(dirichlet={1: 0.0, 2: 1.0})
    cfg = TransientConfig(rtol=1e-6, c_min=0.0, c_max=1.0, **RUN_CASES[case])
    return run_transient(mesh, bc, diffusivity, 0.0, cfg)


def compute_run(case: str) -> dict:
    """One solver run on the cube-with-hole n = 9 tet4 problem.

    The problem: alpha_L/alpha_T = 1/0.001, velocity (1, 1, 1), Dirichlet 0
    outside and 1 on the hole, bounds [0, 1], rtol = 1e-6, solved with one
    solver, steady or for three backward-Euler steps.  Every per-kernel
    ledger tally (calls, FLOPs, bytes), every per-level report field and the
    final field (SHA-256 of its little-endian float64 bytes; extrema and sum
    are kept for reading a failure) are kept.

    The file was recorded before the CG/tron inner solve and the solver
    reports were merged into one code path.  Its ``spmv`` tallies and the
    tron and blmvm report FLOPs and bytes were re-recorded when the QP
    solvers began to form H c once per evaluated point; nothing else in it
    moved.  The blmvm cases' ``spmv`` and ``dot`` tallies and report FLOPs
    and bytes were re-recorded when blmvm stopped forming H c and f at
    trial points that fail the sign test g.s < 0; nothing else moved.  The
    two blmvm cases were re-recorded in full when blmvm began to zero its
    direction on the active set, a deliberate answer change within the
    solver's tolerance; the galerkin and tron cases did not move.
    """
    result = run_case(case)
    final = np.ascontiguousarray(result.final, dtype="<f8")
    return {
        "kernels": _kernels(result.ledger),
        "reports": [
            dict(status=r.status, iterations=r.iterations, inner_iterations=r.inner_iterations,
                 residual_norm=r.residual_norm, objective=r.objective,
                 flops=r.flops, bytes=r.bytes)
            for r in result.reports
        ],
        "final_sha256": sha256(final),
        "final_min": float(final.min()),
        "final_max": float(final.max()),
        "final_sum": float(final.sum()),
    }


# ---------------------------------------------------------------------------
# golden_transient_loads.json: time-dependent loads and operators
# ---------------------------------------------------------------------------

DT, N_STEPS = 0.02, 3


def _hex_diffusivity(points):
    d = np.zeros((len(points), 3, 3))
    d[:, 0, 0] = 1.0 + points[:, 0]
    d[:, 1, 1] = 0.5 + points[:, 1] * points[:, 2]
    d[:, 2, 2] = 2.0
    d[:, 0, 1] = d[:, 1, 0] = 0.1 * points[:, 2]
    return d


def _tet_case():
    """Cube-with-hole n = 9: unit value on the hole, time-dependent flux outside."""
    mesh = generate_cube_with_hole(9, "tet4")
    diffusivity = DiffusivityField.dispersion(DispersionParams(1.0, 0.001, 0.0), np.ones(3))
    return mesh, BoundarySpec(dirichlet={2: 1.0}, neumann={1: _flux}), diffusivity


def _hex_case():
    """3x2x2 hex8 box: Dirichlet ramp on x = 0, time-dependent flux elsewhere."""
    mesh = with_boundary_markers(
        generate_box(3, 2, 2, "hex8"),
        lambda c: np.where(np.abs(c[:, 0]) < 1e-12, 1, 3),
    )
    bc = BoundarySpec(dirichlet={1: lambda p, t: p[:, 1] * (1.0 + t)}, neumann={3: _flux})
    return mesh, bc, DiffusivityField.from_function(_hex_diffusivity)


LOAD_CASES = {
    "tet4-n9-flux-galerkin-3": _tet_case,
    "hex8-box-flux-galerkin-3": _hex_case,
}


def compute_load(case: str) -> dict:
    """Operators, loads at every time level and a short transient solve.

    Each case assembles one mesh, hashes its stiffness, capacity, transient
    operator and free block, hashes ``fem.assemble_load`` at every time
    level, and runs a short transient solve whose per-kernel tallies,
    per-level reports and final field are kept.  Sources and Neumann fluxes
    depend on time, so a load that is reused instead of recomputed at ``t``
    shows.

    The file was recorded before the cell geometry and the sparsity pattern
    were shared across loads and operators.
    """
    mesh, bc, diffusivity = LOAD_CASES[case]()
    system = assemble(mesh, None, bc, diffusivity, _source)
    operator = build_transient_operator(system.stiffness, system.mass, DT)
    times = [k * DT for k in range(N_STEPS + 1)]
    cfg = TransientConfig(dt=DT, n_steps=N_STEPS, solver="galerkin", rtol=1e-8)
    result = run_transient(mesh, bc, diffusivity, _source, cfg)
    final = np.ascontiguousarray(result.final, dtype="<f8")
    return {
        "matrices": {
            "stiffness": matrix_hashes(system.stiffness),
            "mass": matrix_hashes(system.mass),
            "operator": matrix_hashes(operator),
            "free_block": matrix_hashes(operator.submatrix(system.free)),
        },
        "assemble_load": sha256(system.load),
        "loads": [sha256(assemble_load(mesh, _source, bc, t)) for t in times],
        "kernels": _kernels(result.ledger),
        "reports": [
            dict(status=r.status, iterations=r.iterations, residual_norm=r.residual_norm,
                 flops=r.flops, bytes=r.bytes)
            for r in result.reports
        ],
        "fields": [sha256(c) for c in result.fields],
        "final_min": float(final.min()),
        "final_max": float(final.max()),
        "final_sum": float(final.sum()),
    }


# ---------------------------------------------------------------------------
# golden_assembly.json: tet4 tensor paths and the benchmark-sized mesh
# ---------------------------------------------------------------------------

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


ASSEMBLY_CASES = {
    "cellwise-velocities": _cellwise,
    "pointwise-function": _pointwise,
    "constant-full": _constant_full,
}
BENCHMARK_CASE = "tet4-hole-n27"


def compute_assembly(case: str) -> dict:
    """Tet4 assembly for the tensor paths no other golden file reaches.

    The other golden files pin tet4 with one constant dispersion tensor and
    hex8 with a per-point tensor function.  These cases cover the tet4
    tensor paths that neither reaches, on the cube-with-hole mesh at n = 9:

    - ``cellwise-velocities``: one dispersion tensor per cell, from a
      velocity that varies over the cells (``from_cell_tensors``);
    - ``pointwise-function``: a tensor function sampled at every quadrature
      point and averaged per cell (P1 gradients are cellwise constant);
    - ``constant-full``: one symmetric tensor with all nine entries nonzero.

    For each, the SHA-256 of the stiffness and the capacity
    (``row_offsets``, ``col_indices``, ``values``) and of the load vector
    are kept.  ``tet4-hole-n27`` is :func:`compute_benchmark_mesh`.

    The data was recorded with the four-operand element ``einsum``, the
    ``np.lexsort`` pattern sort and the per-cell tensor check, before the
    blocked element stiffness, the packed-key sort and the single check of
    a constant tensor replaced them.  ``tet4-hole-n27`` was recorded with
    the packed-key ``np.lexsort`` sort and the 2048-cell blocked stiffness,
    before the counting-pass grouping and the per-entry stiffness replaced
    them.
    """
    if case == BENCHMARK_CASE:
        return compute_benchmark_mesh()
    mesh = generate_cube_with_hole(9, "tet4")
    bc = BoundarySpec(dirichlet={2: 1.0}, neumann={1: _flux})
    system = assemble(mesh, None, bc, ASSEMBLY_CASES[case](mesh), _source, t=0.1)
    return {
        "stiffness": matrix_hashes(system.stiffness),
        "mass": matrix_hashes(system.mass),
        "load": sha256(system.load),
    }


def compute_benchmark_mesh() -> dict:
    """The benchmark's mesh size, where the grouping sorts and the blocked
    stiffness run over many blocks.

    Kept: the ``boundary_faces`` faces and owners of the cube with a hole at
    n = 27, the sort order and run starts of its ``CooPattern``, and the
    stiffness, capacity and load of a full constant tensor with a constant
    source.
    """
    mesh = generate_cube_with_hole(27, "tet4")
    faces, owners = boundary_faces(mesh.cells, mesh.kind)
    pattern = _cell_pattern(mesh.n_vertices, mesh.cells)
    bc = BoundarySpec(dirichlet={1: 0.0, 2: 1.0})
    system = assemble(mesh, None, bc, _constant_full(mesh), 1.5)
    return {
        "boundary_faces": [sha256(faces), sha256(owners)],
        "pattern": [sha256(pattern._order), sha256(pattern._starts)],
        "stiffness": matrix_hashes(system.stiffness),
        "mass": matrix_hashes(system.mass),
        "load": sha256(system.load),
    }


# ---------------------------------------------------------------------------
# golden_ilu0.json: ILU(0) factor values, setup tally and applies
# ---------------------------------------------------------------------------

ILU0_CASES = ("hole-n18-tet4", "hole-n18-hex8")


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


def compute_ilu0(case: str) -> dict:
    """ILU(0) of a reduced Galerkin matrix.

    Each case is the reduced (free-dof) Galerkin matrix of the
    cube-with-hole problem of ``configs/cube_hole_galerkin.toml`` at n = 18,
    in tet4 and in hex8, whose 27-point rows are wider.  For each the
    SHA-256 of the factor values (L strictly below the diagonal, U on and
    above it, in the matrix's CSR order), the ``ilu0_setup`` tally and the
    SHA-256 of three applies are kept.

    The data was recorded with the row-by-row factorization and the
    ``spsolve_triangular`` applies, before the level-scheduled
    ``ilu0_factor`` and the triangular solves set up once replaced them; the
    factor values were then read from the scipy factors, L's and U's entries
    in the same CSR order.
    """
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


# ---------------------------------------------------------------------------
# golden_meshes.json: generators, uniform refinement and boundary_faces
# ---------------------------------------------------------------------------

SMALL = 3000
BASES = {
    "box-3x2x2": lambda kind: generate_box(3, 2, 2, kind),
    "hole-n9": lambda kind: generate_cube_with_hole(9, kind),
    "hole-n18": lambda kind: generate_cube_with_hole(18, kind),
}
MESH_CASES = tuple(f"{name}-{kind}" for name in BASES for kind in ("tet4", "hex8"))


def _mesh_hashes(mesh) -> dict:
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


def compute_mesh(case: str) -> list:
    """Hashes of the base mesh and of each refinement, coarsest first.

    For every generated mesh, and for its uniform refinements, the SHA-256
    of the vertices, cells, boundary facets and markers is kept, together
    with the hashes of ``boundary_faces`` (faces and owning cells) of its
    cells.  Meshes with fewer than ``SMALL`` cells are refined twice, the
    rest once.

    The file was recorded before face, edge and sub-lattice point lookups
    were moved onto the one sort-and-runs grouping,
    ``nndiff.sparse.sorted_runs``.
    """
    name, kind = case.rsplit("-", 1)
    mesh = BASES[name](kind)
    levels = [mesh]
    for _ in range(2 if mesh.n_cells < SMALL else 1):
        levels.append(refine_uniform(levels[-1]))
    return [_mesh_hashes(m) for m in levels]


# ---------------------------------------------------------------------------
# golden_workloads.json: the benchmark's workloads, end to end
# ---------------------------------------------------------------------------

WORKLOAD_CASES = tuple(
    w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]
)
# report.json's "perf" fields that are measured times, or computed from them
PERF_TIMINGS = ("wall_time_s", "measured_flops_per_s", "efficiency_pct", "over_unity")


def compute_workload(case: str) -> dict:
    """One workload of ``BENCHMARK.json`` at seed 0 (velocity (1, 1, 1)).

    Its config is generated by ``bench/workloads.py``'s ``write_config`` and
    solved by one ``nndiff solve`` in a temporary directory.  Kept:

    * the SHA-256 of every VTK file the run writes and of ``steps.csv``;
    * report.json without its timings (``solver_wall_time_s`` and the
      ``perf`` fields that divide by the wall time), and with ``perf``'s
      per-kernel list kept as the tallies below;
    * every per-kernel ledger tally (calls, FLOPs, bytes).

    The file hashes pin every printed digit of the fields, so they follow
    the BLAS/LAPACK build that numpy and scipy use and its thread count: a
    different build, or more than one thread, may sum in another order,
    move the last bits and, through the iteration counts, the tallies.  The
    runs are recorded, and tested, with BLAS on one thread.

    The file was recorded before the kernel costs moved into one table
    (``sparse.KERNEL_COSTS``) and blmvm's vector steps were written as plain
    numpy expressions; its two n = 27 cases were recorded again with BLAS
    on one thread, as the tests run (``conftest.py``).  The
    ``transient-blmvm-n18`` case was re-recorded when blmvm stopped forming
    H c and f at trial points that fail the sign test g.s < 0: its
    ``spmv`` and ``dot`` tallies, report FLOPs, bytes, AI and the FLOP
    rate bound that AI sets, and the ``steps.csv`` hash (through its flops
    and bytes columns) moved.  All three cases were re-recorded when
    report.json gained the per-level ``certificate`` and ``steps.csv`` its
    last column, which moved nothing else of the two n = 27 cases; with
    them, ``transient-blmvm-n18`` was re-recorded in full when blmvm began
    to zero its direction on the active set.
    """
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        cfg = workloads.write_config(workloads.WORKLOADS[case], workloads.velocity_for_seed(0),
                                     REPO / "src", out_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            assert nndiff.cli.main(["solve", "--config", str(cfg)]) == 0
        files = sorted(out_dir.glob("*.vtk")) + sorted(out_dir.glob("steps.csv"))
        report = json.loads((out_dir / "report.json").read_text())
        hashes = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
    del report["solver_wall_time_s"]
    for key in PERF_TIMINGS:
        del report["perf"][key]
    kernels = report["perf"].pop("kernels")
    return {
        "files": hashes,
        "report": report,
        "kernels": {k["name"]: [k["calls"], k["flops"], k["bytes"]] for k in kernels},
    }


# ---------------------------------------------------------------------------
# the table and the recorder
# ---------------------------------------------------------------------------

GOLDEN = {
    "golden_cube_hole_n9.json": (tuple(RUN_CASES), compute_run),
    "golden_transient_loads.json": (tuple(LOAD_CASES), compute_load),
    "golden_assembly.json": ((*ASSEMBLY_CASES, BENCHMARK_CASE), compute_assembly),
    "golden_ilu0.json": (ILU0_CASES, compute_ilu0),
    "golden_meshes.json": (MESH_CASES, compute_mesh),
    "golden_workloads.json": (WORKLOAD_CASES, compute_workload),
}


def record(name: str) -> str:
    """The text of data file ``name`` with every case computed afresh."""
    cases, compute = GOLDEN[name]
    return json.dumps({case: compute(case) for case in cases}, indent=1, sort_keys=True) + "\n"


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in GOLDEN]
    if unknown:
        print(f"unknown data file {unknown[0]!r}; known: {', '.join(GOLDEN)}", file=sys.stderr)
        return 2
    for name in names or GOLDEN:
        (DATA / name).write_text(record(name))
        print(f"wrote {len(GOLDEN[name][0])} cases to {DATA / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
