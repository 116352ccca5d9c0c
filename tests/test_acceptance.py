"""Acceptance gate: one test per criterion, at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import time

import numpy as np
import pytest

from nndiff import (
    BoundarySpec,
    CsrMatrix,
    DiffusivityField,
    DispersionParams,
    OpLedger,
    PerfEnvelope,
    QpProblem,
    TransientConfig,
    apply_dirichlet,
    arithmetic_intensity,
    assemble,
    brute_force_qp,
    cell_volumes,
    cg_solve,
    dmp_check,
    efficiency,
    generate_box,
    generate_cube_with_hole,
    gradient,
    kkt_check,
    make_preconditioner,
    objective,
    refine_uniform,
    run_transient,
    solve_blmvm,
    solve_tron,
    spmv,
)
from nndiff.sparse import axpy, dot, norm2


def report_pass(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


# ---------------------------------------------------------------------------
# Criterion 1: maximum-principle violations appear on the Galerkin path and
# vanish on the bound-constrained paths (cube with hole, n = 18, tets).
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cube_hole_runs():
    t_start = time.perf_counter()
    mesh = generate_cube_with_hole(18, "tet4")
    diffusivity = DiffusivityField.dispersion(
        DispersionParams(alpha_l=1.0, alpha_t=0.001, d_m=0.0),
        np.array([1.0, 1.0, 1.0]),
    )
    bc = BoundarySpec(dirichlet={1: 0.0, 2: 1.0})
    results = {}
    for solver in ("galerkin", "tron", "blmvm"):
        cfg = TransientConfig(steady=True, solver=solver, rtol=1e-6,
                              c_min=0.0, c_max=1.0)
        results[solver] = run_transient(mesh, bc, diffusivity, 0.0, cfg)
    elapsed = time.perf_counter() - t_start
    return results, elapsed


def test_criterion_01_dmp_violation_phenomenon(cube_hole_runs):
    results, elapsed = cube_hole_runs
    galerkin = dmp_check(results["galerkin"].final, 0.0, 1.0)
    assert galerkin.min_value < -1e-3
    assert galerkin.percent_violated > 1.0
    # published-table analogue: same sign, same order of magnitude
    assert galerkin.percent_violated > 5.0
    for solver in ("tron", "blmvm"):
        rep = dmp_check(results[solver].final, 0.0, 1.0, tol=1e-12)
        assert results[solver].final.min() >= -1e-12, solver
        assert results[solver].final.max() <= 1.0 + 1e-12, solver
        assert rep.n_violated == 0, solver
    assert elapsed < 60.0
    ai = {name: arithmetic_intensity(res.ledger) for name, res in results.items()}
    report_pass(
        1,
        f"galerkin min {galerkin.min_value:.4f} "
        f"({galerkin.percent_violated:.1f}% nodes violated); tron/blmvm clean; "
        f"{elapsed:.1f}s; AI galerkin {ai['galerkin']:.3f} "
        f"tron {ai['tron']:.3f} blmvm {ai['blmvm']:.3f}",
    )


# ---------------------------------------------------------------------------
# Criterion 2: both solvers match the exhaustive oracle on 100 seeded
# random box-constrained problems, with passing KKT certificates.
# ---------------------------------------------------------------------------

def test_criterion_02_qp_oracle_equivalence():
    t_start = time.perf_counter()
    rng = np.random.default_rng(20240101)
    rtol = 1e-9
    for case in range(100):
        n = int(rng.integers(2, 13))
        a = rng.standard_normal((n, n))
        problem = QpProblem(
            CsrMatrix.from_dense(a.T @ a + n * np.eye(n)),
            rng.standard_normal(n) * 2.0,
            lower=0.0,
            upper=1.0,
        )
        reference = brute_force_qp(problem)
        g0 = problem.hessian.matvec_raw(np.zeros(n)) + problem.linear
        tol_abs = rtol * np.linalg.norm(g0) + 1e-12
        for solver in (solve_tron, solve_blmvm):
            c, rep = solver(problem, rtol=rtol)
            assert rep.converged, (case, solver.__name__)
            assert np.max(np.abs(c - reference)) < 1e-6, (case, solver.__name__)
            cert = kkt_check(problem, c, 10 * tol_abs)
            assert cert.ok, (case, solver.__name__, cert)
    elapsed = time.perf_counter() - t_start
    assert elapsed < 30.0
    report_pass(2, f"100 random instances, both solvers within 1e-6 of the "
                   f"oracle with KKT certificates, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: the update-form gradient matches finite differences of the
# update-form objective.
# ---------------------------------------------------------------------------

def test_criterion_03_gradient_consistency():
    rng = np.random.default_rng(33)
    n = 20
    worst = 0.0
    for _ in range(20):
        a = rng.standard_normal((n, n))
        jac = CsrMatrix.from_dense(a.T @ a + n * np.eye(n))
        c_prev = rng.standard_normal(n)
        residual_prev = rng.standard_normal(n)
        # quadratic update form: q = r_prev - J c_prev
        problem = QpProblem(jac, residual_prev - jac.matvec_raw(c_prev))
        c = rng.standard_normal(n)
        g = gradient(problem, c)
        # same gradient written as J (c - c_prev) + r_prev
        g_update_form = jac.matvec_raw(c - c_prev) + residual_prev
        assert np.max(np.abs(g - g_update_form)) < 1e-12
        eps = 1e-6
        for j in rng.choice(n, size=4, replace=False):
            e = np.zeros(n)
            e[j] = eps
            fd = (objective(problem, c + e) - objective(problem, c - e)) / (2 * eps)
            rel = abs(fd - g[j]) / max(abs(g[j]), 1.0)
            worst = max(worst, rel)
            assert rel <= 1e-6
    report_pass(3, f"gradient vs centered differences, worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 4: patch test, anisotropic constant tensor, tet and hex meshes.
# ---------------------------------------------------------------------------

def test_criterion_04_patch_test():
    grad_vec = np.array([2.0, -1.0, 0.5])
    offset = 0.25
    tensor = np.array([[1.0, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 0.25]])

    def exact(points, t=0.0):
        return points @ grad_vec + offset

    worst = 0.0
    for kind in ("tet4", "hex8"):
        mesh = generate_box(3, 3, 2, kind)
        bc = BoundarySpec(dirichlet={1: exact})
        system = assemble(mesh, None, bc, DiffusivityField.constant(tensor))
        red = apply_dirichlet(system)
        x, rep = cg_solve(red.matrix, red.rhs, rtol=1e-14)
        assert rep.converged
        err = np.max(np.abs(red.expand(x) - exact(mesh.vertices)))
        worst = max(worst, err)
        assert err < 1e-10, kind
    report_pass(4, f"linear field reproduced on tet and hex meshes, "
                   f"max nodal error {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 5: byte-ledger exactness for a scripted kernel sequence.
# ---------------------------------------------------------------------------

def test_criterion_05_byte_ledger_exactness():
    n, nz = 100, 500
    rng = np.random.default_rng(55)
    flat = rng.choice(n * n, size=nz, replace=False)
    matrix = CsrMatrix.from_coo(n, flat // n, flat % n, rng.standard_normal(nz))
    assert matrix.nnz == nz

    ledger = OpLedger()
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    norm2(x, ledger)
    dot(x, y, ledger)
    dot(y, x, ledger)
    axpy(y, 0.5, x, ledger)
    axpy(y, -0.5, x, ledger)
    axpy(y, 1.5, x, ledger)
    spmv(matrix, x, ledger)

    expected_bytes = 8 * 101 + 2 * 8 * 201 + 3 * 8 * 300 + 8000
    assert expected_bytes == 19224
    assert ledger.bytes == 19224
    expected_flops = 2 * n + 2 * (2 * n) + 3 * (2 * n) + 2 * nz
    assert ledger.flops == expected_flops
    assert arithmetic_intensity(ledger) == expected_flops / 19224
    report_pass(5, f"scripted sequence: {ledger.bytes} bytes exactly, "
                   f"AI = {expected_flops}/19224")


# ---------------------------------------------------------------------------
# Criterion 6: roofline efficiency arithmetic at the published envelope.
# ---------------------------------------------------------------------------

def test_criterion_06_efficiency_formula():
    envelope = PerfEnvelope(tpp=9.2e9, streams_bw=5.65e9)
    ledger = OpLedger()
    ledger.record("spmv", 1000, 8000)  # AI = 0.125
    wall = 2.5e-6
    rep = efficiency(ledger, wall, envelope)
    assert rep.ai == 0.125
    assert rep.ideal_rate == pytest.approx(0.70625e9, rel=1e-15)
    assert rep.bound == "memory"
    measured = 1000 / wall
    assert rep.measured_rate == pytest.approx(measured, rel=1e-15)
    assert rep.efficiency_pct == pytest.approx(100.0 * measured / 0.70625e9, rel=1e-15)
    report_pass(6, f"ideal rate 0.70625 Gflops/s at AI 0.125; efficiency "
                   f"{rep.efficiency_pct:.4f}% to machine precision")


# ---------------------------------------------------------------------------
# Criterion 7: implicit stepping against a dense reference recurrence, and
# Galerkin/constrained-path agreement when the bounds stay inactive.
# ---------------------------------------------------------------------------

def test_criterion_07_backward_euler_oracle():
    mesh = generate_box(4, 4, 4, "tet4")  # 125 vertices < 300 dofs
    assert mesh.n_vertices <= 300
    iso = DiffusivityField.constant(np.eye(3))
    bc = BoundarySpec(dirichlet={1: 0.0})
    dt, steps = 0.02, 10
    result = run_transient(
        mesh, bc, iso, 0.0,
        TransientConfig(dt=dt, n_steps=steps, initial_value=1.0, rtol=1e-13),
    )

    system = assemble(mesh, None, bc, iso)
    k = system.stiffness.to_dense()
    m = system.mass.to_dense()
    boundary = np.unique(mesh.boundary_facets)
    free = np.setdiff1d(np.arange(mesh.n_vertices), boundary)
    op = (m / dt + k)[np.ix_(free, free)]
    c = np.ones(mesh.n_vertices)
    c[boundary] = 0.0
    worst = 0.0
    for level in range(1, steps + 1):
        c_free = np.linalg.solve(op, (m @ c / dt)[free])
        c = np.zeros(mesh.n_vertices)
        c[free] = c_free
        err = np.max(np.abs(result.fields[level] - c))
        worst = max(worst, err)
        assert err < 1e-10, level

    # bounds stay inactive on a decaying 0..1 field: paths must agree
    rtol = 1e-9
    base = dict(dt=0.1, n_steps=5, initial_value=0.5, rtol=rtol)
    bc2 = BoundarySpec(dirichlet={1: 0.5})
    res_g = run_transient(mesh, bc2, iso, 0.0, TransientConfig(**base, solver="galerkin"))
    res_q = run_transient(mesh, bc2, iso, 0.0, TransientConfig(**base, solver="tron"))
    gap = max(
        np.max(np.abs(a - b)) for a, b in zip(res_g.fields, res_q.fields)
    )
    assert gap <= 10 * rtol
    report_pass(7, f"10 implicit steps within {worst:.2e} of the dense "
                   f"recurrence; inactive-bound gap {gap:.2e} <= 10*rtol")


# ---------------------------------------------------------------------------
# Criterion 8: with infinite bounds the constrained solvers reproduce the
# linear Galerkin solution.
# ---------------------------------------------------------------------------

def test_criterion_08_unconstrained_reduction():
    mesh = generate_box(3, 3, 3, "tet4")
    diffusivity = DiffusivityField.constant(np.diag([1.0, 0.001, 0.001]))
    bc = BoundarySpec(dirichlet={1: 0.0})
    system = assemble(mesh, None, bc, diffusivity, source=1.0)
    red = apply_dirichlet(system)
    x_lin, rep = cg_solve(red.matrix, red.rhs, rtol=1e-13)
    assert rep.converged
    problem = QpProblem(red.matrix, -red.rhs)  # bounds default to +-inf
    worst = 0.0
    for solver in (solve_tron, solve_blmvm):
        c, qrep = solver(problem, rtol=1e-11)
        assert qrep.converged, solver.__name__
        err = np.max(np.abs(c - x_lin))
        worst = max(worst, err)
        assert err < 1e-8, solver.__name__
    report_pass(8, f"both solvers within {worst:.2e} of the linear solve")


# ---------------------------------------------------------------------------
# Criterion 9: generated-mesh volume identities.
# ---------------------------------------------------------------------------

def test_criterion_09_mesh_volume_invariants():
    checks = []
    for kind in ("tet4", "hex8"):
        box = generate_box(3, 2, 4, kind)
        err_box = abs(cell_volumes(box).sum() - 1.0)
        assert err_box < 1e-12, kind
        hole = generate_cube_with_hole(9, kind)
        err_hole = abs(cell_volumes(hole).sum() - (1.0 - (1.0 / 9.0) ** 3))
        assert err_hole < 1e-12, kind
        refined = refine_uniform(box)
        assert refined.n_cells == 8 * box.n_cells
        err_ref = abs(cell_volumes(refined).sum() - 1.0)
        assert err_ref < 1e-12, kind
        checks.append(max(err_box, err_hole, err_ref))
    report_pass(9, f"volume identities within {max(checks):.2e}")


# ---------------------------------------------------------------------------
# Logged (non-asserted) diagnostics: iteration growth under refinement and
# AI ordering across solvers.
# ---------------------------------------------------------------------------

def test_logged_refinement_and_ai_diagnostics():
    diffusivity = DiffusivityField.dispersion(
        DispersionParams(1.0, 0.001, 0.0), np.array([1.0, 1.0, 1.0])
    )
    bc = BoundarySpec(dirichlet={1: 0.0, 2: 1.0})
    lines = []
    ai_rows = {}
    for n in (9, 18):
        mesh = generate_cube_with_hole(n, "tet4")
        red = apply_dirichlet(assemble(mesh, None, bc, diffusivity))
        ledger = OpLedger()
        pc = make_preconditioner(red.matrix, "ilu0", ledger)
        _, rep = cg_solve(red.matrix, red.rhs, precond=pc, rtol=1e-6, ledger=ledger)
        problem = QpProblem(red.matrix, -red.rhs, lower=0.0, upper=1.0)
        _, rep_t = solve_tron(problem, rtol=1e-6)
        _, rep_b = solve_blmvm(problem, rtol=1e-6)
        lines.append(
            f"n={n}: cg {rep.iterations} its, tron {rep_t.outer_iterations}/"
            f"{rep_t.inner_iterations}, blmvm {rep_b.outer_iterations}"
        )
        ai_rows[n] = (
            ledger.flops / ledger.bytes,
            rep_t.flops / rep_t.bytes,
            rep_b.flops / rep_b.bytes,
        )
    for line in lines:
        print("DIAGNOSTIC (iterations vs refinement):", line)
    for n, (ai_g, ai_t, ai_b) in ai_rows.items():
        print(
            f"DIAGNOSTIC (AI ordering) n={n}: galerkin {ai_g:.4f} "
            f">= tron {ai_t:.4f} >= blmvm {ai_b:.4f}: {ai_g >= ai_b}"
        )
