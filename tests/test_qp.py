import logging

import numpy as np
import pytest

from nndiff.sparse import CsrMatrix, OpLedger, cg_solve, norm2
from nndiff.qp import (
    QpProblem,
    brute_force_qp,
    gradient,
    kkt_check,
    objective,
    project,
    projected_gradient,
    solve_blmvm,
    solve_tron,
)

log = logging.getLogger(__name__)


def random_box_qp(n, rng):
    a = rng.standard_normal((n, n))
    h = a.T @ a + n * np.eye(n)
    q = rng.standard_normal(n) * 2.0
    return QpProblem(CsrMatrix.from_dense(h), q, lower=0.0, upper=1.0)


def projected_gradient_reference(problem, rtol=1e-12, max_iter=200000):
    """Slow, independent projected-gradient descent (second oracle)."""
    h = problem.hessian.to_dense()
    q = problem.linear
    lo, hi = problem.lower, problem.upper
    lip = np.linalg.eigvalsh(h).max()
    step = 1.0 / lip
    c = np.clip(np.zeros(problem.n), lo, hi)
    g = h @ c + q
    pg0 = np.linalg.norm(np.where(((c <= lo) & (g > 0)) | ((c >= hi) & (g < 0)), 0.0, g))
    for _ in range(max_iter):
        g = h @ c + q
        pg = np.where(((c <= lo) & (g > 0)) | ((c >= hi) & (g < 0)), 0.0, g)
        if np.linalg.norm(pg) <= rtol * pg0 + 1e-30:
            break
        c = np.clip(c - step * g, lo, hi)
    return c


class TestObjectiveGradient:
    def test_zero_point(self):
        rng = np.random.default_rng(1)
        p = random_box_qp(6, rng)
        assert objective(p, np.zeros(6)) == 0.0
        assert np.array_equal(gradient(p, np.zeros(6)), p.linear)

    def test_1d_stationary_point(self):
        p = QpProblem(CsrMatrix.from_dense([[2.0]]), [-4.0])
        assert objective(p, np.array([2.0])) == -4.0
        assert gradient(p, np.array([2.0]))[0] == 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            p = random_box_qp(20, rng)
            c = rng.standard_normal(20)
            g = gradient(p, c)
            eps = 1e-6
            for j in rng.choice(20, size=5, replace=False):
                e = np.zeros(20)
                e[j] = eps
                fd = (objective(p, c + e) - objective(p, c - e)) / (2 * eps)
                assert abs(fd - g[j]) / max(abs(g[j]), 1.0) < 1e-6

    def test_instrumented(self):
        rng = np.random.default_rng(2)
        p = random_box_qp(5, rng)
        led = OpLedger()
        objective(p, np.ones(5), led)
        gradient(p, np.ones(5), led)
        bd = led.breakdown()
        assert bd["spmv"].calls == 2
        assert bd["dot"].calls == 2
        assert bd["axpy"].calls == 1


class TestProjection:
    def test_interior_untouched(self):
        g = np.array([1.0, -2.0])
        c = np.array([0.5, 0.5])
        pg = projected_gradient(g, c, np.zeros(2), np.ones(2))
        assert np.array_equal(pg, g)

    def test_lower_active_positive_component_zeroed(self):
        g = np.array([3.0, -1.0])
        c = np.array([0.0, 0.5])
        pg = projected_gradient(g, c, np.zeros(2), np.ones(2))
        assert pg[0] == 0.0 and pg[1] == -1.0

    def test_upper_active_negative_component_zeroed(self):
        g = np.array([-3.0])
        pg = projected_gradient(g, np.array([1.0]), np.zeros(1), np.ones(1))
        assert pg[0] == 0.0

    def test_full_clamp(self):
        c = np.array([-1.0, 2.0])
        assert np.array_equal(project(c, np.zeros(2), np.ones(2)), [0.0, 1.0])

    def test_clamp_is_exact(self):
        # projection must hit the bound values exactly, not approximately
        lo = np.array([0.1, 0.3])
        hi = np.array([0.9, 0.7])
        out = project(np.array([-5.0, 5.0]), lo, hi)
        assert out[0] == 0.1 and out[1] == 0.7


class TestBruteForce:
    def test_1d_active_bound(self):
        p = QpProblem(CsrMatrix.from_dense([[2.0]]), [4.0], lower=0.0, upper=1.0)
        c = brute_force_qp(p)
        assert c[0] == 0.0
        # multiplier g(0) = 4 >= 0 certifies optimality
        assert kkt_check(p, c, 1e-12).ok

    def test_2d_separable_clamp(self):
        p = QpProblem(
            CsrMatrix.identity(2), [-0.5, -2.0], lower=0.0, upper=1.0
        )
        assert np.allclose(brute_force_qp(p), [0.5, 1.0])

    def test_agrees_with_projected_gradient_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = random_box_qp(8, rng)
            c_bf = brute_force_qp(p)
            c_pg = projected_gradient_reference(p)
            assert np.max(np.abs(c_bf - c_pg)) < 1e-6

    def test_refuses_large_dimension(self):
        p = QpProblem(CsrMatrix.identity(21), np.zeros(21), lower=0.0, upper=1.0)
        with pytest.raises(ValueError, match="20"):
            brute_force_qp(p)

    def test_requires_finite_bounds(self):
        p = QpProblem(CsrMatrix.identity(2), np.zeros(2), lower=0.0)
        with pytest.raises(ValueError, match="finite"):
            brute_force_qp(p)


class TestBlmvm:
    def test_identity_two_outer_iterations(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal(12)
        p = QpProblem(CsrMatrix.identity(12), -b)
        c, rep = solve_blmvm(p, rtol=1e-10)
        assert rep.converged
        assert rep.outer_iterations <= 2
        assert np.max(np.abs(c - b)) < 1e-10

    def test_1d_active_bound(self):
        p = QpProblem(CsrMatrix.from_dense([[2.0]]), [4.0], lower=0.0)
        c, rep = solve_blmvm(p)
        assert rep.converged
        assert c[0] == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for n in (2, 5, 9, 12):
            p = random_box_qp(n, rng)
            c, rep = solve_blmvm(p, rtol=1e-10)
            assert rep.converged
            assert np.max(np.abs(c - brute_force_qp(p))) < 1e-6

    def test_monotone_descent(self):
        rng = np.random.default_rng(23)
        p = random_box_qp(15, rng)
        values = []
        solve_blmvm(p, rtol=1e-9, monitor=lambda k, f, pg: values.append(f))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_feasible_result_with_tight_bounds(self):
        rng = np.random.default_rng(5)
        p = random_box_qp(10, rng)
        c, _ = solve_blmvm(p)
        assert np.all(c >= 0.0) and np.all(c <= 1.0)

    def test_pg_zero_at_start(self):
        # interior stationary start: converged in zero iterations
        p = QpProblem(CsrMatrix.identity(3), np.zeros(3), lower=-1.0, upper=1.0)
        c, rep = solve_blmvm(p, x0=np.zeros(3))
        assert rep.converged and rep.outer_iterations == 0


class TestTron:
    def test_unconstrained_matches_cg(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((30, 30))
        h = CsrMatrix.from_dense(a.T @ a + 30 * np.eye(30))
        b = rng.standard_normal(30)
        p = QpProblem(h, -b)
        c, rep = solve_tron(p, rtol=1e-10, inner_rtol=1e-2)
        assert rep.converged
        x, _ = cg_solve(h, b, rtol=1e-12)
        assert np.max(np.abs(c - x)) < 1e-8

    def test_1d_active_bound(self):
        p = QpProblem(CsrMatrix.from_dense([[2.0]]), [4.0], lower=0.0)
        c, rep = solve_tron(p)
        assert rep.converged
        assert c[0] == 0.0

    @pytest.mark.parametrize("inner_rtol", [1e-1, 1e-2, 1e-3])
    def test_matches_brute_force(self, inner_rtol):
        rng = np.random.default_rng(29)
        iters = {}
        for n in (2, 6, 12):
            p = random_box_qp(n, rng)
            c, rep = solve_tron(p, rtol=1e-10, inner_rtol=inner_rtol)
            assert rep.converged
            assert np.max(np.abs(c - brute_force_qp(p))) < 1e-6
            iters[n] = (rep.outer_iterations, rep.inner_iterations)
        # diagnostic, logged not asserted: tighter inner solves tend to
        # need fewer outer iterations but more inner ones
        log.info("tron inner_rtol=%g iterations=%s", inner_rtol, iters)

    def test_monotone_descent(self):
        rng = np.random.default_rng(41)
        p = random_box_qp(15, rng)
        values = []
        solve_tron(p, rtol=1e-9, monitor=lambda k, f, pg: values.append(f))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_ilu0_inner_preconditioner(self):
        rng = np.random.default_rng(13)
        p = random_box_qp(10, rng)
        c, rep = solve_tron(p, rtol=1e-10, precond="ilu0")
        assert rep.converged
        assert np.max(np.abs(c - brute_force_qp(p))) < 1e-6

    def test_invalid_inner_rtol(self):
        p = QpProblem(CsrMatrix.identity(2), np.zeros(2))
        with pytest.raises(ValueError):
            solve_tron(p, inner_rtol=2.0)


class TestSolverProperties:
    def test_solver_agreement(self):
        rng = np.random.default_rng(59)
        rtol = 1e-9
        for n in (4, 8, 12):
            p = random_box_qp(n, rng)
            c_b, _ = solve_blmvm(p, rtol=rtol)
            c_t, _ = solve_tron(p, rtol=rtol)
            scale_ref = max(np.linalg.norm(c_t), 1.0)
            assert np.linalg.norm(c_b - c_t) <= 10 * rtol * scale_ref * 100

    def test_kkt_certificates(self):
        rng = np.random.default_rng(61)
        rtol = 1e-8
        for n in (3, 7, 11):
            p = random_box_qp(n, rng)
            g0 = p.hessian.matvec_raw(np.clip(np.zeros(n), p.lower, p.upper)) + p.linear
            tol_abs = rtol * np.linalg.norm(g0) + 1e-12
            for solver in (solve_blmvm, solve_tron):
                c, rep = solver(p, rtol=rtol)
                cert = kkt_check(p, c, tol_abs * 10)
                assert cert.ok, (solver.__name__, cert)

    def test_unconstrained_reduction_both_solvers(self):
        rng = np.random.default_rng(71)
        a = rng.standard_normal((20, 20))
        h = CsrMatrix.from_dense(a.T @ a + 20 * np.eye(20))
        f = rng.standard_normal(20)
        x_lin, _ = cg_solve(h, f, rtol=1e-13)
        p = QpProblem(h, -f)  # no bounds
        for solver in (solve_blmvm, solve_tron):
            c, rep = solver(p, rtol=1e-11)
            assert rep.converged
            assert np.max(np.abs(c - x_lin)) < 1e-8

    def test_warm_start_same_answer(self):
        rng = np.random.default_rng(83)
        p = random_box_qp(9, rng)
        c_cold, _ = solve_tron(p, rtol=1e-10)
        c_warm, _ = solve_tron(p, rtol=1e-10, x0=rng.random(9))
        assert np.max(np.abs(c_cold - c_warm)) < 1e-7

    def test_report_ledger(self):
        rng = np.random.default_rng(97)
        p = random_box_qp(6, rng)
        ledger = OpLedger()
        norm2(np.ones(4), ledger)  # traffic before the solve is not the solve's
        _, rep = solve_blmvm(p, ledger=ledger)
        assert rep.flops > 0 and rep.bytes > 0
        assert ledger.flops > rep.flops
