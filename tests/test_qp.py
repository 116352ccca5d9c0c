import contextlib
import json
import logging
from dataclasses import dataclass, field
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
import nndiff.qp as qp
import nndiff.transient as transient
from nndiff.errors import DimensionError, SolverBreakdownError
from nndiff.sparse import (CsrMatrix, OpLedger, axpy, cg_solve, dot, norm2, scale, spmv,
                           start_report, vec_copy)
from nndiff.qp import (
    QpProblem,
    gradient,
    kkt_check,
    objective,
    project,
    projected_gradient,
    solve_blmvm,
    solve_tron,
)
from oracles import brute_force_qp

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
        assert bd["spmv"]["calls"] == 2
        assert bd["dot"]["calls"] == 2
        assert bd["axpy"]["calls"] == 1


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

    def test_no_point_within_the_tolerance_is_an_error(self):
        # every candidate's violation is >= 0, so a negative tolerance admits
        # none; the error names the smallest violation seen, the true KKT point's
        p = random_box_qp(3, np.random.default_rng(4))
        assert kkt_check(p, brute_force_qp(p), 1e-9).ok
        with pytest.raises(SolverBreakdownError,
                           match=r"^no feasible KKT point found \(best violation 0\); "
                                 "operator may not be positive definite$"):
            brute_force_qp(p, feas_tol=-1.0)


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

    def test_non_descent_direction_falls_back_to_minus_pg(self):
        """Rounding can make the two-loop direction point uphill; -pg replaces it,
        and the solve still reaches the KKT point."""
        p = random_box_qp(6, np.random.default_rng(7))
        with mock.patch.object(qp, "_two_loop", lambda pg, pairs, ledger: pg.copy()):
            c, rep = solve_blmvm(p)
        assert rep.converged
        assert np.max(np.abs(c - brute_force_qp(p))) < 1e-6

    def test_no_acceptable_step_and_no_memory_is_breakdown(self, monkeypatch):
        """With an Armijo constant of 1 no step on a strictly convex quadratic passes
        the line search, and with no pairs to drop blmvm stops where it started."""
        p = random_box_qp(6, np.random.default_rng(7))
        monkeypatch.setattr(qp, "ARMIJO", 1.0)
        c, rep = solve_blmvm(p, max_outer=50)
        assert rep.status == "breakdown" and rep.outer_iterations == 0
        assert np.array_equal(c, np.zeros(6))


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

    def test_gradient_in_null_space_is_inner_breakdown(self):
        """The free block's CG meets p'Hp = 0 at its first step when -g lies in the
        null space of a singular H."""
        h = CsrMatrix.from_dense([[1.0, -1.0], [-1.0, 1.0]])
        p = QpProblem(h, [-1.0, -1.0], lower=0.0, upper=10.0)
        c, rep = solve_tron(p)
        assert rep.status == "breakdown" and rep.outer_iterations == 0
        assert np.array_equal(c, [0.0, 0.0])

    def test_every_bound_active_short_of_the_target_is_breakdown(self):
        """A negative atol sets a target no iterate meets; at the vertex where every
        variable is pinned there is nothing to free, so tron stops there."""
        p = QpProblem(CsrMatrix.identity(3), [-5.0, -5.0, 5.0], lower=0.0, upper=1.0)
        c, rep = solve_tron(p, atol=-1.0)
        assert rep.status == "breakdown"
        assert np.array_equal(c, brute_force_qp(p))
        assert kkt_check(p, c, 1e-12).ok

    def test_uphill_projected_step_cuts_the_radius(self):
        """Projecting the truncated-CG step onto the box can leave a predicted
        reduction <= 0; tron shrinks the radius, tries again and converges."""
        rng = np.random.default_rng(19)
        a = rng.standard_normal((5, 5))
        h = a.T @ a + 1e-2 * np.eye(5)
        p = QpProblem(CsrMatrix.from_dense(h), rng.standard_normal(5) * 2.0,
                      lower=0.0, upper=1.0)
        predicted, projected_step = [], qp._projected_step

        def spy(problem, c, alpha, d, g, ledger):
            point = projected_step(problem, c, alpha, d, g, ledger)
            s, gs = point[1], point[2]
            predicted.append(-(gs + 0.5 * s @ h @ s))
            return point

        with mock.patch.object(qp, "_projected_step", spy):
            c, rep = solve_tron(p, rtol=1e-10)
        assert min(predicted) <= 0.0
        assert rep.converged
        assert np.max(np.abs(c - brute_force_qp(p))) < 1e-6


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

    def test_kkt_pinned_variable_takes_either_sign(self):
        # lower == upper: the bound's multiplier may have either sign
        p = QpProblem(CsrMatrix.from_dense([[1.0, 0.0], [0.0, 1.0]]), [0.25, -1.0],
                      lower=[-0.0, -1.0], upper=[0.0, 2.0])
        assert kkt_check(p, np.array([0.0, 1.0]), 1e-12).ok
        assert not kkt_check(p, np.array([0.0, 0.5]), 1e-12).ok

    # max(0.0, nan) is 0.0, so each of these used to pass with violation 0.0
    @pytest.mark.parametrize("c", [[0.0, np.nan, 0.5], [np.nan] * 3, [np.nan, 1.0, 0.5]],
                             ids=["interior", "all", "pinned"])
    def test_kkt_nan_is_a_violation(self, c):
        p = QpProblem(CsrMatrix.identity(3), [0.0, -1.0, -0.5],
                      lower=[0.0, 0.0, 0.0], upper=[0.0, 2.0, 2.0])  # component 0 pinned
        cert = kkt_check(p, np.array(c), 1e-8)
        assert not cert.ok
        assert not np.isfinite(cert.max_violation)

    def test_kkt_nan_gradient_at_a_pinned_variable_is_a_violation(self):
        p = QpProblem(CsrMatrix.identity(2), [0.0, -1.0], lower=[0.0, 0.0], upper=[0.0, 2.0])
        p.linear[0] = np.nan  # past the constructor's check, as an overflow could leave it
        assert not kkt_check(p, np.array([0.0, 1.0]), 1e-8).ok

    # a NaN linear term ran tron to its cap and broke blmvm down, a solver failure
    @pytest.mark.parametrize("linear", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0]])
    def test_non_finite_linear_term_rejected(self, linear):
        with pytest.raises(DimensionError, match="the linear term is not finite"):
            QpProblem(CsrMatrix.identity(2), linear, lower=0.0, upper=1.0)

    @pytest.mark.parametrize("lower, upper", [(np.nan, 1.0), (0.0, np.nan),
                                              ([0.0, np.nan], 1.0)])
    def test_nan_bound_rejected(self, lower, upper):
        with pytest.raises(DimensionError, match="a bound is NaN"):
            QpProblem(CsrMatrix.identity(2), [0.0, 0.0], lower=lower, upper=upper)

    @pytest.mark.parametrize("linear, lower, upper, message", [
        ([0.0, 0.0, 0.0], None, None, "linear term length"),
        ([0.0, 0.0], [0.0, 0.0, 0.0], None, "bound length"),
        ([0.0, 0.0], None, [1.0], "bound length"),
    ], ids=["linear", "lower", "upper"])
    def test_length_mismatch_rejected(self, linear, lower, upper, message):
        with pytest.raises(DimensionError, match=message):
            QpProblem(CsrMatrix.identity(2), linear, lower=lower, upper=upper)

    # lower = inf or upper = -inf leaves no finite value on that side: tron and
    # blmvm returned an all-inf or all--inf "solution" that kkt_check passed
    @pytest.mark.parametrize("lower, upper", [(np.inf, None), ([0.0, np.inf], 1.0),
                                              (None, -np.inf), (-1.0, [1.0, -np.inf])])
    def test_bound_infinite_on_the_wrong_side_rejected(self, lower, upper):
        with pytest.raises(DimensionError,
                           match="^a lower bound is inf or an upper bound is -inf$"):
            QpProblem(CsrMatrix.identity(2), [0.0, 0.0], lower=lower, upper=upper)

    @pytest.mark.parametrize("c", [[np.inf, 0.0], [0.0, -np.inf]])
    def test_kkt_infinite_point_is_a_violation(self, c):
        # with these infinite bounds an infinite c used to pass: inf - inf is NaN,
        # and max() kept 0.0 over it
        p = QpProblem(CsrMatrix.identity(2), [0.0, 0.0], upper=[np.inf, 1.0])
        cert = kkt_check(p, np.array(c), 1e-8)
        assert not cert.ok
        assert np.isnan(cert.max_violation)

    # a mesh whose every vertex is Dirichlet leaves a reduced problem of n = 0
    @pytest.mark.parametrize("solver", [solve_blmvm, solve_tron])
    def test_empty_problem_converges_with_no_kernel_work(self, solver):
        ledger = OpLedger()
        c, rep = solver(QpProblem(CsrMatrix.from_dense(np.zeros((0, 0))), []), ledger=ledger)
        assert c.shape == (0,)
        assert (rep.status, rep.iterations, rep.residual_norm, rep.objective) == (
            "converged", 0, 0.0, 0.0)
        # projecting the empty start point is the one kernel call charged
        assert ledger.breakdown() == {"median": {"calls": 1, "flops": 0, "bytes": 0}}

    # the bounded solvers used to broadcast a one-entry x0 and converge, and to
    # raise numpy's ValueError for any other wrong length
    @pytest.mark.parametrize("solver", [solve_blmvm, solve_tron])
    @pytest.mark.parametrize("x0", [[0.5], [0.5, 0.5], [0.5] * 4])
    def test_start_point_of_wrong_length_rejected(self, solver, x0):
        p = random_box_qp(3, np.random.default_rng(5))
        with pytest.raises(DimensionError, match=r"x0 has shape"):
            solver(p, x0=x0)

    @pytest.mark.parametrize("x0", [[0.5], [0.5, 0.5]])
    def test_cg_start_point_of_wrong_length_rejected(self, x0):
        with pytest.raises(DimensionError):
            cg_solve(CsrMatrix.identity(3), np.ones(3), x0=x0)

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


@st.composite
def spd_box_qps(draw):
    """A random SPD box QP with n <= 8, finite bounds that may pin a variable."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n))
    h = a.T @ a + draw(st.sampled_from([0.01, 1.0, n])) * np.eye(n)
    lower = -rng.random(n) * draw(st.sampled_from([0.0, 0.5, 2.0]))
    upper = lower + rng.random(n) * draw(st.sampled_from([0.0, 1.0, 4.0]))
    return QpProblem(CsrMatrix.from_dense(h), rng.standard_normal(n) * 2.0, lower, upper)


@st.composite
def active_box_qps(draw):
    """An SPD box QP with n <= 8 built around its KKT point: (problem, x*, where).

    ``where`` puts each variable of x* at its lower bound (0), its upper bound
    (1) or strictly inside (2), at least one at a bound; q = lam - H x* with
    multipliers lam >= 0.1 at lower bounds, <= -0.1 at upper ones and 0 inside.
    """
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n))
    h = a.T @ a + draw(st.sampled_from([0.01, 1.0, n])) * np.eye(n)
    lower = -rng.random(n)
    upper = lower + 0.1 + 2.0 * rng.random(n)
    where = rng.integers(0, 3, n)
    where[rng.integers(n)] = rng.integers(2)
    inside = lower + (0.05 + 0.9 * rng.random(n)) * (upper - lower)
    x = np.choose(where, [lower, upper, inside])
    lam = np.choose(where, [0.1 + rng.random(n), -0.1 - rng.random(n), np.zeros(n)])
    return QpProblem(CsrMatrix.from_dense(h), lam - h @ x, lower, upper), x, where


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def two_loop_reference(pg, pairs, ledger):
    """The search direction, one instrumented kernel per step."""
    d = vec_copy(pg, ledger)
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * dot(s, d, ledger)
        alphas.append(a)
        axpy(d, -a, y, ledger)
    if pairs:
        s, y, _ = pairs[-1]
        scale(d, dot(s, y, ledger) / dot(y, y, ledger), ledger)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        axpy(d, a - rho * dot(y, d, ledger), s, ledger)
    return scale(d, -1.0, ledger)


def projected_step_reference(problem, c, alpha, d, g, ledger):
    """P(c + alpha d), s and g.s, one instrumented kernel per step."""
    c_new = vec_copy(c, ledger)
    axpy(c_new, alpha, d, ledger)
    c_new = project(c_new, problem.lower, problem.upper, ledger)
    s = vec_copy(c_new, ledger)
    axpy(s, -1.0, c, ledger)
    return c_new, s, dot(g, s, ledger)


def trial_point_reference(problem, c, alpha, d, g, ledger):
    """The projected step, then H c_new and f(c_new): a trial point with its
    product, one instrumented kernel per step."""
    c_new, s, gs = projected_step_reference(problem, c, alpha, d, g, ledger)
    hc_new = spmv(problem.hessian, c_new, ledger)
    return c_new, s, gs, hc_new, objective(problem, c_new, ledger, hc_new)


def kkt_check_reference(problem, c, tol_abs):
    """``kkt_check`` as it stood before it read the projected gradient: the
    interior, lower-only and upper-only sets worked out by hand."""
    g = problem.hessian.matvec_raw(c) + problem.linear
    lo, hi = problem.lower, problem.upper
    viol = 0.0
    at_lower = c <= lo
    at_upper = c >= hi
    interior = ~(at_lower | at_upper)
    at_lower, at_upper = at_lower & ~at_upper, at_upper & ~at_lower
    if np.any(interior):
        viol = max(viol, float(np.abs(g[interior]).max()))
    if np.any(at_lower):
        viol = max(viol, float(np.maximum(-g[at_lower], 0.0).max()))
    if np.any(at_upper):
        viol = max(viol, float(np.maximum(g[at_upper], 0.0).max()))
    with np.errstate(invalid="ignore"):
        feas = max(
            float(np.maximum(lo - c, 0.0).max(initial=0.0)),
            float(np.maximum(c - hi, 0.0).max(initial=0.0)),
        )
    viol = max(viol, feas)
    if not np.isfinite(c).all() or np.isnan(g).any():
        viol = np.nan
    return qp.KktCertificate(viol <= tol_abs, viol, tol_abs)


# per variable: its box, and where the checked point puts it
BOXES = ["finite", "pinned", "signed-zero", "no-lower", "no-upper", "free"]
PLACES = ["lower", "upper", "inside", "below", "above", "zero-gradient", "nan", "inf", "-inf"]


@st.composite
def kkt_points(draw):
    """(problem, c, boxes, places): an SPD box QP with n <= 8 and a point to check.

    A box may pin its variable (lower == upper, also as -0.0 and 0.0) or lack a
    side; the point may sit on a bound, inside, outside the box, where its
    gradient is exactly 0, or be NaN or infinite.  The linear term is set past
    the constructor's check, so a NaN or inf point's gradient reaches the check.
    """
    n = draw(st.integers(1, 8))
    boxes = draw(st.lists(st.sampled_from(BOXES), min_size=n, max_size=n))
    places = draw(st.lists(st.sampled_from(PLACES), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n))
    h = CsrMatrix.from_dense(a.T @ a + draw(st.sampled_from([0.01, 1.0])) * np.eye(n))
    lower = -rng.random(n)
    upper = lower + 0.1 + rng.random(n)
    for i, box in enumerate(boxes):
        if box == "pinned":
            upper[i] = lower[i]
        elif box == "signed-zero":
            lower[i], upper[i] = -0.0, 0.0
        if box in ("no-lower", "free"):
            lower[i] = -np.inf
        if box in ("no-upper", "free"):
            upper[i] = np.inf
    gap = 0.5 * rng.random(n)
    at = {"lower": lower, "upper": upper, "below": lower - gap, "above": upper + gap,
          "inside": np.where(np.isfinite(lower), lower + gap, upper - gap),
          "zero-gradient": np.where(np.isfinite(lower), lower, upper),
          "nan": np.full(n, np.nan), "inf": np.full(n, np.inf), "-inf": np.full(n, -np.inf)}
    c = np.array([at[place][i] for i, place in enumerate(places)])
    problem = QpProblem(h, rng.standard_normal(n) * 2.0, lower, upper)
    with np.errstate(invalid="ignore"):
        hc = h.matvec_raw(c)
    zero = np.array([place == "zero-gradient" for place in places])
    problem.linear = np.where(zero, -hc, problem.linear)  # H c + q is exactly 0 there
    return problem, c, boxes, places


class TestKktCheck:
    def test_matches_the_reference_bit_for_bit(self):
        """``kkt_check`` reads the projected gradient and gives the reference's
        certificate bit for bit, over at least 500 draws that reach every box
        and every place: pinned, infeasible, NaN and infinite points among them."""
        seen = []

        @settings(max_examples=600, derandomize=True, deadline=None, database=None)
        @given(kkt_points(), st.sampled_from([0.0, 1e-8, 1.0, np.inf]))
        def check(case, tol_abs):
            problem, c, boxes, places = case
            with np.errstate(invalid="ignore"):  # inf - inf in H c at an infinite point
                got = kkt_check(problem, c, tol_abs)
                want = kkt_check_reference(problem, c, tol_abs)
            assert (got.ok, bits(got.max_violation), got.tol) == (
                want.ok, bits(want.max_violation), want.tol)
            seen.append({*boxes, *places})

        check()
        assert len(seen) >= 500
        assert set().union(*seen) == {*BOXES, *PLACES}


class TestFusedSteps:
    """blmvm's numpy-expression steps give the bits and the ledger tallies of
    the instrumented kernel sequence they are specified in."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 5), st.integers(0, 2**32 - 1))
    def test_two_loop(self, n, k, seed):
        rng = np.random.default_rng(seed)
        pairs = [(rng.standard_normal(n), rng.standard_normal(n), rng.random() + 0.1)
                 for _ in range(k)]
        pg = rng.standard_normal(n)
        fused, ref = OpLedger(), OpLedger()
        assert bits(qp._two_loop(pg, pairs, fused)) == bits(two_loop_reference(pg, pairs, ref))
        assert fused.breakdown() == ref.breakdown()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(spd_box_qps(), st.sampled_from([1.0, 0.5, 2.0**-20]), st.integers(0, 2**32 - 1))
    def test_trial_point(self, p, alpha, seed):
        rng = np.random.default_rng(seed)
        c = project(rng.standard_normal(p.n), p.lower, p.upper)
        d, g = rng.standard_normal(p.n), rng.standard_normal(p.n)
        fused, ref = OpLedger(), OpLedger()
        step = qp._projected_step(p, c, alpha, d, g, fused)
        want = projected_step_reference(p, c, alpha, d, g, ref)
        assert [bits(x) for x in step] == [bits(x) for x in want]
        assert fused.breakdown() == ref.breakdown()
        got = (*step, *qp._evaluate(p, step[0], fused))
        ref = OpLedger()
        want = trial_point_reference(p, c, alpha, d, g, ref)
        assert [bits(x) for x in got] == [bits(x) for x in want]
        assert fused.breakdown() == ref.breakdown()


class TestOneProductPerPoint:
    """One H c pays for the objective and the gradient at every evaluated point."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(spd_box_qps())
    def test_blmvm_spmv_calls_equal_objective_evaluations(self, p):
        ledger = OpLedger()
        with mock.patch.object(qp, "objective", wraps=qp.objective) as obj, \
                mock.patch.object(qp, "gradient", wraps=qp.gradient) as grad:
            _, rep = solve_blmvm(p, ledger=ledger)
        # one objective at x0 plus one per trial point whose g.s < 0; a
        # gradient at x0 and at each accepted point
        assert ledger.breakdown()["spmv"]["calls"] == obj.call_count
        assert grad.call_count == rep.iterations + 1

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(spd_box_qps(), st.data())
    def test_given_product_gives_the_same_bits(self, p, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        c = project(np.random.default_rng(seed).standard_normal(p.n) * 2.0, p.lower, p.upper)
        ledger = OpLedger()
        hc = spmv(p.hessian, c)
        assert bits(objective(p, c, ledger, hc)) == bits(objective(p, c))
        assert bits(gradient(p, c, ledger, hc)) == bits(gradient(p, c))
        assert "spmv" not in ledger.breakdown()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(spd_box_qps())
    def test_iterates_pass_kkt_and_match_brute_force(self, p):
        c_bf = brute_force_qp(p)
        g0 = p.hessian.matvec_raw(project(np.zeros(p.n), p.lower, p.upper)) + p.linear
        tol_abs = 1e-10 * np.linalg.norm(g0) + 1e-12
        for solver in (solve_blmvm, solve_tron):
            c, rep = solver(p, rtol=1e-10)
            assert rep.converged, solver.__name__
            assert kkt_check(p, c, tol_abs * 10).ok, solver.__name__
            assert np.max(np.abs(c - c_bf)) < 1e-6, solver.__name__


class TestActiveSetDirection:
    """blmvm moves only the free variables: its direction is zeroed on the
    active set, so the answer is the oracle's on QPs whose bounds are active."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(active_box_qps())
    def test_answer_passes_kkt_and_matches_brute_force(self, case):
        p, x_star, where = case
        c, rep = solve_blmvm(p, rtol=1e-10)
        assert rep.converged
        g0 = p.hessian.matvec_raw(project(np.zeros(p.n), p.lower, p.upper)) + p.linear
        assert kkt_check(p, c, 10 * (1e-10 * np.linalg.norm(g0) + 1e-12)).ok
        c_bf = brute_force_qp(p)
        assert np.max(np.abs(c_bf - x_star)) < 1e-9
        assert np.max(np.abs(c - c_bf)) < 1e-6
        # a bound with a nonzero multiplier holds exactly: projection clamps to it
        assert bits(c[where == 0]) == bits(p.lower[where == 0])
        assert bits(c[where == 1]) == bits(p.upper[where == 1])

    @pytest.mark.parametrize("active_entry", [5.0, -5.0], ids=["inward", "outward"])
    def test_active_variable_never_moves(self, active_entry):
        """The first variable sits at its lower bound with g > 0 (active); a
        direction with any entry there leaves it where it is.  Unzeroed, the
        inward entry makes every g.s > 0 and the search breaks down."""
        p = QpProblem(CsrMatrix.identity(2), [1.0, -1.0], lower=0.0, upper=1.0)
        x0 = np.array([0.0, 0.5])
        directions, projected_step = [], qp._projected_step

        def spy(problem, c, alpha, d, g, ledger):
            directions.append(d.copy())
            return projected_step(problem, c, alpha, d, g, ledger)

        with mock.patch.object(qp, "_two_loop", lambda pg, pairs, ledger: np.array(
                [active_entry, 1.0])), mock.patch.object(qp, "_projected_step", spy):
            c, rep = solve_blmvm(p, x0=x0)
        assert rep.converged
        assert directions and all(d[0] == 0.0 for d in directions)
        assert bits(c) == bits([0.0, 1.0]) == bits(brute_force_qp(p))


@dataclass
class SearchLog:
    """What a blmvm run's line searches did."""

    path: list = field(default_factory=list)  # per direction: [pairs it used, trial points]
    downhill: int = 0  # trial points with g.s < 0
    cleared: int = 0  # line searches that ran out of backtracks and dropped the memory

    @property
    def skipped(self) -> int:
        return sum(trials for _, trials in self.path) - self.downhill


def blmvm_reference(problem, rtol=1e-6, max_outer=5000, x0=None, atol=0.0, ledger=None,
                    monitor=None, log=None, two_loop=two_loop_reference):
    """solve_blmvm forming H c_new and f(c_new) at every trial point, as it did
    before the sign-test gate, with one instrumented kernel per vector step;
    ``log`` (a :class:`SearchLog`) records its line searches, and
    ``two_loop`` gives the direction before it is zeroed on the active set."""
    ledger = OpLedger() if ledger is None else ledger
    log = SearchLog() if log is None else log
    finish = start_report(ledger)
    c = qp._start_point(problem, x0, ledger)
    hc = spmv(problem.hessian, c, ledger)
    fc = objective(problem, c, ledger, hc)
    g, active, pg, pg_norm = qp._gradients(problem, c, hc, ledger)
    tol = rtol * pg_norm + atol + qp.ABS_FLOOR
    pairs, outer, status = [], 0, "max-iter"
    while True:
        if pg_norm <= tol:
            status = "converged"
            break
        if outer >= max_outer:
            break
        log.path.append([len(pairs), 0])
        d = vec_copy(two_loop(pg, pairs, ledger), ledger)
        d[active] = 0.0
        if dot(d, pg, ledger) >= 0.0:
            pairs.clear()
            d = scale(vec_copy(pg, ledger), -1.0, ledger)
        alpha, accepted = 1.0, False
        noise = 4.0 * qp.EPS * abs(fc)
        for _ in range(qp.MAX_BACKTRACKS):
            c_new, step, g_step, hc_new, f_new = trial_point_reference(
                problem, c, alpha, d, g, ledger)
            log.path[-1][1] += 1
            log.downhill += g_step < 0.0
            if g_step < 0.0 and f_new <= fc + qp.ARMIJO * g_step + noise:
                accepted = True
                break
            alpha *= qp.BACKTRACK
        if not accepted:
            if pairs:
                log.cleared += 1
                pairs.clear()
                continue
            status = "breakdown"
            break
        g_new, active, pg_new, pg_norm = qp._gradients(problem, c_new, hc_new, ledger)
        y = axpy(vec_copy(pg_new, ledger), -1.0, pg, ledger)
        sy = dot(step, y, ledger)
        if sy > 0.0:
            pairs.append((step, y, 1.0 / sy))
            if len(pairs) > qp.BLMVM_MEMORY:
                pairs.pop(0)
        c, g, pg, fc = c_new, g_new, pg_new, f_new
        outer += 1
        if monitor is not None:
            monitor(outer, fc, pg_norm)
    return c, finish(status, outer, residual_norm=pg_norm, objective=fc)


@contextlib.contextmanager
def logged_blmvm():
    """While open, solve_blmvm records its line searches in the yielded log."""
    log, two_loop, projected_step = SearchLog(), qp._two_loop, qp._projected_step

    def direction(pg, pairs, ledger):
        log.path.append([len(pairs), 0])
        return two_loop(pg, pairs, ledger)

    def trial(*args):
        point = projected_step(*args)
        log.path[-1][1] += 1
        log.downhill += point[2] < 0.0
        return point

    with mock.patch.object(qp, "_two_loop", direction), \
            mock.patch.object(qp, "_projected_step", trial):
        yield log


def nan_on_first_memory_direction(two_loop):
    """``two_loop``, with a NaN put on a free variable (pg != 0) of the first
    direction that it builds from stored pairs: that direction passes the
    descent test (d.pg is NaN) and every trial point along it fails the sign test."""
    done = []

    def direction(pg, pairs, ledger):
        d = two_loop(pg, pairs, ledger)
        if pairs and not done:
            d[np.flatnonzero(pg)[0]] = np.nan
            done.append(True)
        return d

    return direction


def assert_same_report(rep, rep_ref):
    assert (rep.status, rep.iterations) == (rep_ref.status, rep_ref.iterations)
    assert bits([rep.residual_norm, rep.objective]) == bits([rep_ref.residual_norm,
                                                             rep_ref.objective])


def assert_only_products_skipped(ledger, ref_ledger, skipped):
    """The ledgers differ by one spmv and two dots per skipped trial point."""
    got, want = ledger.breakdown(), ref_ledger.breakdown()
    assert got.pop("spmv")["calls"] == want.pop("spmv")["calls"] - skipped
    assert got.pop("dot")["calls"] == want.pop("dot")["calls"] - 2 * skipped
    assert got == want


class TestSignTestGate:
    """blmvm forms H c_new and f(c_new) only at trial points with g.s < 0, the
    first half of its Armijo test, and answers bit for bit as the reference
    that forms them at every trial point; tron forms them at every one."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(spd_box_qps())
    def test_bits_equal_the_every_point_reference(self, p):
        ledger, ref_ledger, ref_log = OpLedger(), OpLedger(), SearchLog()
        with logged_blmvm() as log:
            c, rep = solve_blmvm(p, ledger=ledger)
        c_ref, rep_ref = blmvm_reference(p, ledger=ref_ledger, log=ref_log)
        assert bits(c) == bits(c_ref)
        assert_same_report(rep, rep_ref)
        assert log.path == ref_log.path and log.downhill == ref_log.downhill
        assert ledger.breakdown()["spmv"]["calls"] == 1 + log.downhill
        assert_only_products_skipped(ledger, ref_ledger, log.skipped)

    # the first variable is active, so the direction's entry there is zeroed:
    # the step's 1e-300 or NaN sits on the free one
    @pytest.mark.parametrize("direction", [[-1.0, 1e-300], [-1.0, np.nan]],
                             ids=["zero-step", "nan-step"])
    def test_step_without_descent_is_rejected_without_a_product(self, direction):
        """A direction that passes the descent test but whose projected step is
        0 (g.s = 0) or NaN at every step length: no trial point forms H c_new,
        and with no memory to drop blmvm stops at x0 with a breakdown."""
        p = QpProblem(CsrMatrix.identity(2), [1.0, -1.0], lower=0.0, upper=1.0)
        x0 = np.array([0.0, 0.5])  # the first variable is active, the second free
        ledger = OpLedger()
        with mock.patch.object(qp, "_two_loop", lambda pg, pairs, ledger: np.array(direction)):
            c, rep = solve_blmvm(p, x0=x0, ledger=ledger)
        assert (rep.status, rep.iterations) == ("breakdown", 0)
        assert bits(c) == bits(x0)
        assert ledger.breakdown()["spmv"]["calls"] == 1

    def test_hole_transient_skips_products_and_clears_the_memory(self):
        """The cube-with-hole n = 9 transient, whose first direction built from
        memory gets a NaN on a free variable, takes the skip branch and the
        memory-clearing path, level by level as the reference does.

        Its own directions, zeroed on the active set, make no skipped trial
        point and exhaust no line search, so the NaN stands in for a direction
        that passes the descent test and then fails every sign test."""
        case = "transient-blmvm-3"
        ref_log, ref_two_loop = SearchLog(), nan_on_first_memory_direction(two_loop_reference)

        def reference(*args, **kwargs):
            return blmvm_reference(*args, log=ref_log, two_loop=ref_two_loop, **kwargs)

        with mock.patch.object(transient, "solve_blmvm", reference):
            want = golden.run_case(case)
        with mock.patch.object(qp, "_two_loop", nan_on_first_memory_direction(qp._two_loop)), \
                logged_blmvm() as log:
            got = golden.run_case(case)
        assert ref_log.skipped > 0 and ref_log.cleared == 1
        assert log.path == ref_log.path and log.downhill == ref_log.downhill
        assert [bits(c) for c in got.fields] == [bits(c) for c in want.fields]
        for rep, rep_ref in zip(got.reports, want.reports, strict=True):
            assert_same_report(rep, rep_ref)
        assert_only_products_skipped(got.ledger, want.ledger, log.skipped)

    def test_tron_forms_the_product_at_every_trial_point(self):
        """Steady tron on the cube-with-hole n = 9 evaluates x0 and every trial
        point, and its tallies are the golden file's."""
        with mock.patch.object(qp, "_projected_step", wraps=qp._projected_step) as step, \
                mock.patch.object(qp, "_evaluate", wraps=qp._evaluate) as evaluate:
            result = golden.run_case("steady-tron")
        assert step.call_count > 0
        assert evaluate.call_count == 1 + step.call_count
        stored = json.loads((golden.DATA / "golden_cube_hole_n9.json").read_text())
        assert golden._kernels(result.ledger) == stored["steady-tron"]["kernels"]
