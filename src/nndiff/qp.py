"""Bound-constrained convex quadratic programming.

minimize  1/2 c'Hc + c'q   subject to  lower <= c <= upper

Three routes: a projected limited-memory quasi-Newton solver (two-loop
recursion on projected-gradient pairs with Armijo backtracking along the
projected path), a trust-region active-set Newton solver (free-block
system solved by preconditioned CG truncated at the trust radius), and
an exhaustive active-set oracle for small dimensions.  Feasibility is maintained by exact
componentwise clamping, so every iterate satisfies the bounds.

All linear algebra runs through the instrumented kernels in
:mod:`nndiff.sparse`; each solve owns its ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SolverBreakdownError
from .sparse import (
    CsrMatrix,
    FLOAT_BYTES,
    OpLedger,
    SolveReport,
    axpy,
    aypx,  # unused here; bench/tracer.py rebinds qp.aypx with the other kernels
    cg_solve,
    dot,
    make_preconditioner,
    norm2,
    scale,
    spmv,
    start_report,
    vec_copy,
)

ABS_FLOOR = 1e-50  # convergence floor when the initial projected gradient is 0


@dataclass
class QpProblem:
    """SPD quadratic form with componentwise bounds (+-inf allowed)."""

    hessian: CsrMatrix
    linear: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, hessian: CsrMatrix, linear, lower=None, upper=None):
        n = hessian.n
        self.hessian = hessian
        self.linear = np.asarray(linear, dtype=np.float64)
        if self.linear.shape != (n,):
            raise DimensionError("linear term length must match the operator")
        self.lower = self._bound(lower, n, -np.inf)
        self.upper = self._bound(upper, n, np.inf)
        if np.any(self.lower > self.upper):
            raise DimensionError("lower bound exceeds upper bound")

    @staticmethod
    def _bound(value, n, default):
        if value is None:
            return np.full(n, default)
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            return np.full(n, float(arr))
        if arr.shape != (n,):
            raise DimensionError("bound length must match the operator")
        return arr.copy()

    @property
    def n(self) -> int:
        return self.hessian.n

    @property
    def bounded(self) -> bool:
        return bool(np.any(np.isfinite(self.lower)) or np.any(np.isfinite(self.upper)))


def objective(problem: QpProblem, c, ledger: OpLedger | None = None) -> float:
    hc = spmv(problem.hessian, c, ledger)
    return 0.5 * dot(c, hc, ledger) + dot(c, problem.linear, ledger)


def gradient(problem: QpProblem, c, ledger: OpLedger | None = None) -> np.ndarray:
    g = spmv(problem.hessian, c, ledger)
    axpy(g, 1.0, problem.linear, ledger)
    return g


def project(c, lower, upper, ledger: OpLedger | None = None) -> np.ndarray:
    """Componentwise clamp onto [lower, upper]."""
    n = len(c)
    if ledger is not None:
        ledger.record("median", 0, FLOAT_BYTES * 4 * n)
    return np.minimum(np.maximum(c, lower), upper)


def projected_gradient(g, c, lower, upper, ledger: OpLedger | None = None) -> np.ndarray:
    """Zero the gradient components that push outward at active bounds."""
    n = len(g)
    if ledger is not None:
        ledger.record("proj_grad", 0, FLOAT_BYTES * 5 * n)
    pg = np.array(g, dtype=np.float64)
    pg[(c <= lower) & (g > 0.0)] = 0.0
    pg[(c >= upper) & (g < 0.0)] = 0.0
    return pg


def _start_point(problem, x0, ledger):
    if x0 is None:
        x0 = np.zeros(problem.n)
    return project(x0, problem.lower, problem.upper, ledger)


# ---------------------------------------------------------------------------
# Projected limited-memory quasi-Newton (BLMVM-style)
# ---------------------------------------------------------------------------

def _two_loop(pg, pairs, ledger):
    """Apply the limited-memory inverse-Hessian estimate to pg."""
    d = vec_copy(pg, ledger)
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * dot(s, d, ledger)
        alphas.append(a)
        axpy(d, -a, y, ledger)
    if pairs:
        s, y, rho = pairs[-1]
        gamma = dot(s, y, ledger) / dot(y, y, ledger)
        scale(d, gamma, ledger)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * dot(y, d, ledger)
        axpy(d, a - b, s, ledger)
    return d


def solve_blmvm(
    problem: QpProblem,
    rtol: float = 1e-6,
    max_outer: int = 5000,
    x0=None,
    memory: int = 5,
    armijo: float = 1e-4,
    backtrack: float = 0.5,
    max_backtracks: int = 40,
    atol: float = 0.0,
    ledger: OpLedger | None = None,
    monitor=None,
) -> tuple[np.ndarray, SolveReport]:
    """Quasi-Newton descent on the projected path.

    Curvature pairs are built from projected gradients; pairs with
    s'y <= 0 are skipped.  Convergence: ||pg|| <= rtol * ||pg(x0)|| + atol;
    the absolute term keeps warm starts from tightening the target toward
    rounding noise.  ``monitor(outer, objective, pg_norm)`` is called
    after every accepted step.
    """
    if ledger is None:
        ledger = OpLedger()
    finish = start_report(ledger)
    lo, hi = problem.lower, problem.upper

    c = _start_point(problem, x0, ledger)
    if problem.n == 0:
        return c, finish("converged", 0)
    g = gradient(problem, c, ledger)
    pg = projected_gradient(g, c, lo, hi, ledger)
    pg_norm = norm2(pg, ledger)
    tol = rtol * pg_norm + atol + ABS_FLOOR
    fc = objective(problem, c, ledger)
    pairs: list = []
    outer = 0
    status = "max-iter"

    while True:
        if pg_norm <= tol:
            status = "converged"
            break
        if outer >= max_outer:
            break
        d = _two_loop(pg, pairs, ledger)
        scale(d, -1.0, ledger)
        if dot(d, pg, ledger) >= 0.0:
            # not a descent direction: drop the memory, fall back to -pg
            pairs.clear()
            d = vec_copy(pg, ledger)
            scale(d, -1.0, ledger)

        alpha = 1.0
        accepted = False
        # reductions near convergence fall below the resolution of f itself;
        # the eps-scaled allowance keeps rounding noise from failing the test
        noise = 4.0 * np.finfo(float).eps * abs(fc)
        for _ in range(max_backtracks):
            c_new = vec_copy(c, ledger)
            axpy(c_new, alpha, d, ledger)
            c_new = project(c_new, lo, hi, ledger)
            step = vec_copy(c_new, ledger)
            axpy(step, -1.0, c, ledger)
            g_step = dot(g, step, ledger)
            f_new = objective(problem, c_new, ledger)
            if g_step < 0.0 and f_new <= fc + armijo * g_step + noise:
                accepted = True
                break
            alpha *= backtrack
        if not accepted:
            if pairs:
                pairs.clear()
                continue
            status = "breakdown"
            break

        g_new = gradient(problem, c_new, ledger)
        pg_new = projected_gradient(g_new, c_new, lo, hi, ledger)
        y = vec_copy(pg_new, ledger)
        axpy(y, -1.0, pg, ledger)
        sy = dot(step, y, ledger)
        if sy > 0.0:
            pairs.append((step, y, 1.0 / sy))
            if len(pairs) > memory:
                pairs.pop(0)
        c, g, pg, fc = c_new, g_new, pg_new, f_new
        pg_norm = norm2(pg, ledger)
        outer += 1
        if monitor is not None:
            monitor(outer, fc, pg_norm)

    return c, finish(status, outer, residual_norm=pg_norm, objective=fc)


# ---------------------------------------------------------------------------
# Trust-region active-set Newton (TRON-style)
# ---------------------------------------------------------------------------

def solve_tron(
    problem: QpProblem,
    rtol: float = 1e-6,
    inner_rtol: float = 1e-2,
    max_outer: int = 200,
    x0=None,
    precond: str = "jacobi",
    expand: float = 2.0,
    shrink: float = 0.25,
    accept_ratio: float = 1e-4,
    atol: float = 0.0,
    ledger: OpLedger | None = None,
    monitor=None,
) -> tuple[np.ndarray, SolveReport]:
    """Active-set Newton with a trust region on the free variables.

    Per outer iteration: freeze the bound-touching variables whose
    gradient points outward, solve the free-block Newton system with
    truncated preconditioned CG to ``inner_rtol``, project the step, and
    accept/resize the radius by the usual predicted-vs-actual ratio test.
    ``monitor(outer, objective, pg_norm)`` runs after every accepted step.
    """
    if not 0.0 < inner_rtol < 1.0:
        raise ValueError("inner_rtol must lie in (0, 1)")
    if ledger is None:
        ledger = OpLedger()
    finish = start_report(ledger)
    h = problem.hessian
    lo, hi = problem.lower, problem.upper
    n = problem.n

    c = _start_point(problem, x0, ledger)
    if n == 0:
        return c, finish("converged", 0)
    g = gradient(problem, c, ledger)
    pg = projected_gradient(g, c, lo, hi, ledger)
    pg_norm = norm2(pg, ledger)
    tol = rtol * pg_norm + atol + ABS_FLOOR
    delta = norm2(g, ledger)
    if delta == 0.0:
        delta = 1.0
    fc = objective(problem, c, ledger)
    outer = 0
    inner_total = 0
    status = "max-iter"

    while True:
        if pg_norm <= tol:
            status = "converged"
            break
        if outer >= max_outer:
            break
        active = ((c <= lo) & (g > 0.0)) | ((c >= hi) & (g < 0.0))
        free = np.flatnonzero(~active)
        if free.size == 0:
            status = "breakdown"  # nonzero pg with no free variables
            break
        h_ff = h.submatrix(free)
        try:
            d_f, inner = cg_solve(
                h_ff, -g[free], make_preconditioner(h_ff, precond, ledger),
                rtol=inner_rtol, ledger=ledger, radius=delta,
            )
        except SolverBreakdownError:
            status = "breakdown"
            break
        inner_total += inner.iterations
        hit = inner.status == "boundary"

        d = np.zeros(n)
        d[free] = d_f
        c_trial = vec_copy(c, ledger)
        axpy(c_trial, 1.0, d, ledger)
        c_trial = project(c_trial, lo, hi, ledger)
        s = vec_copy(c_trial, ledger)
        axpy(s, -1.0, c, ledger)
        gs = dot(g, s, ledger)
        hs = spmv(h, s, ledger)
        predicted = -(gs + 0.5 * dot(s, hs, ledger))
        f_trial = objective(problem, c_trial, ledger)
        actual = fc - f_trial
        if predicted <= 0.0:
            delta *= shrink
            outer += 1
            continue
        # below the resolution of f(c) - f(c_trial) the measured reduction is
        # rounding noise; the model is exact for a quadratic, so trust it
        if predicted <= 1e4 * np.finfo(float).eps * max(abs(fc), 1.0):
            ratio = 1.0
        else:
            ratio = actual / predicted
        if ratio < 0.25:
            delta *= shrink
        elif ratio > 0.75 and hit:
            delta *= expand
        if ratio > accept_ratio:
            c = c_trial
            fc = f_trial
            g = gradient(problem, c, ledger)
            pg = projected_gradient(g, c, lo, hi, ledger)
            pg_norm = norm2(pg, ledger)
            if monitor is not None:
                monitor(outer + 1, fc, pg_norm)
        outer += 1

    return c, finish(
        status, outer, inner_iterations=inner_total, residual_norm=pg_norm, objective=fc
    )


# ---------------------------------------------------------------------------
# Exhaustive oracle and KKT certificate
# ---------------------------------------------------------------------------

def brute_force_qp(problem: QpProblem, feas_tol: float = 1e-9) -> np.ndarray:
    """Enumerate every lower/upper/free assignment and return the KKT point.

    Strict convexity makes the minimizer unique, so the first assignment
    whose KKT residual is within ``feas_tol`` is the answer.  Dimensions
    above 20 are refused (3^n assignments).
    """
    n = problem.n
    if n > 20:
        raise ValueError(f"brute force refused for dimension {n} > 20")
    if not (np.all(np.isfinite(problem.lower)) and np.all(np.isfinite(problem.upper))):
        raise ValueError("brute force requires finite bounds")
    h = problem.hessian.to_dense()
    q = problem.linear
    lo, hi = problem.lower, problem.upper
    idx = np.arange(n)
    best = None
    best_viol = np.inf

    for mask in range(2**n):
        free = idx[(mask >> idx) & 1 == 1]
        act = idx[(mask >> idx) & 1 == 0]
        a = len(act)
        if a:
            bits = (np.arange(2**a)[:, None] >> np.arange(a)) & 1
            c_act = np.where(bits == 1, hi[act], lo[act])  # (combos, a)
        else:
            bits = np.zeros((1, 0), dtype=np.int64)
            c_act = np.zeros((1, 0))
        combos = len(c_act)
        cand = np.empty((combos, n))
        cand[:, act] = c_act
        if len(free):
            h_ff = h[np.ix_(free, free)]
            rhs = -(q[free][:, None] + h[np.ix_(free, act)] @ c_act.T)
            cand[:, free] = np.linalg.solve(h_ff, rhs).T
        grad_all = cand @ h.T + q  # (combos, n)

        viol = np.zeros(combos)
        if len(free):
            cf = cand[:, free]
            viol = np.maximum(viol, np.max(lo[free] - cf, axis=1, initial=0.0))
            viol = np.maximum(viol, np.max(cf - hi[free], axis=1, initial=0.0))
        if a:
            g_act = grad_all[:, act]
            at_lower = bits == 0
            # multiplier signs: g >= 0 at lower-active, g <= 0 at upper-active
            viol = np.maximum(
                viol, np.max(np.where(at_lower, -g_act, g_act), axis=1, initial=0.0)
            )
        hits = np.flatnonzero(viol <= feas_tol)
        if hits.size:
            return cand[hits[0]]
        k = int(np.argmin(viol))
        if viol[k] < best_viol:
            best_viol = viol[k]
            best = cand[k]
    raise SolverBreakdownError(
        f"no feasible KKT point found (best violation {best_viol:g}); "
        "operator may not be positive definite"
    )


@dataclass
class KktCertificate:
    ok: bool
    max_violation: float
    tol: float


def kkt_check(problem: QpProblem, c, tol_abs: float) -> KktCertificate:
    """First-order optimality: |g| small at interior points, signed at bounds."""
    g = problem.hessian.matvec_raw(c) + problem.linear
    lo, hi = problem.lower, problem.upper
    viol = 0.0
    at_lower = c <= lo
    at_upper = c >= hi
    interior = ~(at_lower | at_upper)
    if np.any(interior):
        viol = max(viol, float(np.abs(g[interior]).max()))
    if np.any(at_lower):
        viol = max(viol, float(np.maximum(-g[at_lower], 0.0).max()))
    if np.any(at_upper):
        viol = max(viol, float(np.maximum(g[at_upper], 0.0).max()))
    feas = max(
        float(np.maximum(lo - c, 0.0).max(initial=0.0)),
        float(np.maximum(c - hi, 0.0).max(initial=0.0)),
    )
    viol = max(viol, feas)
    return KktCertificate(viol <= tol_abs, viol, tol_abs)
