"""Bound-constrained convex quadratic programming.

minimize  1/2 c'Hc + c'q   subject to  lower <= c <= upper

Two solvers: a projected limited-memory quasi-Newton solver (two-loop
recursion on projected-gradient pairs, Armijo backtracking along the
projected path), and a trust-region active-set Newton solver (free-block
system solved by preconditioned CG truncated at the trust radius).  Both
step only on the free variables: tron solves on the free block,
and blmvm zeroes its direction on the active set, as projected Newton
methods do (Bertsekas, SIAM J. Control Optim. 1982).  Feasibility is
maintained by exact componentwise clamping, so every iterate satisfies
the bounds.

All linear algebra is charged to the solve's own ledger at the costs of
:mod:`nndiff.sparse`'s kernels.  The two-loop recursion, the projected
step and the pair update are numpy expressions that charge, in bulk, the
kernel calls they are specified in; the rest calls the kernels.  Every
evaluated point pays for one H c: the solvers form the product once and
pass it to both ``objective`` and ``gradient`` (TAO's
objective-and-gradient evaluation).  A blmvm trial point that fails the
sign test g.s < 0 cannot pass the Armijo test, so it pays only for its
projection and g.s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SolverBreakdownError
from .sparse import (
    CsrMatrix,
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
EPS = float(np.finfo(float).eps)

# blmvm: curvature pairs kept, Armijo constant, step cut per backtrack, and
# the backtracks tried before the memory is dropped
BLMVM_MEMORY = 5
ARMIJO = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 40

# tron: trust-radius growth and cut, and the smallest accepted
# actual/predicted reduction ratio
TRON_EXPAND = 2.0
TRON_SHRINK = 0.25
TRON_ACCEPT_RATIO = 1e-4


@dataclass
class QpProblem:
    """SPD quadratic form: a finite linear term; bounds not NaN, lower < inf, upper > -inf."""

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
        if not np.isfinite(self.linear).all():
            raise DimensionError("the linear term is not finite")
        self.lower = self._bound(lower, n, -np.inf)
        self.upper = self._bound(upper, n, np.inf)
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise DimensionError("a bound is NaN")
        if np.any(self.lower == np.inf) or np.any(self.upper == -np.inf):
            raise DimensionError("a lower bound is inf or an upper bound is -inf")
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


def objective(problem: QpProblem, c, ledger: OpLedger | None = None, hc=None) -> float:
    """1/2 c'Hc + c'q; ``hc`` is H c when the caller has formed it already."""
    if hc is None:
        hc = spmv(problem.hessian, c, ledger)
    return 0.5 * dot(c, hc, ledger) + dot(c, problem.linear, ledger)


def gradient(problem: QpProblem, c, ledger: OpLedger | None = None, hc=None) -> np.ndarray:
    """Hc + q; a given ``hc`` (H c, formed by the caller) becomes the gradient in place."""
    g = spmv(problem.hessian, c, ledger) if hc is None else hc
    axpy(g, 1.0, problem.linear, ledger)
    return g


def project(c, lower, upper, ledger: OpLedger | None = None) -> np.ndarray:
    """Componentwise clamp onto [lower, upper]."""
    if ledger is not None:
        ledger.count("median", len(c))
    return np.minimum(np.maximum(c, lower), upper)


def active_set(g, c, lower, upper) -> np.ndarray:
    """Mask of the variables at a bound whose gradient component pushes outward."""
    return ((c <= lower) & (g > 0.0)) | ((c >= upper) & (g < 0.0))


def projected_gradient(g, c, lower, upper, ledger: OpLedger | None = None,
                       active=None) -> np.ndarray:
    """Zero the gradient components that push outward at active bounds;
    ``active`` is their :func:`active_set` when the caller has formed it."""
    if ledger is not None:
        ledger.count("proj_grad", len(g))
    if active is None:
        active = active_set(g, c, lower, upper)
    return np.where(active, 0.0, g)


def _start_point(problem, x0, ledger):
    if x0 is None:
        x0 = np.zeros(problem.n)
    elif np.shape(x0) != (problem.n,):
        raise DimensionError(f"x0 has shape {np.shape(x0)}, need ({problem.n},)")
    return project(x0, problem.lower, problem.upper, ledger)


def _charge(ledger, n, **calls):
    """Charge ``calls[kernel]`` calls of each kernel on length-n vectors."""
    for kernel, k in calls.items():
        if k:
            ledger.count(kernel, n, calls=k)


def _projected_step(problem, c, alpha, d, g, ledger):
    """The trial point c_new = P(c + alpha d), its step s = c_new - c and g.s.

    Charged as copy + axpy, median, copy + axpy and dot.
    """
    c_new = project(c + alpha * d, problem.lower, problem.upper)
    s = c_new - c
    _charge(ledger, len(c), copy=2, axpy=2, median=1, dot=1)
    return c_new, s, float(np.dot(g, s))


def _evaluate(problem, c, ledger):
    """H c and f(c) from one spmv; H c is kept for the gradient at c (:func:`_gradients`).

    Charged as spmv and two dots.
    """
    hc = spmv(problem.hessian, c, ledger)
    return hc, objective(problem, c, ledger, hc)


def _gradients(problem, c, hc, ledger):
    """Gradient, active set, projected gradient and its norm at c, from H c (consumed)."""
    g = gradient(problem, c, ledger, hc)
    active = active_set(g, c, problem.lower, problem.upper)
    pg = projected_gradient(g, c, problem.lower, problem.upper, ledger, active)
    return g, active, pg, norm2(pg, ledger)


# ---------------------------------------------------------------------------
# Projected limited-memory quasi-Newton (BLMVM-style)
# ---------------------------------------------------------------------------

def _two_loop(pg, pairs, ledger):
    """The search direction: minus the limited-memory inverse-Hessian
    estimate applied to pg.

    Charged as a copy, two dots and two axpys per pair, two dots and a
    scale (the initial scaling) when there are pairs, and a scale (the sign).
    """
    d = pg.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(np.dot(s, d))
        alphas.append(a)
        d -= a * y
    if pairs:
        s, y, _ = pairs[-1]
        d *= float(np.dot(s, y)) / float(np.dot(y, y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        d += (a - rho * float(np.dot(y, d))) * s
    d *= -1.0
    k = len(pairs)
    _charge(ledger, len(pg), copy=1, dot=2 * k + 2 * (k > 0), axpy=2 * k, scale=1 + (k > 0))
    return d


def solve_blmvm(
    problem: QpProblem,
    rtol: float = 1e-6,
    max_outer: int = 20000,
    x0=None,
    atol: float = 0.0,
    ledger: OpLedger | None = None,
    monitor=None,
) -> tuple[np.ndarray, SolveReport]:
    """Quasi-Newton descent on the projected path.

    Curvature pairs are built from projected gradients; pairs with
    s'y <= 0 are skipped.  The two-loop direction is zeroed on the active
    set (bound variables whose gradient points outward), so a step moves
    only the free variables, as projected Newton methods do (Bertsekas,
    SIAM J. Control Optim. 1982): the direction there can point uphill,
    and the descent test d.pg < 0 cannot see it, pg being 0 on that set.
    The zeroing is charged as a copy.  Convergence: ||pg|| <= rtol *
    ||pg(x0)|| + atol; the absolute term keeps warm starts from tightening
    the target toward rounding noise.  ``monitor(outer, objective,
    pg_norm)`` is called after every accepted step.
    """
    if ledger is None:
        ledger = OpLedger()
    finish = start_report(ledger)

    c = _start_point(problem, x0, ledger)
    if problem.n == 0:
        return c, finish("converged", 0)
    hc, fc = _evaluate(problem, c, ledger)
    g, active, pg, pg_norm = _gradients(problem, c, hc, ledger)
    tol = rtol * pg_norm + atol + ABS_FLOOR
    pairs: list = []
    outer = 0
    status = "max-iter"

    while True:
        if pg_norm <= tol:
            status = "converged"
            break
        if outer >= max_outer:
            break
        # uphill on the active set goes unseen by d.pg, pg being 0 there
        d = np.where(active, 0.0, _two_loop(pg, pairs, ledger))
        _charge(ledger, problem.n, copy=1)
        if dot(d, pg, ledger) >= 0.0:
            # not a descent direction: drop the memory, fall back to -pg
            pairs.clear()
            d = scale(vec_copy(pg, ledger), -1.0, ledger)

        alpha = 1.0
        accepted = False
        # reductions near convergence fall below the resolution of f itself;
        # the eps-scaled allowance keeps rounding noise from failing the test
        noise = 4.0 * EPS * abs(fc)
        for _ in range(MAX_BACKTRACKS):
            c_new, step, g_step = _projected_step(problem, c, alpha, d, g, ledger)
            # a step that is not downhill (or whose g.s is NaN) fails the
            # Armijo test whatever f(c_new) is: form H c_new only past it
            if g_step < 0.0:
                hc_new, f_new = _evaluate(problem, c_new, ledger)
                if f_new <= fc + ARMIJO * g_step + noise:
                    accepted = True
                    break
            alpha *= BACKTRACK
        if not accepted:
            if pairs:
                pairs.clear()
                continue
            status = "breakdown"
            break

        g_new, active, pg_new, pg_norm = _gradients(problem, c_new, hc_new, ledger)
        y = pg_new - pg
        sy = float(np.dot(step, y))
        _charge(ledger, problem.n, copy=1, axpy=1, dot=1)
        if sy > 0.0:
            pairs.append((step, y, 1.0 / sy))
            if len(pairs) > BLMVM_MEMORY:
                pairs.pop(0)
        c, g, pg, fc = c_new, g_new, pg_new, f_new
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
    max_outer: int = 500,
    x0=None,
    precond: str = "jacobi",
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
    n = problem.n

    c = _start_point(problem, x0, ledger)
    if n == 0:
        return c, finish("converged", 0)
    hc, fc = _evaluate(problem, c, ledger)
    g, active, pg, pg_norm = _gradients(problem, c, hc, ledger)
    tol = rtol * pg_norm + atol + ABS_FLOOR
    delta = norm2(g, ledger)  # g = 0 gives pg_norm = 0 <= tol: it converges before reading delta
    outer = 0
    inner_total = 0
    status = "max-iter"

    while True:
        if pg_norm <= tol:
            status = "converged"
            break
        if outer >= max_outer:
            break
        free = np.flatnonzero(~active)  # c and g, so their active set, change only on accept
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
        c_trial, s, gs = _projected_step(problem, c, 1.0, d, g, ledger)
        hc_trial, f_trial = _evaluate(problem, c_trial, ledger)
        hs = spmv(h, s, ledger)
        predicted = -(gs + 0.5 * dot(s, hs, ledger))
        actual = fc - f_trial
        if predicted <= 0.0:
            delta *= TRON_SHRINK
            outer += 1
            continue
        # below the resolution of f(c) - f(c_trial) the measured reduction is
        # rounding noise; the model is exact for a quadratic, so trust it
        if predicted <= 1e4 * EPS * max(abs(fc), 1.0):
            ratio = 1.0
        else:
            ratio = actual / predicted
        if ratio < 0.25:
            delta *= TRON_SHRINK
        elif ratio > 0.75 and hit:
            delta *= TRON_EXPAND
        if ratio > TRON_ACCEPT_RATIO:
            c, fc = c_trial, f_trial
            g, active, pg, pg_norm = _gradients(problem, c, hc_trial, ledger)
            if monitor is not None:
                monitor(outer + 1, fc, pg_norm)
        outer += 1

    return c, finish(
        status, outer, inner_iterations=inner_total, residual_norm=pg_norm, objective=fc
    )


# ---------------------------------------------------------------------------
# KKT certificate
# ---------------------------------------------------------------------------

@dataclass
class KktCertificate:
    ok: bool
    max_violation: float
    tol: float


def kkt_check(problem: QpProblem, c, tol_abs: float) -> KktCertificate:
    """First-order optimality: the larger of the infeasibility and the max-norm
    of :func:`projected_gradient`, the solvers' stopping rule.

    That is |g| off the bounds, and at a bound unless g pushes outward there;
    a variable pinned at lower == upper takes a multiplier of either sign, so
    only its feasibility counts.  A NaN or infinite ``c``, or a NaN in the
    gradient, fails the check with a NaN ``max_violation``.
    """
    g = problem.hessian.matvec_raw(c) + problem.linear
    lo, hi = problem.lower, problem.upper
    viol = float(np.abs(projected_gradient(g, c, lo, hi)).max(initial=0.0))
    with np.errstate(invalid="ignore"):  # inf - inf at an infinite c, which fails below
        feas = max(
            float(np.maximum(lo - c, 0.0).max(initial=0.0)),
            float(np.maximum(c - hi, 0.0).max(initial=0.0)),
        )
    viol = max(viol, feas)
    if not np.isfinite(c).all() or np.isnan(g).any():  # max() above keeps 0.0 over a NaN
        viol = np.nan
    return KktCertificate(viol <= tol_abs, viol, tol_abs)
