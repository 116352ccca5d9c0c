"""The exhaustive active-set oracle that the tests check the bounded QP solvers against."""

import numpy as np

from nndiff.errors import SolverBreakdownError
from nndiff.qp import QpProblem


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
