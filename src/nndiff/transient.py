"""Backward-Euler time stepping with Galerkin and bound-constrained paths.

One implicit step solves (M/dt + K) c_next = f_next + M c_n / dt on the
free dofs.  The Galerkin path uses preconditioned CG; the constrained
paths minimize the equivalent quadratic subject to c_min <= c <= c_max,
warm-started from the previous level (the minimizer is unique, so the
warm start changes work, not the answer).  A fixed time step keeps the
operator constant, so it is assembled and reduced once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import dmp_check
from .errors import ConfigError, SolverFailure
from .fem import (
    DiffusivityField,
    apply_dirichlet,
    assemble,
    assemble_load,
    dirichlet_values,
    reduce_rhs,
)
from .mesh import BoundarySpec, Mesh
from .qp import QpProblem, project, solve_blmvm, solve_tron
from .sparse import CsrMatrix, OpLedger, add_scaled, cg_solve, make_preconditioner, spmv

SOLVER_CHOICES = ("galerkin", "tron", "blmvm")


@dataclass
class TransientConfig:
    """Time-stepping and solver parameters.

    ``steady`` replaces the time loop with a single solve of the
    stationary problem.  Bounds apply only to the constrained solvers.
    """

    dt: float = 1.0
    n_steps: int = 1
    steady: bool = False
    c_min: float = 0.0
    c_max: float = 1.0
    initial_value: float = 1e-8
    solver: str = "galerkin"
    rtol: float = 1e-6
    inner_rtol: float = 1e-2
    max_iter: int | None = None
    precond: str | None = None  # galerkin/inner CG; None picks per-solver default

    def __post_init__(self):
        if self.solver not in SOLVER_CHOICES:
            raise ConfigError(f"unknown solver {self.solver!r}; use {SOLVER_CHOICES}")
        if not self.steady:
            if self.dt <= 0.0:
                raise ConfigError("dt must be positive")
            if self.n_steps < 1:
                raise ConfigError("n_steps must be at least 1")
        if self.solver != "galerkin":
            if not self.c_min <= self.initial_value <= self.c_max:
                raise ConfigError(
                    "initial value must lie within [c_min, c_max] on the bounded path"
                )
            if self.c_min > self.c_max:
                raise ConfigError("c_min must not exceed c_max")


@dataclass
class TransientResult:
    times: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    ledger: OpLedger = field(default_factory=OpLedger)
    solver_wall_time: float = 0.0

    @property
    def final(self) -> np.ndarray:
        return self.fields[-1]


def build_transient_operator(stiffness: CsrMatrix, mass: CsrMatrix, dt: float) -> CsrMatrix:
    """M/dt + K on the union of both sparsity patterns."""
    if dt <= 0.0:
        raise ConfigError("dt must be positive")
    return add_scaled(1.0 / dt, mass, 1.0, stiffness)


def build_transient_rhs(f_next, mass: CsrMatrix, c_n, dt: float,
                        ledger: OpLedger | None = None) -> np.ndarray:
    """f_next + M c_n / dt (the previous level enters through M)."""
    if dt <= 0.0:
        raise ConfigError("dt must be positive")
    out = spmv(mass, c_n, ledger)
    out /= dt
    out += f_next
    return out


def _check_bounds(values, config: TransientConfig) -> None:
    if config.solver == "galerkin" or len(values) == 0:
        return
    if values.min() < config.c_min - 1e-12 or values.max() > config.c_max + 1e-12:
        raise ConfigError(
            "prescribed Dirichlet values fall outside [c_min, c_max]; "
            "the bound-constrained path cannot satisfy them"
        )


def _solve_level(operator, rhs, config, warm, precond, ledger, step):
    """One reduced-system solve; raises SolverFailure on non-convergence."""
    if config.solver == "galerkin":
        maxit = config.max_iter if config.max_iter else max(1000, 10 * operator.n)
        x, report = cg_solve(
            operator, rhs, precond=precond, rtol=config.rtol,
            maxit=maxit, x0=warm, ledger=ledger,
        )
        if not report.converged:
            raise SolverFailure(
                f"linear solve failed to converge at step {step} "
                f"({report.iterations} iterations)", step, report,
            )
        return x, report
    problem = QpProblem(operator, -rhs, lower=config.c_min, upper=config.c_max)
    x0 = project(warm, problem.lower, problem.upper) if warm is not None else None
    # warm starts shrink pg(x0); anchor the target to the cold-start gradient
    # so the stopping test matches the linear path's ||r|| <= rtol ||b||
    atol = config.rtol * float(np.linalg.norm(rhs))
    if config.solver == "tron":
        x, report = solve_tron(
            problem, rtol=config.rtol, inner_rtol=config.inner_rtol,
            max_outer=config.max_iter or 500,
            x0=x0, precond=precond or "jacobi", atol=atol, ledger=ledger,
        )
    else:
        x, report = solve_blmvm(
            problem, rtol=config.rtol,
            max_outer=config.max_iter or 20000, x0=x0, atol=atol, ledger=ledger,
        )
    if not report.converged:
        raise SolverFailure(
            f"{config.solver} failed at step {step} (status {report.status})",
            step, report,
        )
    return x, report


def run(
    mesh: Mesh,
    bc: BoundarySpec,
    diffusivity: DiffusivityField,
    source,
    config: TransientConfig,
    on_step=None,
) -> TransientResult:
    """Drive the time loop (or a single steady solve).

    ``source`` is a constant or ``fn(points, t)``.  The initial field is
    ``config.initial_value`` everywhere with the Dirichlet data inserted.
    ``on_step(step, t, c_full, report)`` fires after every solved level.
    The result ledger covers solver work only; assembly and rhs
    construction are not logged.
    """
    system = assemble(mesh, None, bc, diffusivity, source)
    n, free = system.n, system.free
    result = TransientResult()
    _check_bounds(system.dirichlet_values, config)

    c_full = np.full(n, config.initial_value)
    c_full[system.dirichlet_idx] = system.dirichlet_values
    if config.steady:
        reduced = apply_dirichlet(system)
        operator, levels = reduced.matrix, [(0, 0.0)]
    else:
        full_operator = build_transient_operator(system.stiffness, system.mass, config.dt)
        operator = full_operator.submatrix(free)
        levels = [(k, k * config.dt) for k in range(1, config.n_steps + 1)]
        result.times.append(0.0)
        result.fields.append(c_full.copy())

    precond = config.precond or ("ilu0" if config.solver == "galerkin" else "jacobi")
    if config.solver == "galerkin":
        precond = make_preconditioner(operator, precond, result.ledger)

    for step, t in levels:
        if config.steady:
            rhs, idx, vals = reduced.rhs, reduced.dirichlet_idx, reduced.dirichlet_values
        else:
            f_full = assemble_load(mesh, source, bc, t)
            ftilde = build_transient_rhs(f_full, system.mass, c_full, config.dt)
            idx, vals = dirichlet_values(mesh, bc, t)
            _check_bounds(vals, config)
            lift = np.zeros(n)
            lift[idx] = vals
            rhs = reduce_rhs(full_operator, ftilde, free, lift)
        x, report = _solve_level(
            operator, rhs, config, c_full[free], precond, result.ledger, step,
        )
        c_full = np.zeros(n)
        c_full[free] = x
        c_full[idx] = vals
        result.times.append(t)
        result.fields.append(c_full)
        result.reports.append(report)
        result.solver_wall_time += report.wall_time
        if on_step is not None:
            on_step(step, t, c_full, report)
    return result


def write_step_csv(result: TransientResult, path, c_min: float, c_max: float) -> None:
    """One row per solved level: iterations, extrema, violations, traffic."""
    with open(path, "w") as fh:
        fh.write("step,iterations,min_c,max_c,violations,flops,bytes\n")
        solved = result.fields[-len(result.reports):]
        for k, (report, c) in enumerate(zip(result.reports, solved)):
            dmp = dmp_check(c, c_min, c_max)
            fh.write(
                f"{k},{report.iterations},{dmp.min_value:.17g},{dmp.max_value:.17g},"
                f"{dmp.n_violated},{report.flops},{report.bytes}\n"
            )
