"""Backward-Euler time stepping with Galerkin and bound-constrained paths.

One implicit step solves (M/dt + K) c_next = f_next + M c_n / dt on the
free dofs.  The Galerkin path uses preconditioned CG; the constrained
paths minimize the equivalent quadratic subject to c_min <= c <= c_max,
warm-started from the previous level (the minimizer is unique, so the
warm start changes work, not the answer).  ``dt = None`` is the steady
problem: one solve of K c = f, through the same solvers.

:func:`prepare` assembles one problem and reduces its operator, K or
M/dt + K, in one Dirichlet elimination; a steady problem is one level
without history.  When the source and every boundary value are constants,
no level's data depends on time, and every level reuses the load, the
Dirichlet table and the Dirichlet lift that :func:`prepare` computed once;
a level then costs M c_n / dt + f, one subtraction and its solve.  A
callable source or boundary value is evaluated at each level's time, on a
cell geometry computed once.  :func:`solve` runs one solver configuration
on it, certifies each level's answer (``_solve_level``), and builds its
own preconditioner and ledger, so several solvers can share one prepared
problem; :func:`run` is one prepare followed by one solve.  The result
keeps every level's field; output is written from it after the run, so a
failed run writes none.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import dmp_check
from .errors import ConfigError, SolverFailure
from .fem import (
    CellGeometry,
    DiffusivityField,
    ReducedSystem,
    apply_dirichlet,
    assemble,
    assemble_load,
    cell_geometry,
    dirichlet_lift,
    dirichlet_values,
    expand,
)
from .mesh import BoundarySpec, Mesh
from .qp import ABS_FLOOR, QpProblem, kkt_check, solve_blmvm, solve_tron
from .sparse import (PRECONDITIONERS, CsrMatrix, OpLedger, add_scaled, cg_solve,
                     make_preconditioner, spmv)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverSpec:
    """What nndiff knows of one solver; :data:`SOLVERS` holds them."""

    function: str  # looked up here at each call, so rebinding it (bench/tracer.py) reaches all
    bounded: bool
    precond: str | None  # the default preconditioner; None: the solver takes none
    reads_inner_rtol: bool
    cap: int  # see iteration_cap
    cap_per_dof: int = 0

    def iteration_cap(self, n: int) -> int:
        """The default iteration cap for n free dofs, whichever command runs the solver."""
        return max(self.cap, self.cap_per_dof * n)

    def __call__(self, *args, **kwargs):
        return globals()[self.function](*args, **kwargs)


SOLVERS = {  # function, bounded, precond, reads_inner_rtol, cap, cap_per_dof
    "galerkin": SolverSpec("cg_solve", False, "ilu0", False, 1000, 10),
    "tron": SolverSpec("solve_tron", True, "jacobi", True, 500),
    "blmvm": SolverSpec("solve_blmvm", True, None, False, 20000),
}


@dataclass
class TransientConfig:
    """Time-stepping and solver parameters; ``dt = None`` is one steady solve.
    Bounds apply only to the solvers that :data:`SOLVERS` marks bounded."""

    dt: float | None = 1.0
    n_steps: int = 1
    c_min: float = 0.0
    c_max: float = 1.0
    initial_value: float = 1e-8
    solver: str = "galerkin"
    rtol: float = 1e-6
    inner_rtol: float = 1e-2
    max_iter: int | None = None
    precond: str | None = None  # None: the solver's default in SOLVERS

    def __post_init__(self):
        # stored as floats, so an integer initial value still gives a float field
        for name in ("c_min", "c_max", "initial_value", "rtol", "inner_rtol"):
            setattr(self, name, float(getattr(self, name)))
        if self.dt is not None:
            self.dt = float(self.dt)
        if self.solver not in SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}; use {tuple(SOLVERS)}")
        if self.precond is not None and self.precond not in PRECONDITIONERS:
            raise ConfigError(f"unknown preconditioner {self.precond!r}; use {PRECONDITIONERS}")
        if self.steady and self.n_steps != 1:
            raise ConfigError(f"a steady solve (dt = None) takes one step, not {self.n_steps}")
        for name in ("rtol",) if self.steady else ("dt", "rtol"):  # NaN fails too
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not np.isfinite(self.initial_value):
            raise ConfigError(f"initial_value must be finite, got {self.initial_value}")
        # NaN fails every comparison, so this rejects it too
        if not (self.c_min <= self.c_max and self.c_min < np.inf and self.c_max > -np.inf):
            raise ConfigError("c_min and c_max must have a finite value between them, "
                              f"got [{self.c_min}, {self.c_max}]")
        if self.n_steps < 1:
            raise ConfigError("n_steps must be at least 1")
        if self.max_iter is not None and self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")
        if SOLVERS[self.solver].reads_inner_rtol and not 0.0 < self.inner_rtol < 1.0:
            raise ConfigError(f"inner_rtol must lie in (0, 1), got {self.inner_rtol}")
        if SOLVERS[self.solver].bounded and not self.c_min <= self.initial_value <= self.c_max:
            raise ConfigError("initial value must lie within [c_min, c_max] on the bounded path")

    @property
    def steady(self) -> bool:
        return self.dt is None

    def bounded_settings(self) -> dict:
        """A bounded solver's keywords beyond its tolerances: tron's inner rtol and precond."""
        spec = SOLVERS[self.solver]
        settings = {"inner_rtol": self.inner_rtol} if spec.reads_inner_rtol else {}
        if spec.precond is not None:
            settings["precond"] = self.precond or spec.precond
        return settings


@dataclass
class TransientResult:
    fields: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    ledger: OpLedger = field(default_factory=OpLedger)
    solver_wall_time: float = 0.0
    certificates: list = field(default_factory=list)  # per solved level: (value, tolerance)

    @property
    def final(self) -> np.ndarray:
        return self.fields[-1]

    @property
    def worst_certificate(self) -> tuple[float, float]:
        """The (value, tolerance) of the level whose value is the largest
        multiple of its tolerance (always > 0); a NaN value is the worst."""
        return max(self.certificates, key=lambda vt: np.nan_to_num(vt[0] / vt[1], nan=np.inf))


def build_transient_operator(stiffness: CsrMatrix, mass: CsrMatrix, dt: float) -> CsrMatrix:
    """M/dt + K on the union of both sparsity patterns."""
    if dt <= 0.0:
        raise ConfigError("dt must be positive")
    return add_scaled(1.0 / dt, mass, 1.0, stiffness)


def build_transient_rhs(f_next, mass: CsrMatrix, c_n, dt: float) -> np.ndarray:
    """f_next + M c_n / dt (the previous level enters through M)."""
    if dt <= 0.0:
        raise ConfigError("dt must be positive")
    out = spmv(mass, c_n)
    out /= dt
    out += f_next
    return out


def _check_bounds(values, config: TransientConfig) -> None:
    outside = (values < config.c_min - 1e-12) | (values > config.c_max + 1e-12)
    if SOLVERS[config.solver].bounded and outside.any():
        raise ConfigError(
            "prescribed Dirichlet values fall outside [c_min, c_max]; "
            "the bound-constrained path cannot satisfy them"
        )


def _solve_level(operator, rhs, config, warm, precond, ledger, step):
    """One reduced-system solve and its certificate (value, tolerance); raises
    SolverFailure on non-convergence.

    The certificate checks the answer with one product outside the ledger:
    Galerkin's ||rhs - A x|| / ||rhs|| against rtol (CG stops on a
    recursively updated residual), a bounded solver's largest
    :func:`~nndiff.qp.kkt_check` violation against the stopping test's
    absolute terms, rtol ||rhs|| and the solver's floor.
    """
    spec = SOLVERS[config.solver]
    maxit = config.max_iter or spec.iteration_cap(operator.n)
    rhs_norm = float(np.linalg.norm(rhs))
    if not spec.bounded:
        x, report = spec(operator, rhs, precond=precond, rtol=config.rtol,
                         maxit=maxit, x0=warm, ledger=ledger)
    else:
        problem = QpProblem(operator, -rhs, lower=config.c_min, upper=config.c_max)
        # warm starts shrink pg(x0); anchor the target to the cold-start gradient
        # so the stopping test matches the linear path's ||r|| <= rtol ||b||
        atol = config.rtol * rhs_norm
        x, report = spec(problem, rtol=config.rtol, max_outer=maxit, x0=warm, atol=atol,
                         ledger=ledger, **config.bounded_settings())
    if not report.converged:
        raise SolverFailure(f"{config.solver} failed at step {step} (status {report.status}, "
                            f"{report.iterations} iterations)", step, report)
    if spec.bounded:
        certificate = kkt_check(problem, x, atol).max_violation, atol + ABS_FLOOR
    else:
        residual = float(np.linalg.norm(rhs - operator.matvec_raw(x)))
        certificate = residual / (rhs_norm or 1.0), config.rtol
    return x, report, certificate


@dataclass
class PreparedProblem:
    """One assembled and reduced problem; solves only read it.  ``dt`` is None
    when steady.  ``reduced`` is the Dirichlet elimination of K (steady) or
    of M/dt + K (transient, which keeps the capacity ``mass`` and the
    assembled ``load``).  When a transient level's data depends on time, the
    loads of later levels read ``geometry`` and their Dirichlet lifts
    ``operator`` (M/dt + K); otherwise both are None, as no level reads them."""

    mesh: Mesh
    bc: BoundarySpec
    source: object
    dt: float | None
    load: np.ndarray
    mass: CsrMatrix | None
    operator: CsrMatrix | None
    reduced: ReducedSystem
    geometry: CellGeometry | None

    def level_rhs(self, step: int, c_prev: np.ndarray):
        """(reduced rhs, Dirichlet indices, Dirichlet values) of level ``step``
        after the field ``c_prev``: f + M c_prev / dt at t = step dt, with the
        data assembled at t = 0 when none depends on time; steady, the
        reduced rhs of f."""
        r = self.reduced
        if self.dt is None:
            return r.rhs, r.dirichlet_idx, r.dirichlet_values
        load, idx, vals, lift = self.load, r.dirichlet_idx, r.dirichlet_values, r.lift
        if self.geometry is not None:
            t = step * self.dt
            load = assemble_load(self.mesh, self.source, self.bc, t, self.geometry)
            idx, vals = dirichlet_values(self.mesh, self.bc, t)
            lift = dirichlet_lift(self.operator, r.free, idx, vals)
        return build_transient_rhs(load, self.mass, c_prev, self.dt)[r.free] - lift, idx, vals


def prepare(mesh: Mesh, bc: BoundarySpec, diffusivity: DiffusivityField, source,
            dt: float | None = None) -> PreparedProblem:
    """Assemble and reduce once; steady when ``dt`` is None.  ``source`` is a
    constant or ``fn(points, t)``."""
    varies = dt is not None and any(
        map(callable, (source, *bc.dirichlet.values(), *bc.neumann.values())))
    geometry = cell_geometry(mesh) if varies else None  # every level's load reads it
    system = assemble(mesh, geometry, bc, diffusivity, source)
    operator, mass = system.stiffness, None
    if dt is not None:
        dt, mass = float(dt), system.mass
        operator = build_transient_operator(system.stiffness, mass, dt)
    # K, the capacity pattern and, unless a later level's lift reads it, the
    # operator go with the system; a built M stays
    return PreparedProblem(mesh, bc, source, dt, system.load, mass,
                           operator if varies else None, apply_dirichlet(system, operator),
                           geometry)


def solve(prepared: PreparedProblem, config: TransientConfig) -> TransientResult:
    """Drive the time loop (or the single steady solve) on ``prepared``; ``config.dt``
    must match its own.  The initial field is ``config.initial_value`` everywhere
    with the Dirichlet data inserted.  The result ledger covers solver work only (the
    preconditioner's setup too), not assembly or rhs construction.
    """
    p, r, dt = prepared, prepared.reduced, config.dt
    if dt != p.dt:
        want, have = ("steady" if d is None else f"dt = {d:g}" for d in (dt, p.dt))
        raise ConfigError(f"the solve config is {want}, the prepared problem {have}")
    n, free, operator = p.mesh.n_vertices, r.free, r.matrix
    _check_bounds(r.dirichlet_values, config)
    c_full = expand(n, free, config.initial_value, r.dirichlet_idx, r.dirichlet_values)
    result = TransientResult(fields=[] if dt is None else [c_full])  # level 0 if transient

    spec, precond = SOLVERS[config.solver], None  # a bounded solver builds its own
    if not spec.bounded:  # a fixed operator: CG's is built once
        precond = make_preconditioner(operator, config.precond or spec.precond, result.ledger)

    for step in [0] if dt is None else range(1, config.n_steps + 1):
        rhs, idx, vals = p.level_rhs(step, c_full)
        _check_bounds(vals, config)
        x, report, (value, tol) = _solve_level(operator, rhs, config, c_full[free], precond,
                                               result.ledger, step)
        if not value <= tol:
            logger.warning("%s at step %d: certificate %.3e exceeds the tolerance %.3e",
                           config.solver, step, value, tol)
        c_full = expand(n, free, x, idx, vals)
        result.fields.append(c_full)
        result.reports.append(report)
        result.certificates.append((value, tol))
        result.solver_wall_time += report.wall_time
    return result


def run(mesh: Mesh, bc: BoundarySpec, diffusivity: DiffusivityField, source,
        config: TransientConfig) -> TransientResult:
    """:func:`prepare` the problem ``config`` describes, then :func:`solve` it."""
    return solve(prepare(mesh, bc, diffusivity, source, config.dt), config)


def write_step_csv(result: TransientResult, path, c_min: float, c_max: float) -> None:
    """One row per solved level, numbered by level: iterations, extrema,
    violations, traffic and the level's certificate."""
    with open(path, "w") as fh:
        fh.write("step,iterations,min_c,max_c,violations,flops,bytes,certificate\n")
        solved = result.fields[-len(result.reports):]
        rows = zip(result.reports, solved, result.certificates, strict=True)
        # numbered by level: 1..n when transient (fields[0] is level 0), 0 when steady
        first = len(result.fields) - len(result.reports)
        for k, (report, c, (value, _)) in enumerate(rows, start=first):
            dmp = dmp_check(c, c_min, c_max)
            fh.write(
                f"{k},{report.iterations},{dmp['min']:.17g},{dmp['max']:.17g},"
                f"{dmp['n_below'] + dmp['n_above']},{report.flops},{report.bytes},"
                f"{value:.17g}\n"
            )
