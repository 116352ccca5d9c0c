"""Command-line front end: mesh-gen, solve, compare, qp, perf-report.

Exit codes: 0 success/converged, 1 configuration or input error,
2 solver failure.  NND_LOG ∈ {error, info, debug} controls verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    RunConfig,
    build_bc,
    build_diffusivity,
    build_envelope,
    build_mesh,
    build_transient_config,
)
from .diagnostics import dmp_check
from .errors import (
    ConfigError,
    FactorizationError,
    NndiffError,
    SolverBreakdownError,
    SolverFailure,
)
from .mesh_io import VtkGeometry, write_gmsh, write_vtk
from .perf import PerfEnvelope, arithmetic_intensity, efficiency
from .qp import QpProblem, kkt_check
from .sparse import CsrMatrix, OpLedger, read_matrix_market
from .transient import SOLVERS, check_positive_finite, prepare, solve, write_step_csv
from .transient import run as run_transient

logger = logging.getLogger("nndiff")

_SOLVER_ERRORS = (SolverFailure, SolverBreakdownError, FactorizationError)
# every other package error is an input error; main catches the solver errors first
_INPUT_ERRORS = (NndiffError, OSError, ValueError)

DEFAULT_COMPARE_SOLVERS = ["galerkin", "tron:1e-1", "tron:1e-2", "tron:1e-3", "blmvm"]


def _setup_logging() -> None:
    level_name = os.environ.get("NND_LOG", "").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    level = levels.get(level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    if level_name and level_name not in levels:
        logger.warning("NND_LOG=%r not in {error, info, debug}; using warning", level_name)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _build_problem(run_cfg, config_path):
    base_dir = Path(config_path).parent
    mesh = build_mesh(run_cfg.mesh, base_dir)
    diffusivity = build_diffusivity(run_cfg.physics, mesh, base_dir)
    bc = build_bc(run_cfg.bc)
    source = run_cfg.physics.get("source", 0.0)
    return mesh, diffusivity, bc, source


def _check_inner_rtol_flag(inner_rtol, names) -> None:
    """``--inner-rtol`` must reach a solver that reads it; ``names`` are the ones it reaches."""
    if inner_rtol is not None and not any(SOLVERS[name].reads_inner_rtol for name in names):
        raise ConfigError("--inner-rtol reaches no solver with an inner tolerance: "
                          + (", ".join(names) or "no plain entry"))


def _summary(result, tcfg, envelope) -> dict:
    """report.json's payload for one run; compare's table and CSV read it too."""
    worst, tol = result.worst_certificate
    summary = {
        "solver": tcfg.solver,
        "status": "converged",
        "steps": len(result.reports),
        "outer_iterations": sum(report.iterations for report in result.reports),
        "inner_iterations": sum(report.inner_iterations for report in result.reports),
        "dmp": dmp_check(result.final, tcfg.c_min, tcfg.c_max),
        "certificate": {
            "measure": "kkt_violation" if SOLVERS[tcfg.solver].bounded else "relative_residual",
            "worst": worst,
            "tol": tol,
        },
        "flops": result.ledger.flops,
        "bytes": result.ledger.bytes,
        "solver_wall_time_s": result.solver_wall_time,
    }
    if result.ledger.bytes > 0:
        summary["ai"] = arithmetic_intensity(result.ledger)
    if envelope is not None and result.solver_wall_time > 0:
        summary["perf"] = efficiency(result.ledger, result.solver_wall_time, envelope)
    return summary


def cmd_solve(args) -> int:
    run_cfg = RunConfig.from_file(args.config)
    spec = args.solver or run_cfg.solver.get("choice", "")
    if args.inner_rtol is not None and ":" in spec:  # compare sets only its plain entries
        raise ConfigError(f"--inner-rtol and solver spec {spec!r} both set inner_rtol")
    tcfg = build_transient_config(run_cfg, args.solver, args.rtol, args.inner_rtol)
    envelope = build_envelope(run_cfg)
    _check_inner_rtol_flag(args.inner_rtol, [tcfg.solver])
    spec = SOLVERS[tcfg.solver]
    for key, read in (("precond", spec.precond), ("inner_rtol", spec.reads_inner_rtol)):
        if key in run_cfg.solver and not read:  # --solver may override another's config
            logger.warning("[solver] %s is ignored: %s does not use it", key, tcfg.solver)
    mesh, diffusivity, bc, source = _build_problem(run_cfg, args.config)

    result = run_transient(mesh, bc, diffusivity, source, tcfg)
    vtk_path = args.vtk or run_cfg.output.get("vtk")
    if vtk_path:
        geometry = VtkGeometry(mesh)  # formatted at the first write, shared by all
        # fields[k] is level k; a steady result holds one field and no snapshot
        cadence, path = run_cfg.output.get("cadence", 0), Path(vtk_path)
        for k in range(cadence, len(result.fields), cadence) if cadence else ():
            write_vtk(mesh, {"c": result.fields[k]},
                      path.with_name(f"{path.stem}_{k:04d}{path.suffix}"), geometry=geometry)
        write_vtk(mesh, {"c": result.final}, vtk_path, geometry=geometry)
    csv_path = run_cfg.output.get("csv")
    if csv_path:
        write_step_csv(result, csv_path, tcfg.c_min, tcfg.c_max)
    summary = _summary(result, tcfg, envelope)
    report_path = args.report or run_cfg.output.get("report")
    if report_path:
        with open(report_path, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")

    dmp = summary["dmp"]
    print(
        f"{tcfg.solver}: {summary['steps']} solve(s), {summary['outer_iterations']} outer "
        f"iterations, min c = {dmp['min']:.6g}, max c = {dmp['max']:.6g}, "
        f"{dmp['n_below'] + dmp['n_above']}/{dmp['n_total']} nodes outside bounds "
        f"({dmp['percent_violated']:.1f}%)"
    )
    if "ai" in summary:
        print(f"arithmetic intensity: {summary['ai']:.4f} flops/byte")
    if "perf" in summary:
        perf = summary["perf"]
        print(
            f"efficiency: {perf['efficiency_pct']:.1f}% of "
            f"{perf['ideal_flops_per_s']:.3e} flops/s ({perf['bound']}-bound)"
        )
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

# (table label, table format, CSV column, CSV format, field of the flat summary)
_COMPARE_ROWS = [
    ("min c", "{:.6g}", "min_c", "{:.17g}", "min"),
    ("max c", "{:.6g}", "max_c", "{:.17g}", "max"),
    ("% violated", "{:.1f}", "percent_violated", "{:.6g}", "percent_violated"),
    ("outer iters", "{}", "outer", "{}", "outer_iterations"),
    ("inner iters", "{}", "inner", "{}", "inner_iterations"),
    ("AI", "{:.4f}", "ai", "{:.6g}", "ai"),
    ("efficiency %", "{:.1f}", "efficiency_pct", "{:.6g}", "efficiency_pct"),
]


def _cell(flat: dict, key: str, fmt: str, missing: str) -> str:
    return missing if flat.get(key) is None else fmt.format(flat[key])


def cmd_compare(args) -> int:
    run_cfg = RunConfig.from_file(args.config)
    solvers = (run_cfg.compare or {}).get("solvers", DEFAULT_COMPARE_SOLVERS)
    if isinstance(solvers, str):  # the schema lets one solver be a bare string
        solvers = [solvers]
    if not solvers:
        raise ConfigError("[compare] solver list is empty")
    tcfgs = [build_transient_config(run_cfg, s, args.rtol, args.inner_rtol) for s in solvers]
    # an entry such as tron:1e-3 keeps its own inner tolerance
    _check_inner_rtol_flag(args.inner_rtol,
                           [t.solver for spec, t in zip(solvers, tcfgs) if ":" not in spec])
    mesh, diffusivity, bc, source = _build_problem(run_cfg, args.config)
    envelope = build_envelope(run_cfg)
    # the entries differ only in solver settings, so one prepared problem serves all
    prepared = prepare(mesh, bc, diffusivity, source, tcfgs[0].dt)

    columns = []  # (spec, the summary with dmp and perf merged in, or None if it failed)
    for spec, tcfg in zip(solvers, tcfgs):
        try:
            summary = _summary(solve(prepared, tcfg), tcfg, envelope)
        except (NndiffError, ValueError) as exc:
            logger.error("solver %s failed: %s", spec, exc)
            columns.append((spec, None))
            continue
        columns.append((spec, {**summary.get("perf", {}), **summary["dmp"], **summary}))

    ai = {spec: flat.get("ai", float("nan")) for spec, flat in columns if flat is not None}
    g, b = ai.get("galerkin"), ai.get("blmvm")  # the paper: Galerkin's AI >= blmvm's
    if g is not None and b is not None:
        if g >= b:
            logger.info("AI ordering holds: galerkin %.4f >= blmvm %.4f", g, b)
        else:
            logger.warning("AI ordering violated: galerkin %.4f < blmvm %.4f", g, b)

    width = 14
    print("metric".ljust(16) + "".join(spec.rjust(width) for spec, _ in columns))
    for label, fmt, _, _, key in _COMPARE_ROWS:
        cells = ["FAILED" if flat is None else _cell(flat, key, fmt, "-") for _, flat in columns]
        print(label.ljust(16) + "".join(cell.rjust(width) for cell in cells))

    report_path = args.report or run_cfg.output.get("report")
    if report_path:
        with open(report_path, "w") as fh:
            fh.write(",".join(["solver", *(row[2] for row in _COMPARE_ROWS)]) + "\n")
            for spec, flat in columns:
                cells = (["FAILED"] + [""] * (len(_COMPARE_ROWS) - 1) if flat is None else
                         [_cell(flat, key, fmt, "") for *_, fmt, key in _COMPARE_ROWS])
                fh.write(",".join([spec, *cells]) + "\n")
    return 2 if any(flat is None for _, flat in columns) else 0


# ---------------------------------------------------------------------------
# qp
# ---------------------------------------------------------------------------

def _load_vector(path, n: int, what: str) -> np.ndarray:
    """The n values of a text file; any other count, none included, is a ConfigError."""
    with warnings.catch_warnings(action="ignore", category=UserWarning):  # on an empty file
        values = np.loadtxt(path, dtype=np.float64).reshape(-1)
    if len(values) != n:
        raise ConfigError(f"{what} has {len(values)} entries for n={n}")
    return values


def _load_bound(text, n):
    try:
        return None if text is None else float(text)
    except ValueError:
        return _load_vector(text, n, "bound file")


def cmd_qp(args) -> int:
    _check_inner_rtol_flag(args.inner_rtol, [args.solver])
    check_positive_finite("rtol", args.rtol)
    if args.seed is not None and args.random_dim is None:
        raise ConfigError("--seed applies only to --random-dim instances")
    if args.random_dim is not None:
        if args.random_dim < 1:
            raise ConfigError(f"--random-dim must be at least 1, got {args.random_dim}")
        seed = 0 if args.seed is None else args.seed
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((args.random_dim, args.random_dim))
        hessian = CsrMatrix.from_dense(a.T @ a + args.random_dim * np.eye(args.random_dim))
        q = rng.standard_normal(args.random_dim) * 2.0
        logger.info("random SPD instance: dim=%d seed=%s", args.random_dim, seed)
    else:
        if not args.matrix or not args.q:
            raise ConfigError("qp needs --matrix and --q (or --random-dim)")
        hessian = read_matrix_market(args.matrix)
        q = _load_vector(args.q, hessian.n, "q")
    problem = QpProblem(
        hessian, q,
        lower=_load_bound(args.lower, hessian.n),
        upper=_load_bound(args.upper, hessian.n),
    )
    spec = SOLVERS[args.solver]  # its iteration cap is the one solve and compare use
    settings = {} if args.inner_rtol is None else {"inner_rtol": args.inner_rtol}
    c, report = spec(problem, rtol=args.rtol, max_outer=spec.iteration_cap(problem.n), **settings)

    g0 = problem.hessian.matvec_raw(
        np.clip(np.zeros(problem.n), problem.lower, problem.upper)
    ) + problem.linear
    tol_abs = args.rtol * float(np.linalg.norm(g0)) + 1e-12
    cert = kkt_check(problem, c, tol_abs)

    print(f"status: {report.status} after {report.iterations} outer iterations")
    print(f"objective: {report.objective:.12g}")
    print(f"projected gradient norm: {report.residual_norm:.6e}")
    print(
        f"kkt certificate: {'PASS' if cert.ok else 'FAIL'} "
        f"(violation {cert.max_violation:.3e}, tol {cert.tol:.3e})"
    )
    head = ", ".join(f"{v:.6g}" for v in c[:8])
    print(f"solution[:8]: [{head}{', ...' if problem.n > 8 else ''}]")
    if args.out:
        np.savetxt(args.out, c)
    return 0 if (cert.ok and report.converged) else 2


# ---------------------------------------------------------------------------
# mesh-gen / perf-report
# ---------------------------------------------------------------------------

def cmd_mesh_gen(args) -> int:
    mesh = build_mesh({"generator": args.generator.replace("-", "_"), "kind": args.kind,
                       "nx": args.nx, "ny": args.ny, "nz": args.nz, "n": args.n})
    out = Path(args.out)
    if out.suffix == ".msh":
        write_gmsh(mesh, out)
    elif out.suffix == ".vtk":
        write_vtk(mesh, {}, out)
    else:
        raise ConfigError(f"unsupported mesh output format {out.suffix!r}")
    print(
        f"{mesh.kind} mesh: {mesh.n_cells} cells, {mesh.n_vertices} vertices, "
        f"{len(mesh.boundary_facets)} boundary facets -> {out}"
    )
    return 0


def _is_number(value) -> bool:
    """A JSON number that float() takes: not a bool, nor an integer beyond float range."""
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


def cmd_perf_report(args) -> int:
    with open(args.kernels) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("perf", data)
    if not isinstance(data, dict):
        raise ConfigError("report file holds no JSON object with flops and bytes")
    for key in ("flops", "bytes") + (("wall_time_s",) if args.wall_time is None else ()):
        if not _is_number(data.get(key)):
            raise ConfigError(f"report file has no number {key!r}"
                              + (" and no --wall-time was given" if key == "wall_time_s" else ""))
    flops, nbytes = data["flops"], data["bytes"]
    if not (0 <= flops < math.inf and 0 < nbytes < math.inf):
        raise ConfigError("report file needs finite flops >= 0 and bytes > 0, "
                          f"got {flops} and {nbytes}")
    ledger = OpLedger()
    ledger.record("total", flops, nbytes)  # nndiff writes its kernels' sums here
    wall = data["wall_time_s"] if args.wall_time is None else args.wall_time
    rep = efficiency(ledger, wall, PerfEnvelope(tpp=args.tpp, streams_bw=args.bw))
    print(f"flops: {rep['flops']}  bytes: {rep['bytes']}  AI: {rep['ai']:.4f}")
    print(
        f"measured {rep['measured_flops_per_s']:.4e} flops/s vs ideal "
        f"{rep['ideal_flops_per_s']:.4e} ({rep['bound']}-bound): {rep['efficiency_pct']:.2f}%"
        + ("  [exceeds perfect-cache bound]" if rep["over_unity"] else "")
    )
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so they exit 1 like other input errors."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nndiff",
        description="Maximum-principle-preserving anisotropic diffusion solvers",
    )
    parser.add_argument("--version", action="version", version=f"nndiff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh-gen", help="generate a structured mesh file")
    p_mesh.add_argument("--generator", choices=["box", "cube-with-hole"], default="box")
    p_mesh.add_argument("--nx", type=int, default=1)
    p_mesh.add_argument("--ny", type=int, default=1)
    p_mesh.add_argument("--nz", type=int, default=1)
    p_mesh.add_argument("--n", type=int, default=9, help="cube-with-hole resolution")
    p_mesh.add_argument("--kind", choices=["tet4", "hex8"], default="tet4")
    p_mesh.add_argument("--out", required=True, help="output path (.msh or .vtk)")
    p_mesh.set_defaults(fn=cmd_mesh_gen)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment config file")
    common.add_argument("--rtol", type=float, help="override solver rtol")
    common.add_argument("--inner-rtol", type=float, help="override [solver] inner_rtol")
    common.add_argument("--report", help="override report output path")

    p_solve = sub.add_parser("solve", parents=[common], help="run one configured solve")
    p_solve.add_argument("--solver", help="override [solver] choice")
    p_solve.add_argument("--vtk", help="override VTK output path")
    p_solve.set_defaults(fn=cmd_solve)

    p_cmp = sub.add_parser("compare", parents=[common],
                           help="run several solvers on one problem")
    p_cmp.set_defaults(fn=cmd_compare)

    p_qp = sub.add_parser("qp", help="standalone bound-constrained QP solve")
    p_qp.add_argument("--matrix", help="MatrixMarket SPD operator")
    p_qp.add_argument("--q", help="linear term, one value per line")
    p_qp.add_argument("--lower", help="scalar or file")
    p_qp.add_argument("--upper", help="scalar or file")
    bounded = [name for name, spec in SOLVERS.items() if spec.bounded]
    p_qp.add_argument("--solver", choices=bounded, default=bounded[0])
    p_qp.add_argument("--rtol", type=float, default=1e-6)
    p_qp.add_argument("--inner-rtol", type=float, help="inner CG rtol (default 1e-2)")
    p_qp.add_argument("--random-dim", type=int, help="generate a seeded SPD instance")
    p_qp.add_argument("--seed", type=int, help="--random-dim seed (default 0)")
    p_qp.add_argument("--out", help="write the solution vector")
    p_qp.set_defaults(fn=cmd_qp)

    p_perf = sub.add_parser("perf-report", help="roofline summary from a report file")
    p_perf.add_argument("--kernels", required=True, help="JSON report with flops/bytes")
    p_perf.add_argument("--tpp", type=float, required=True, help="peak flops/s")
    p_perf.add_argument("--bw", type=float, required=True, help="stream bandwidth bytes/s")
    p_perf.add_argument("--wall-time", type=float, help="override wall time seconds")
    p_perf.set_defaults(fn=cmd_perf_report)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except _SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
