"""Command-line front end: mesh-gen, solve, compare, qp, perf-report.

Exit codes: 0 success/converged, 1 configuration or input error,
2 solver failure.  NND_LOG ∈ {error, info, debug} controls verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
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
    AssemblyError,
    ConfigError,
    FactorizationError,
    MeshError,
    NndiffError,
    ParseError,
    SingularTensorError,
    SolverBreakdownError,
    SolverFailure,
)
from .mesh import generate_box, generate_cube_with_hole
from .mesh_io import write_gmsh, write_vtk
from .perf import arithmetic_intensity, efficiency, report_as_dict
from .qp import QpProblem, kkt_check, solve_blmvm, solve_tron
from .sparse import CsrMatrix, read_matrix_market
from .transient import run as run_transient
from .transient import write_step_csv

logger = logging.getLogger("nndiff")

_CONFIG_ERRORS = (
    ConfigError, ParseError, MeshError, AssemblyError, SingularTensorError,
    FileNotFoundError, ValueError,
)
_SOLVER_ERRORS = (SolverFailure, SolverBreakdownError, FactorizationError)

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

def _build_problem(args):
    run_cfg = RunConfig.from_file(args.config)
    base_dir = Path(args.config).parent
    mesh = build_mesh(run_cfg.mesh, base_dir)
    diffusivity = build_diffusivity(run_cfg.physics, mesh, base_dir)
    bc = build_bc(run_cfg.bc)
    source = run_cfg.physics.get("source", 0.0)
    return run_cfg, mesh, diffusivity, bc, source


def _snapshot_writer(mesh, path_pattern, cadence):
    def on_step(step, t, c_full, report):
        if cadence > 0 and step % cadence == 0:
            path = path_pattern.with_name(
                f"{path_pattern.stem}_{step:04d}{path_pattern.suffix}"
            )
            write_vtk(mesh, {"c": c_full}, path)

    return on_step


def _summarize(result, tcfg, envelope):
    """(dmp report, outer and inner iteration sums, AI or None, efficiency or None)."""
    dmp = dmp_check(result.final, tcfg.c_min, tcfg.c_max)
    outer = sum(report.iterations for report in result.reports)
    inner = sum(report.inner_iterations for report in result.reports)
    ai = arithmetic_intensity(result.ledger) if result.ledger.bytes > 0 else None
    perf = None
    if envelope is not None and result.solver_wall_time > 0:
        perf = efficiency(result.ledger, result.solver_wall_time, envelope)
    return dmp, outer, inner, ai, perf


def cmd_solve(args) -> int:
    run_cfg, mesh, diffusivity, bc, source = _build_problem(args)
    tcfg = build_transient_config(run_cfg, args.solver, args.rtol, args.inner_rtol)

    vtk_path = args.vtk or run_cfg.output.get("vtk")
    cadence = int(run_cfg.output.get("cadence", 0))
    on_step = None
    if vtk_path and cadence > 0 and not tcfg.steady:
        on_step = _snapshot_writer(mesh, Path(vtk_path), cadence)

    result = run_transient(mesh, bc, diffusivity, source, tcfg, on_step=on_step)
    if vtk_path:
        write_vtk(mesh, {"c": result.final}, vtk_path)
    csv_path = run_cfg.output.get("csv")
    if csv_path:
        write_step_csv(result, csv_path, tcfg.c_min, tcfg.c_max)
    dmp, outer, inner, ai, perf = _summarize(result, tcfg, build_envelope(run_cfg))

    payload = {
        "solver": tcfg.solver,
        "status": "converged",
        "steps": len(result.reports),
        "outer_iterations": outer,
        "inner_iterations": inner,
        "dmp": {
            "min": dmp.min_value,
            "max": dmp.max_value,
            "n_below": dmp.n_below,
            "n_above": dmp.n_above,
            "n_total": dmp.n_total,
            "percent_violated": dmp.percent_violated,
        },
        "flops": result.ledger.flops,
        "bytes": result.ledger.bytes,
        "solver_wall_time_s": result.solver_wall_time,
    }
    if ai is not None:
        payload["ai"] = ai
    if perf is not None:
        payload["perf"] = report_as_dict(perf)
    report_path = args.report or run_cfg.output.get("report")
    if report_path:
        with open(report_path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    print(
        f"{tcfg.solver}: {len(result.reports)} solve(s), {outer} outer iterations, "
        f"min c = {dmp.min_value:.6g}, max c = {dmp.max_value:.6g}, "
        f"{dmp.n_violated}/{dmp.n_total} nodes outside bounds "
        f"({dmp.percent_violated:.1f}%)"
    )
    if "ai" in payload:
        print(f"arithmetic intensity: {payload['ai']:.4f} flops/byte")
    if "perf" in payload:
        print(
            f"efficiency: {payload['perf']['efficiency_pct']:.1f}% of "
            f"{payload['perf']['ideal_flops_per_s']:.3e} flops/s "
            f"({payload['perf']['bound']}-bound)"
        )
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args) -> int:
    run_cfg, mesh, diffusivity, bc, source = _build_problem(args)
    solvers = (run_cfg.compare or {}).get("solvers", DEFAULT_COMPARE_SOLVERS)
    if not solvers:
        raise ConfigError("[compare] solver list is empty")
    envelope = build_envelope(run_cfg)

    columns = []
    ai_by_name = {}
    any_failed = False
    for spec in solvers:
        tcfg = build_transient_config(run_cfg, str(spec), args.rtol, args.inner_rtol)
        try:
            result = run_transient(mesh, bc, diffusivity, source, tcfg)
        except (NndiffError, ValueError) as exc:
            logger.error("solver %s failed: %s", spec, exc)
            columns.append({"name": str(spec), "failed": True})
            any_failed = True
            continue
        dmp, outer, inner, ai, eff = _summarize(result, tcfg, envelope)
        ai = float("nan") if ai is None else ai
        ai_by_name[str(spec)] = ai
        columns.append(
            {
                "name": str(spec),
                "failed": False,
                "min": dmp.min_value,
                "max": dmp.max_value,
                "violated_pct": dmp.percent_violated,
                "outer": outer,
                "inner": inner,
                "ai": ai,
                "efficiency_pct": eff.efficiency_pct if eff else None,
            }
        )

    galerkin_ai = ai_by_name.get("galerkin")
    blmvm_ai = ai_by_name.get("blmvm")
    if galerkin_ai is not None and blmvm_ai is not None:
        if galerkin_ai >= blmvm_ai:
            logger.info(
                "AI ordering holds: galerkin %.4f >= blmvm %.4f", galerkin_ai, blmvm_ai
            )
        else:
            logger.warning(
                "AI ordering violated: galerkin %.4f < blmvm %.4f", galerkin_ai, blmvm_ai
            )

    rows = [
        ("min c", "min", "{:.6g}"),
        ("max c", "max", "{:.6g}"),
        ("% violated", "violated_pct", "{:.1f}"),
        ("outer iters", "outer", "{}"),
        ("inner iters", "inner", "{}"),
        ("AI", "ai", "{:.4f}"),
        ("efficiency %", "efficiency_pct", "{:.1f}"),
    ]
    width = 14
    header = "metric".ljust(16) + "".join(c["name"].rjust(width) for c in columns)
    print(header)
    for label, key, fmt in rows:
        cells = []
        for c in columns:
            if c["failed"]:
                cells.append("FAILED".rjust(width))
            elif c.get(key) is None:
                cells.append("-".rjust(width))
            else:
                cells.append(fmt.format(c[key]).rjust(width))
        print(label.ljust(16) + "".join(cells))

    report_path = args.report or run_cfg.output.get("report")
    if report_path:
        with open(report_path, "w") as fh:
            fh.write("solver,min_c,max_c,percent_violated,outer,inner,ai,efficiency_pct\n")
            for c in columns:
                if c["failed"]:
                    fh.write(f"{c['name']},FAILED,,,,,,\n")
                else:
                    eff_s = "" if c["efficiency_pct"] is None else f"{c['efficiency_pct']:.6g}"
                    fh.write(
                        f"{c['name']},{c['min']:.17g},{c['max']:.17g},"
                        f"{c['violated_pct']:.6g},{c['outer']},{c['inner']},"
                        f"{c['ai']:.6g},{eff_s}\n"
                    )
    return 2 if any_failed else 0


# ---------------------------------------------------------------------------
# qp
# ---------------------------------------------------------------------------

def _load_bound(text, n):
    if text is None:
        return None
    try:
        return float(text)
    except ValueError:
        values = np.loadtxt(text, dtype=np.float64).reshape(-1)
        if len(values) != n:
            raise ConfigError(f"bound file has {len(values)} entries for n={n}")
        return values


def cmd_qp(args) -> int:
    if args.random_dim:
        rng = np.random.default_rng(args.seed)
        a = rng.standard_normal((args.random_dim, args.random_dim))
        hessian = CsrMatrix.from_dense(a.T @ a + args.random_dim * np.eye(args.random_dim))
        q = rng.standard_normal(args.random_dim) * 2.0
        logger.info("random SPD instance: dim=%d seed=%s", args.random_dim, args.seed)
    else:
        if not args.matrix or not args.q:
            raise ConfigError("qp needs --matrix and --q (or --random-dim)")
        hessian = read_matrix_market(args.matrix)
        q = np.loadtxt(args.q, dtype=np.float64).reshape(-1)
        if len(q) != hessian.n:
            raise ConfigError(f"q has {len(q)} entries for n={hessian.n}")
    problem = QpProblem(
        hessian, q,
        lower=_load_bound(args.lower, hessian.n),
        upper=_load_bound(args.upper, hessian.n),
    )
    if args.solver == "blmvm":
        c, report = solve_blmvm(problem, rtol=args.rtol)
    else:
        c, report = solve_tron(problem, rtol=args.rtol, inner_rtol=args.inner_rtol)

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
    if args.generator == "box":
        mesh = generate_box(args.nx, args.ny, args.nz, args.kind)
    else:
        mesh = generate_cube_with_hole(args.n, args.kind)
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


def cmd_perf_report(args) -> int:
    with open(args.kernels) as fh:
        data = json.load(fh)
    if "perf" in data:
        data = data["perf"]
    for key in ("flops", "bytes"):
        if key not in data:
            raise ConfigError(f"report file lacks {key!r}")
    from .perf import PerfEnvelope
    from .sparse import OpLedger

    ledger = OpLedger()
    if data.get("kernels"):
        for k in data["kernels"]:
            ledger.record(k["name"], k["flops"], k["bytes"])
    else:
        ledger.record("total", data["flops"], data["bytes"])
    wall = args.wall_time if args.wall_time else data.get("wall_time_s", 0.0)
    if wall <= 0:
        raise ConfigError("need --wall-time or a wall_time_s field")
    envelope = PerfEnvelope(tpp=args.tpp, streams_bw=args.bw)
    rep = efficiency(ledger, wall, envelope)
    print(f"flops: {rep.flops}  bytes: {rep.bytes}  AI: {rep.ai:.4f}")
    print(
        f"measured {rep.measured_rate:.4e} flops/s vs ideal {rep.ideal_rate:.4e} "
        f"({rep.bound}-bound): {rep.efficiency_pct:.2f}%"
        + ("  [exceeds perfect-cache bound]" if rep.over_unity else "")
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
    common.add_argument("--inner-rtol", type=float, help="override inner CG rtol")
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
    p_qp.add_argument("--solver", choices=["tron", "blmvm"], default="tron")
    p_qp.add_argument("--rtol", type=float, default=1e-6)
    p_qp.add_argument("--inner-rtol", type=float, default=1e-2)
    p_qp.add_argument("--random-dim", type=int, help="generate a seeded SPD instance")
    p_qp.add_argument("--seed", type=int, default=0)
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
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
