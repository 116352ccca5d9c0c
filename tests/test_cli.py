import dataclasses
import itertools
import json
import logging
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nndiff.cli
import nndiff.mesh_io
import nndiff.transient
from nndiff.cli import main
from nndiff.errors import SolverFailure
from nndiff.mesh import boundary_faces, generate_box, generate_cube_with_hole
from nndiff.mesh_io import read_gmsh, write_gmsh, write_vtk
from nndiff.qp import QpProblem, brute_force_qp
from nndiff.sparse import CsrMatrix, write_matrix_market
from nndiff.transient import SOLVERS

HOLE_CONFIG = """
[mesh]
generator = "cube_with_hole"
n = 9
kind = "tet4"

[physics]
mode = "dispersion"
alpha_l = 1.0
alpha_t = 0.001
d_m = 0.0
velocity = [1.0, 1.0, 1.0]
source = 0.0

[bc.dirichlet]
1 = 0.0
2 = 1.0

[solver]
choice = "galerkin"
rtol = 1e-6
precond = "ilu0"

[bounds]
c_min = 0.0
c_max = 1.0

[perf]
tpp = 9.2e9
streams_bw = 5.65e9
"""

NO_INNER_RTOL = [name for name, spec in SOLVERS.items() if not spec.reads_inner_rtol]

QP_STDOUT_DIM10 = """\
status: converged after 3 outer iterations
objective: -1.35410483712
projected gradient norm: 5.822670e-07
kkt certificate: PASS (violation 2.815e-07, tol 6.610e-06)
solution[:8]: [-0.0274338, -0.100258, 0.0156291, 0.106245, -0.0725902, 0.215203, \
0.0682428, -0.129356, ...]
"""
QP_STDOUT_DIM20_INNER = """\
status: converged after 5 outer iterations
objective: -0.20882321133
projected gradient norm: 9.693608e-07
kkt certificate: PASS (violation 7.385e-07, tol 8.422e-06)
solution[:8]: [0, 0.0151299, 0.0992882, 0, 0, 0, 0, 0.0116649, ...]
"""
QP_STDOUT_DIM25_BLMVM = """\
status: converged after 14 outer iterations
objective: -1.26130401068
projected gradient norm: 7.974692e-06
kkt certificate: PASS (violation 2.946e-06, tol 9.010e-06)
solution[:8]: [-0.0174284, -0.0348297, -0.1, -0.0220508, -0.0340799, 0.00148056, \
-0.0764913, 0.0296082, ...]
"""


def with_setting(section: str, key: str, value: str) -> str:
    """HOLE_CONFIG with the TOML line ``key = value`` in ``[section]``."""
    line = f"{key} = {value}"
    if re.search(f"^{key} = ", HOLE_CONFIG, re.M):
        return re.sub(f"^{key} = .*$", line, HOLE_CONFIG, flags=re.M)
    if f"[{section}]\n" in HOLE_CONFIG:
        return HOLE_CONFIG.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    return f"{HOLE_CONFIG}\n[{section}]\n{line}\n"


def box_with_interior_facet():
    """A 2x2x2 tet box plus one marked facet that two cells share."""
    mesh = generate_box(2, 2, 2, "tet4")
    boundary = {frozenset(f) for f in boundary_faces(mesh.cells, mesh.kind)[0]}
    interior = next(f for f in itertools.combinations(mesh.cells[0], 3)
                    if frozenset(f) not in boundary)
    return dataclasses.replace(
        mesh,
        boundary_facets=np.vstack([mesh.boundary_facets, interior]),
        boundary_markers=np.append(mesh.boundary_markers, 2),
    )


@pytest.fixture
def hole_config(tmp_path):
    path = tmp_path / "hole.toml"
    path.write_text(HOLE_CONFIG)
    return path


class TestMeshGen:
    def test_box_msh(self, tmp_path):
        out = tmp_path / "box.msh"
        code = main(["mesh-gen", "--generator", "box", "--nx", "2", "--ny", "2",
                     "--nz", "2", "--kind", "tet4", "--out", str(out)])
        assert code == 0
        mesh = read_gmsh(out)
        assert mesh.n_vertices == 27
        assert mesh.n_cells == 48

    def test_hole_vtk(self, tmp_path):
        out = tmp_path / "hole.vtk"
        code = main(["mesh-gen", "--generator", "cube-with-hole", "--n", "9",
                     "--kind", "hex8", "--out", str(out)])
        assert code == 0
        assert "DATASET UNSTRUCTURED_GRID" in out.read_text()

    @pytest.mark.parametrize("argv, mesh", [
        (["--generator", "box", "--nx", "3", "--ny", "1", "--nz", "2", "--kind", "hex8"],
         lambda: generate_box(3, 1, 2, "hex8")),
        (["--generator", "cube-with-hole", "--n", "9", "--nx", "5"],
         lambda: generate_cube_with_hole(9, "tet4")),
    ], ids=["box", "cube-with-hole"])
    def test_writes_the_generators_mesh(self, argv, mesh, tmp_path):
        assert main(["mesh-gen", *argv, "--out", str(tmp_path / "cli.msh")]) == 0
        write_gmsh(mesh(), tmp_path / "direct.msh")
        assert (tmp_path / "cli.msh").read_bytes() == (tmp_path / "direct.msh").read_bytes()

    def test_bad_extension(self, tmp_path):
        code = main(["mesh-gen", "--out", str(tmp_path / "m.stl")])
        assert code == 1

    def test_bad_divisions(self, tmp_path):
        code = main(["mesh-gen", "--generator", "box", "--nx", "0",
                     "--out", str(tmp_path / "m.msh")])
        assert code == 1


class TestSolve:
    def test_galerkin_reports_violations(self, hole_config, tmp_path, capsys):
        vtk = tmp_path / "out.vtk"
        report = tmp_path / "report.json"
        code = main(["solve", "--config", str(hole_config),
                     "--vtk", str(vtk), "--report", str(report)])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["solver"] == "galerkin"
        assert data["dmp"]["n_below"] > 0
        assert data["dmp"]["min"] < -1e-3
        assert "perf" in data
        assert vtk.exists()
        out = capsys.readouterr().out
        assert "nodes outside bounds" in out

    def test_tron_clean(self, hole_config, tmp_path):
        report = tmp_path / "report.json"
        code = main(["solve", "--config", str(hole_config), "--solver", "tron",
                     "--report", str(report)])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["dmp"]["n_below"] == 0
        assert data["dmp"]["n_above"] == 0
        assert data["dmp"]["min"] >= -1e-12

    def test_deterministic_outputs(self, hole_config, tmp_path):
        paths = []
        for tag in ("a", "b"):
            vtk = tmp_path / f"{tag}.vtk"
            rep = tmp_path / f"{tag}.json"
            assert main(["solve", "--config", str(hole_config),
                         "--vtk", str(vtk), "--report", str(rep)]) == 0
            paths.append((vtk, rep))
        (vtk_a, rep_a), (vtk_b, rep_b) = paths
        assert vtk_a.read_bytes() == vtk_b.read_bytes()
        da = json.loads(rep_a.read_text())
        db = json.loads(rep_b.read_text())
        for key in ("solver", "steps", "outer_iterations", "inner_iterations",
                    "dmp", "flops", "bytes", "ai"):
            assert da[key] == db[key], key

    @pytest.mark.parametrize("solver", NO_INNER_RTOL)
    def test_inner_rtol_without_tron_exit_1(self, hole_config, solver, capsys):
        argv = ["solve", "--config", str(hole_config), "--solver", solver, "--inner-rtol", "1e-3"]
        assert main(argv) == 1
        assert "--inner-rtol" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", NO_INNER_RTOL)
    def test_spec_inner_rtol_without_one_exit_1(self, hole_config, solver, capsys):
        """``galerkin:1e-3`` used to run and drop the 1e-3."""
        assert main(["solve", "--config", str(hole_config), "--solver", f"{solver}:1e-3"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {solver} reads no inner_rtol, so ':1e-3' sets nothing\n"

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_inner_rtol_flag_and_spec_tolerance_exit_1(self, where, tmp_path, monkeypatch,
                                                        capsys):
        """``--solver tron:1e-1 --inner-rtol 1e-3`` used to run at 0.1 and exit 0."""
        cfg = tmp_path / "spec.toml"
        cfg.write_text(HOLE_CONFIG.replace('choice = "galerkin"', 'choice = "tron:1e-1"'))
        solver = ["--solver", "tron:1e-1"] if where == "flag" else []

        def build_mesh(*args):
            raise AssertionError("mesh built before the flags were checked")

        monkeypatch.setattr(nndiff.cli, "build_mesh", build_mesh)
        assert main(["solve", "--config", str(cfg), *solver, "--inner-rtol", "1e-3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --inner-rtol and solver spec 'tron:1e-1' both set inner_rtol\n"

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_ignored_solver_keys_warn_and_run(self, solver, tmp_path, caplog):
        cfg = tmp_path / "keys.toml"
        cfg.write_text(HOLE_CONFIG.replace('precond = "ilu0"', 'precond = "ilu0"\ninner_rtol = 1e-3'))
        with caplog.at_level(logging.WARNING, logger="nndiff"):
            assert main(["solve", "--config", str(cfg), "--solver", solver]) == 0
        warned = [r.getMessage() for r in caplog.records
                  if r.name == "nndiff" and r.levelno == logging.WARNING]
        spec = SOLVERS[solver]
        ignored = [key for key, read in (("precond", spec.precond is not None),
                                         ("inner_rtol", spec.reads_inner_rtol)) if not read]
        assert warned == [f"[solver] {key} is ignored: {solver} does not use it"
                          for key in ignored]

    def test_inner_rtol_out_of_range_exit_1_before_the_mesh(self, tmp_path, monkeypatch, capsys):
        """A tron config with ``inner_rtol = 5`` used to build the mesh first."""
        cfg = tmp_path / "bad.toml"
        cfg.write_text(HOLE_CONFIG.replace('precond = "ilu0"', 'precond = "ilu0"\ninner_rtol = 5'))

        def build_mesh(*args):
            raise AssertionError("mesh built before the config was checked")

        monkeypatch.setattr(nndiff.cli, "build_mesh", build_mesh)
        assert main(["solve", "--config", str(cfg), "--solver", "tron"]) == 1
        assert capsys.readouterr().err == "error: inner_rtol must lie in (0, 1), got 5.0\n"

    def test_inner_rtol_sets_tron_inner_tolerance(self, hole_config, tmp_path):
        reports = []
        for tag, extra in (("flag", ["--solver", "tron", "--inner-rtol", "1e-3"]),
                           ("spec", ["--solver", "tron:1e-3"]),
                           ("default", ["--solver", "tron"])):
            path = tmp_path / f"{tag}.json"
            argv = ["solve", "--config", str(hole_config), "--report", str(path), *extra]
            assert main(argv) == 0
            reports.append(json.loads(path.read_text()))
        flag, spec, default = ((r["outer_iterations"], r["inner_iterations"], r["flops"])
                               for r in reports)
        assert flag == spec != default

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_rtol_flag_sets_the_tolerance(self, solver, hole_config, tmp_path):
        """--rtol replaces [solver] rtol = 1e-6, looser or tighter."""
        def outer(*flags):
            path = tmp_path / "report.json"
            argv = ["solve", "--config", str(hole_config), "--solver", solver,
                    "--report", str(path), *flags]
            assert main(argv) == 0
            return json.loads(path.read_text())["outer_iterations"]

        assert outer("--rtol", "1e-2") < outer() < outer("--rtol", "1e-10")

    @pytest.mark.parametrize("argv", [
        ["solve", "--solver", "galerkin"],
        ["solve", "--solver", "tron"],
        ["solve", "--solver", "blmvm"],
        ["compare"],
    ])
    def test_unknown_precond_exit_1_before_assembly(self, argv, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "bad.toml"
        cfg.write_text(HOLE_CONFIG.replace('precond = "ilu0"', 'precond = "ilu9"'))

        def assemble(*args, **kwargs):
            raise AssertionError("assembled before the config was checked")

        monkeypatch.setattr(nndiff.transient, "assemble", assemble)
        assert main([*argv, "--config", str(cfg)]) == 1
        assert "unknown preconditioner 'ilu9'" in capsys.readouterr().err

    def test_conflicting_marker_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.toml"
        cfg.write_text(HOLE_CONFIG + "\n[bc.neumann]\n2 = 0.5\n")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "marker 2" in capsys.readouterr().err

    def test_unknown_key_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.toml"
        cfg.write_text(HOLE_CONFIG.replace("[solver]\n", "[solver]\nbogus = 1\n"))
        assert main(["solve", "--config", str(cfg)]) in (1,)
        err = capsys.readouterr().err
        assert "bogus" in err or "duplicate" in err

    # each value used to be coerced or truncated, or to crash, instead of rejected
    @pytest.mark.parametrize("old, new, named", [
        ("source = 0.0", 'source = "0.5"', "[physics] source must be a number"),
        ("[bounds]", '[transient]\ndt = "0.5"\n\n[bounds]', "[transient] dt must be a number"),
        ("alpha_t = 0.001", 'alpha_t = "0.001"', "[physics] alpha_t must be a number"),
        ("rtol = 1e-6", 'rtol = "1e-6"', "[solver] rtol must be a number"),
        ("[bounds]", "[transient]\ndt = true\n\n[bounds]", "[transient] dt"),
        ("[bounds]", "[transient]\ndt = 2020-01-01\n\n[bounds]", "[transient] dt"),
        ("[bounds]", "[transient]\ndt = {a = 1}\n\n[bounds]", "[transient] dt"),
        ("[bounds]", "[transient]\nn_steps = 2.5\n\n[bounds]", "[transient] n_steps"),
        ("1 = 0.0", "1 = true", "[bc.dirichlet] 1"),
    ])
    def test_bad_value_type_exit_1(self, old, new, named, tmp_path, capsys):
        cfg = tmp_path / "bad.toml"
        cfg.write_text(HOLE_CONFIG.replace(old, new))
        assert main(["solve", "--config", str(cfg)]) == 1
        assert named in capsys.readouterr().err

    # each used to crash with a TypeError, OverflowError or AttributeError traceback
    # (vtk, report and csv only after the solve), or, n = 9.0, to run as n = 9
    @pytest.mark.parametrize("section, key, value", [
        *(("mesh", key, value) for key in ("n", "nx", "ny", "nz") for value in ("[9]", "inf")),
        ("mesh", "n", "9.0"),
        *(("physics", key, "[1.0]") for key in ("alpha_l", "alpha_t", "d_m")),
        *(("solver", key, "[0.1]") for key in ("rtol", "inner_rtol")),
        *(("transient", key, "[0.5]") for key in ("dt", "initial_value")),
        *(("bounds", key, "[0.0]") for key in ("c_min", "c_max")),
        *(("perf", key, "[1e9]") for key in ("tpp", "streams_bw")),
        *(("output", key, '["out"]') for key in ("vtk", "report", "csv")),
        ("physics", "velocity_file", '["v.txt"]'),
        ("solver", "choice", '["tron"]'),
    ])
    def test_value_of_another_kind_exit_1_before_the_mesh(self, section, key, value, tmp_path,
                                                           monkeypatch, capsys):
        cfg = tmp_path / "bad.toml"
        cfg.write_text(with_setting(section, key, value))

        def build_mesh(*args):
            raise AssertionError("mesh built before the config was checked")

        monkeypatch.setattr(nndiff.cli, "build_mesh", build_mesh)
        assert main(["solve", "--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: [{section}] {key} must be ") and err.count("\n") == 1

    def test_mesh_file_with_interior_facet_exit_1(self, tmp_path, capsys):
        write_gmsh(box_with_interior_facet(), tmp_path / "m.msh")
        cfg = tmp_path / "file.toml"
        cfg.write_text(HOLE_CONFIG.replace(
            'generator = "cube_with_hole"\nn = 9\nkind = "tet4"', 'path = "m.msh"'))
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "not a boundary face" in capsys.readouterr().err

    def test_missing_config_exit_1(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.toml")]) == 1

    def test_solver_failure_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "hard.toml"
        cfg.write_text(HOLE_CONFIG.replace("rtol = 1e-6", "rtol = 1e-6\nmax_iter = 1"))
        assert main(["solve", "--config", str(cfg)]) == 2
        assert "solver failure" in capsys.readouterr().err

    # each count used to run as if unset or as 0, or to fail as a solver failure
    @pytest.mark.parametrize("old, new, named", [
        ("rtol = 1e-6", "rtol = 1e-6\nmax_iter = 0", "max_iter"),
        ("rtol = 1e-6", "rtol = 1e-6\nmax_iter = -1", "max_iter"),
        ('kind = "tet4"', 'kind = "tet4"\nrefine = -1', "[mesh] refine"),
        ("[perf]", "[output]\ncadence = -2\n\n[perf]", "[output] cadence"),
    ])
    def test_negative_or_zero_count_exit_1(self, old, new, named, tmp_path, capsys):
        cfg = tmp_path / "bad.toml"
        cfg.write_text(HOLE_CONFIG.replace(old, new))
        assert main(["solve", "--config", str(cfg), "--vtk", str(tmp_path / "t.vtk")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err
        assert list(tmp_path.glob("*.vtk")) == []

    # each used to run on, fail as a solver failure, or exit 1 with a message
    # that did not name the setting (LAPACK's "Eigenvalues did not converge")
    @pytest.mark.parametrize("old, new, named", [
        ("rtol = 1e-6", "rtol = nan", "rtol must be"),
        ("rtol = 1e-6", "rtol = 0.0", "rtol must be"),
        ("[perf]", "[transient]\ndt = nan\nn_steps = 2\n\n[perf]", "dt must be"),
        ("[perf]", "[transient]\ndt = inf\nn_steps = 2\n\n[perf]", "dt must be"),
        ("[perf]", "[transient]\ndt = 0.5\ninitial_value = nan\n\n[perf]",
         "initial_value must be"),
        ("c_min = 0.0", "c_min = nan", "c_min and c_max"),
        ("c_max = 1.0", "c_max = nan", "c_min and c_max"),
        ("d_m = 0.0", "d_m = nan", "diffusivity tensor has a non-finite entry"),
        ("d_m = 0.0", "d_m = inf", "d_m = inf is not finite"),
        ("alpha_l = 1.0", "alpha_l = inf", "alpha_l = inf is not finite"),
        ("c_min = 0.0", "c_min = inf", "c_min and c_max"),
        ("c_max = 1.0", "c_max = -inf", "c_min and c_max"),
        ("tpp = 9.2e9", "tpp = inf", "envelope rates"),
    ])
    def test_non_finite_setting_exit_1(self, old, new, named, tmp_path, capsys):
        cfg = tmp_path / "bad.toml"
        cfg.write_text(HOLE_CONFIG.replace(old, new))
        assert main(["solve", "--config", str(cfg), "--vtk", str(tmp_path / "t.vtk")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err
        assert list(tmp_path.glob("*.vtk")) == []

    # galerkin used to run and report every node outside the empty bounds
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_c_min_above_c_max_exit_1(self, solver, tmp_path, capsys):
        cfg = tmp_path / "bad.toml"
        cfg.write_text(HOLE_CONFIG.replace("c_min = 0.0", "c_min = 2.0"))
        assert main(["solve", "--config", str(cfg), "--solver", solver]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "c_min and c_max must have a finite value between them" in err

    # each non-finite value used to run and exit 2 ("linear solve failed to
    # converge at step 0"), and a list source to crash with a TypeError
    @pytest.mark.parametrize("old, new, named", [
        ("source = 0.0", "source = nan", "source must be finite"),
        ("source = 0.0", "source = [1.0, 2.0]", "source must be a number"),
        ("2 = 1.0", "2 = inf", "[bc.dirichlet] 2 must be finite"),
        ("2 = 1.0", "2 = nan", "[bc.dirichlet] 2 must be finite"),
        ("2 = 1.0\n", "\n[bc.neumann]\n2 = -inf\n", "[bc.neumann] 2 must be finite"),
    ])
    def test_bad_source_or_boundary_value_exit_1(self, old, new, named, tmp_path, capsys):
        cfg = tmp_path / "bad.toml"
        cfg.write_text(HOLE_CONFIG.replace(old, new))
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err

    def test_infinite_bound_is_legal(self, tmp_path):
        cfg = tmp_path / "open.toml"
        cfg.write_text(HOLE_CONFIG.replace("c_max = 1.0", "c_max = inf"))
        assert main(["solve", "--config", str(cfg), "--solver", "tron"]) == 0

    @pytest.mark.parametrize("section, kept", [("$Nodes", 3), ("$Elements", 3)])
    def test_truncated_mesh_file_is_parse_error(self, section, kept, tmp_path, capsys):
        """The file ends ``kept`` lines into ``section``, short of its declared count."""
        write_gmsh(generate_box(1, 1, 1, "tet4"), tmp_path / "m.msh")
        lines = (tmp_path / "m.msh").read_text().splitlines()
        lines = lines[:lines.index(section) + kept]
        (tmp_path / "m.msh").write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "file.toml"
        cfg.write_text(HOLE_CONFIG.replace(
            'generator = "cube_with_hole"\nn = 9\nkind = "tet4"', 'path = "m.msh"'))
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'm.msh'}:{len(lines)}: file ends inside {section}\n"

    @pytest.mark.parametrize("fail_at", [None, 3])
    def test_failed_run_writes_no_snapshot_and_no_report(self, fail_at, tmp_path, monkeypatch):
        """``max_iter = 1`` fails the first level; a failure forced at the last level
        shows that the levels solved before it are not written either."""
        cfg = tmp_path / "trans.toml"
        max_iter = "" if fail_at else "\nmax_iter = 1"
        cfg.write_text(
            HOLE_CONFIG.replace("rtol = 1e-6", "rtol = 1e-6" + max_iter)
            + "\n[transient]\ndt = 0.5\nn_steps = 3\n"
            + f'\n[output]\nvtk = "{tmp_path / "t.vtk"}"\ncadence = 1\n'
            + f'report = "{tmp_path / "report.json"}"\n'
        )
        solve_level = nndiff.transient._solve_level

        def failing(*args):
            step = args[-1]
            if step == fail_at:
                raise SolverFailure(f"forced at step {step}", step)
            return solve_level(*args)

        monkeypatch.setattr(nndiff.transient, "_solve_level", failing)
        assert main(["solve", "--config", str(cfg)]) == 2
        assert list(tmp_path.glob("*.vtk")) == []
        assert not (tmp_path / "report.json").exists()

    def test_transient_with_snapshots_and_csv(self, tmp_path):
        cfg = tmp_path / "trans.toml"
        cfg.write_text(
            HOLE_CONFIG
            + "\n[transient]\ndt = 0.5\nn_steps = 3\n"
            + f'\n[output]\ncsv = "{tmp_path / "steps.csv"}"\ncadence = 2\n'
        )
        vtk = tmp_path / "t.vtk"
        assert main(["solve", "--config", str(cfg), "--solver", "tron",
                     "--vtk", str(vtk)]) == 0
        assert vtk.exists()
        assert (tmp_path / "t_0002.vtk").exists()
        assert not (tmp_path / "t_0001.vtk").exists()
        lines = (tmp_path / "steps.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_snapshots_match_standalone_writer_geometry_formatted_once(
        self, tmp_path, monkeypatch
    ):
        cfg = tmp_path / "trans.toml"
        cfg.write_text(
            HOLE_CONFIG.replace('choice = "galerkin"', 'choice = "blmvm"')
            + "\n[transient]\ndt = 0.02\nn_steps = 4\n"
            + f'\n[output]\nvtk = "{tmp_path / "t.vtk"}"\ncadence = 2\n'
        )
        runs, formats = [], []
        run, format_rows = nndiff.cli.run_transient, nndiff.mesh_io._format_rows

        def spy_run(mesh, *args, **kwargs):
            runs.append((mesh, run(mesh, *args, **kwargs)))
            return runs[-1][1]

        def spy_format(fmt, array):
            formats.append(fmt)
            return format_rows(fmt, array)

        monkeypatch.setattr(nndiff.cli, "run_transient", spy_run)
        monkeypatch.setattr(nndiff.mesh_io, "_format_rows", spy_format)
        assert main(["solve", "--config", str(cfg)]) == 0
        assert formats.count("%.17g %.17g %.17g\n") == 1  # POINTS, once per run
        assert formats.count("%.17g\n") == 3  # one field per file

        (mesh, result), = runs
        monkeypatch.undo()
        written = {"t_0002.vtk": result.fields[2], "t_0004.vtk": result.fields[4],
                   "t.vtk": result.final}
        assert sorted(p.name for p in tmp_path.glob("*.vtk")) == sorted(written)
        for name, field in written.items():
            write_vtk(mesh, {"c": field}, tmp_path / "ref.vtk")
            assert (tmp_path / name).read_bytes() == (tmp_path / "ref.vtk").read_bytes()


class TestCompare:
    def test_five_solver_table(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.toml"
        cfg.write_text(
            HOLE_CONFIG
            + '\n[compare]\nsolvers = ["galerkin", "tron:1e-1", "tron:1e-2",'
              ' "tron:1e-3", "blmvm"]\n'
        )
        csv_path = tmp_path / "cmp.csv"
        code = main(["compare", "--config", str(cfg), "--report", str(csv_path)])
        assert code == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        for name in ("galerkin", "tron:1e-1", "tron:1e-2", "tron:1e-3", "blmvm"):
            assert name in header
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 6
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        assert float(rows["galerkin"][1]) < 0.0
        for name in ("tron:1e-1", "tron:1e-2", "tron:1e-3", "blmvm"):
            assert float(rows[name][1]) >= -1e-12

    def test_empty_solver_list_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.toml"
        cfg.write_text(HOLE_CONFIG + "\n[compare]\nsolvers = []\n")
        assert main(["compare", "--config", str(cfg)]) == 1
        assert "empty" in capsys.readouterr().err

    @staticmethod
    def csv_rows(path):
        return {ln.split(",")[0]: ln.split(",")[1:] for ln in path.read_text().splitlines()[1:]}

    def test_rows_match_solve_of_each_spec(self, hole_config, tmp_path):
        """Every entry solves the shared prepared problem as a lone solve would."""
        csv_path = tmp_path / "cmp.csv"
        assert main(["compare", "--config", str(hole_config), "--report", str(csv_path)]) == 0
        rows = self.csv_rows(csv_path)
        assert list(rows) == nndiff.cli.DEFAULT_COMPARE_SOLVERS
        for spec, row in rows.items():
            path = tmp_path / "report.json"
            argv = ["solve", "--config", str(hole_config), "--solver", spec, "--report", str(path)]
            assert main(argv) == 0
            r = json.loads(path.read_text())
            expected = [f"{r['dmp']['min']:.17g}", f"{r['dmp']['max']:.17g}",
                        f"{r['dmp']['percent_violated']:.6g}", str(r["outer_iterations"]),
                        str(r["inner_iterations"]), f"{r['ai']:.6g}"]
            assert row[:6] == expected, spec

    def test_assembles_once_for_all_entries(self, hole_config, monkeypatch):
        calls, assemble = [], nndiff.transient.assemble

        def spy(*args, **kwargs):
            calls.append(args[0])
            return assemble(*args, **kwargs)

        monkeypatch.setattr(nndiff.transient, "assemble", spy)
        assert main(["compare", "--config", str(hole_config)]) == 0
        assert len(calls) == 1

    def test_inner_rtol_without_plain_tron_exit_1(self, hole_config, capsys):
        argv = ["compare", "--config", str(hole_config), "--inner-rtol", "1e-3"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --inner-rtol") and err.count("\n") == 1

    # "blmvm:1e-3" used to run and drop the 1e-3; "tron:0" to run the other
    # entries and exit 2 with a FAILED column
    @pytest.mark.parametrize("entry, message", [
        ("blmvm:1e-3", "blmvm reads no inner_rtol, so ':1e-3' sets nothing"),
        ("galerkin:1e-3", "galerkin reads no inner_rtol, so ':1e-3' sets nothing"),
        ("tron:0", "inner_rtol must lie in (0, 1), got 0.0"),
        ("tron:1.5", "inner_rtol must lie in (0, 1), got 1.5"),
    ])
    def test_bad_entry_inner_rtol_exit_1_before_any_entry(self, entry, message, tmp_path,
                                                          monkeypatch, capsys):
        cfg = tmp_path / "cmp.toml"
        cfg.write_text(HOLE_CONFIG + f'\n[compare]\nsolvers = ["galerkin", "{entry}", "blmvm"]\n')

        def assemble(*args, **kwargs):
            raise AssertionError("assembled before every entry was checked")

        monkeypatch.setattr(nndiff.transient, "assemble", assemble)
        assert main(["compare", "--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    def test_inner_rtol_sets_plain_tron_entry(self, tmp_path):
        cfg = tmp_path / "cmp.toml"
        cfg.write_text(HOLE_CONFIG + '\n[compare]\nsolvers = ["tron"]\n')
        rows = []
        for tag, extra in (("flag", ["--inner-rtol", "1e-3"]), ("default", [])):
            path = tmp_path / f"{tag}.csv"
            assert main(["compare", "--config", str(cfg), "--report", str(path), *extra]) == 0
            rows.append(self.csv_rows(path)["tron"])
        flag, default = rows
        assert flag[3:5] != default[3:5]  # outer and inner iterations

    def test_rtol_flag_sets_every_entry(self, hole_config, tmp_path):
        rows = []
        for tag, extra in (("flag", ["--rtol", "1e-2"]), ("default", [])):
            path = tmp_path / f"{tag}.csv"
            argv = ["compare", "--config", str(hole_config), "--report", str(path), *extra]
            assert main(argv) == 0
            rows.append(self.csv_rows(path))
        flag, default = rows
        for spec in nndiff.cli.DEFAULT_COMPARE_SOLVERS:
            assert int(flag[spec][3]) < int(default[spec][3]), spec  # outer iterations

    def test_bare_string_solvers_is_one_entry(self, tmp_path, capsys):
        """``solvers = "tron"`` used to exit 1 with ``unknown solver 't'``."""
        rows = {}
        for tag, value in (("bare", '"tron"'), ("list", '["tron"]')):
            cfg, path = tmp_path / f"{tag}.toml", tmp_path / f"{tag}.csv"
            cfg.write_text(HOLE_CONFIG + f"\n[compare]\nsolvers = {value}\n")
            assert main(["compare", "--config", str(cfg), "--report", str(path)]) == 0
            assert capsys.readouterr().out.splitlines()[0].split() == ["metric", "tron"]
            rows[tag] = self.csv_rows(path)
        assert list(rows["bare"]) == ["tron"]
        assert rows["bare"]["tron"][:5] == rows["list"]["tron"][:5]

    def test_unknown_marker_exit_1_once(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.toml"
        cfg.write_text(HOLE_CONFIG.replace("2 = 1.0", "2 = 1.0\n7 = 0.5"))
        assert main(["compare", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == "error: boundary condition references unknown marker 7\n"

    def test_solver_failures_keep_failed_columns_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "hard.toml"
        cfg.write_text(HOLE_CONFIG.replace("rtol = 1e-6", "rtol = 1e-6\nmax_iter = 1"))
        csv_path = tmp_path / "cmp.csv"
        assert main(["compare", "--config", str(cfg), "--report", str(csv_path)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["metric", *nndiff.cli.DEFAULT_COMPARE_SOLVERS]
        assert all(line.split()[-5:] == ["FAILED"] * 5 for line in lines[1:])
        assert csv_path.read_text().splitlines()[1:] == [
            f"{spec},FAILED,,,,,," for spec in nndiff.cli.DEFAULT_COMPARE_SOLVERS
        ]


class TestQp:
    def test_identity_clamp(self, tmp_path, capsys):
        write_matrix_market(CsrMatrix.identity(3), tmp_path / "h.mtx")
        np.savetxt(tmp_path / "q.txt", [-1.0, -2.0, -3.0])
        code = main(["qp", "--matrix", str(tmp_path / "h.mtx"),
                     "--q", str(tmp_path / "q.txt"),
                     "--lower", "0", "--upper", "1",
                     "--out", str(tmp_path / "c.txt")])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        c = np.loadtxt(tmp_path / "c.txt")
        assert np.allclose(c, [1.0, 1.0, 1.0])

    def test_1d_active_bound(self, tmp_path, capsys):
        write_matrix_market(CsrMatrix.from_dense([[2.0]]), tmp_path / "h.mtx")
        (tmp_path / "q.txt").write_text("4.0\n")
        code = main(["qp", "--matrix", str(tmp_path / "h.mtx"),
                     "--q", str(tmp_path / "q.txt"),
                     "--lower", "0", "--upper", "1",
                     "--out", str(tmp_path / "c.txt")])
        assert code == 0
        assert float((tmp_path / "c.txt").read_text().strip()) == 0.0

    @pytest.mark.parametrize("solver", ["tron", "blmvm"])
    def test_random_instance_matches_brute_force(self, solver, tmp_path):
        seed, dim = 5, 10
        out = tmp_path / "c.txt"
        code = main(["qp", "--random-dim", str(dim), "--seed", str(seed),
                     "--solver", solver, "--lower", "0", "--upper", "1",
                     "--rtol", "1e-9", "--out", str(out)])
        assert code == 0
        # rebuild the same instance the command generated
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim))
        h = CsrMatrix.from_dense(a.T @ a + dim * np.eye(dim))
        q = rng.standard_normal(dim) * 2.0
        expected = brute_force_qp(QpProblem(h, q, lower=0.0, upper=1.0))
        assert np.max(np.abs(np.loadtxt(out) - expected)) < 1e-6

    # qp capped tron at 200 and blmvm at 5,000 outer iterations, where solve and
    # compare cap them at 500 and 20,000
    @pytest.mark.parametrize("solver, cap", [("tron", 500), ("blmvm", 20000)])
    def test_caps_as_solve_does(self, solver, cap, monkeypatch):
        spec, seen = SOLVERS[solver], {}
        solver_function = getattr(nndiff.transient, spec.function)

        def spy(problem, **kwargs):
            seen.update(kwargs)
            return solver_function(problem, **kwargs)

        monkeypatch.setattr(nndiff.transient, spec.function, spy)
        assert main(["qp", "--random-dim", "6", "--solver", solver]) == 0
        assert seen["max_outer"] == spec.iteration_cap(6) == cap

    def test_missing_inputs_exit_1(self):
        assert main(["qp"]) == 1

    def test_inner_rtol_with_blmvm_exit_1(self, capsys):
        argv = ["qp", "--random-dim", "10", "--solver", "blmvm", "--inner-rtol", "0.5"]
        assert main(argv) == 1
        assert "--inner-rtol" in capsys.readouterr().err

    def test_seed_without_random_dim_exit_1(self, tmp_path, capsys):
        write_matrix_market(CsrMatrix.identity(3), tmp_path / "h.mtx")
        np.savetxt(tmp_path / "q.txt", [-1.0, -2.0, -3.0])
        code = main(["qp", "--matrix", str(tmp_path / "h.mtx"),
                     "--q", str(tmp_path / "q.txt"), "--seed", "4"])
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    # --rtol 0, -1 and nan ran 200 outer iterations and exited 2, --lower nan ran to
    # an all-NaN solution and exited 2, --random-dim 0 read as no --random-dim, and
    # --lower inf and --upper=-inf "converged" to an infinite solution with a KKT
    # PASS at tol inf and exited 0, with tron and with blmvm
    @pytest.mark.parametrize("argv, named", [
        (["--rtol", "0"], "rtol must be positive and finite, got 0.0"),
        (["--rtol", "-1"], "rtol must be positive and finite, got -1.0"),
        (["--rtol", "nan"], "rtol must be positive and finite, got nan"),
        (["--lower", "nan"], "a bound is NaN"),
        (["--upper", "nan"], "a bound is NaN"),
        (["--random-dim", "0"], "--random-dim must be at least 1, got 0"),
        (["--random-dim", "-2"], "--random-dim must be at least 1, got -2"),
        (["--lower", "inf"], "a lower bound is inf or an upper bound is -inf"),
        (["--upper=-inf"], "a lower bound is inf or an upper bound is -inf"),
        (["--upper=-inf", "--solver", "blmvm"], "a lower bound is inf or an upper bound is -inf"),
    ])
    def test_input_solve_would_reject_exit_1_before_the_solve(self, argv, named, monkeypatch,
                                                              capsys):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the input was checked")

        for function in ("solve_tron", "solve_blmvm"):
            monkeypatch.setattr(nndiff.transient, function, solve)
        assert main(["qp", "--random-dim", "3", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {named}\n"

    # a nan or inf in --q ran tron to 500 iterations and broke blmvm down, both exit 2
    @pytest.mark.parametrize("solver", ["tron", "blmvm"])
    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_linear_term_exit_1_before_the_solve(self, solver, entry, tmp_path,
                                                            monkeypatch, capsys):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the input was checked")

        monkeypatch.setattr(nndiff.transient, SOLVERS[solver].function, solve)
        write_matrix_market(CsrMatrix.identity(3), tmp_path / "h.mtx")
        (tmp_path / "q.txt").write_text(f"1.0\n{entry}\n2.0\n")
        code = main(["qp", "--matrix", str(tmp_path / "h.mtx"), "--q", str(tmp_path / "q.txt"),
                     "--solver", solver])
        assert code == 1
        assert capsys.readouterr() == ("", "error: the linear term is not finite\n")

    # a nan in the operator ran tron to 500 iterations and printed objective: nan, exit 2
    @pytest.mark.parametrize("solver", ["tron", "blmvm"])
    def test_non_finite_operator_entry_exit_1_before_the_solve(self, solver, tmp_path,
                                                              monkeypatch, capsys):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the input was checked")

        monkeypatch.setattr(nndiff.transient, SOLVERS[solver].function, solve)
        path = tmp_path / "h.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "3 3 3\n1 1 2\n2 2 nan\n3 3 2\n")
        (tmp_path / "q.txt").write_text("1.0\n2.0\n3.0\n")
        code = main(["qp", "--matrix", str(path), "--q", str(tmp_path / "q.txt"),
                     "--solver", solver])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {path}:4: entry value is not finite\n")

    @pytest.mark.parametrize("solver", ["tron", "blmvm"])
    def test_bound_files_match_brute_force(self, solver, tmp_path):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 4))
        h = CsrMatrix.from_dense(a.T @ a + 4 * np.eye(4))
        q = rng.standard_normal(4) * 2.0
        lower, upper = [-0.3, 0.0, -1.0, 0.1], [0.2, 0.5, 0.0, 1.0]
        write_matrix_market(h, tmp_path / "h.mtx")
        for name, values in (("q", q), ("lower", lower), ("upper", upper)):
            np.savetxt(tmp_path / f"{name}.txt", values, fmt="%.17g")
        out = tmp_path / "c.txt"
        assert main(["qp", "--matrix", str(tmp_path / "h.mtx"), "--q", str(tmp_path / "q.txt"),
                     "--lower", str(tmp_path / "lower.txt"), "--upper", str(tmp_path / "upper.txt"),
                     "--solver", solver, "--rtol", "1e-10", "--out", str(out)]) == 0
        expected = brute_force_qp(QpProblem(h, q, lower=lower, upper=upper))
        assert np.max(np.abs(np.loadtxt(out) - expected)) < 1e-7

    # a -inf entry in an upper-bound file "converged" to a -inf component, certified
    # with a KKT PASS at tol inf, and exited 0
    @pytest.mark.parametrize("text, named", [
        ("1.0\n-inf\n2.0\n", "a lower bound is inf or an upper bound is -inf"),
        ("1.0\n2.0\n", "bound file has 2 entries for n=3"),
    ], ids=["minus-inf-entry", "short"])
    def test_bad_upper_bound_file_exit_1(self, text, named, tmp_path, capsys):
        write_matrix_market(CsrMatrix.from_dense(2.0 * np.eye(3)), tmp_path / "h.mtx")
        np.savetxt(tmp_path / "q.txt", [1.0, 2.0, 3.0])
        (tmp_path / "upper.txt").write_text(text)
        code = main(["qp", "--matrix", str(tmp_path / "h.mtx"), "--q", str(tmp_path / "q.txt"),
                     "--upper", str(tmp_path / "upper.txt")])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {named}\n")

    # an empty file printed numpy's two-line UserWarning before the error line
    @pytest.mark.parametrize("argv, named", [
        (["--q", "EMPTY"], "q has 0 entries for n=3"),
        (["--q", "Q", "--lower", "EMPTY"], "bound file has 0 entries for n=3"),
    ])
    def test_vector_file_of_another_length_exit_1_without_a_warning(self, argv, named,
                                                                   tmp_path, capsys):
        write_matrix_market(CsrMatrix.identity(3), tmp_path / "h.mtx")
        paths = {"EMPTY": tmp_path / "empty.txt", "Q": tmp_path / "q.txt"}
        paths["EMPTY"].write_text("")
        paths["Q"].write_text("1\n2\n3\n")
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = main(["qp", "--matrix", str(tmp_path / "h.mtx"),
                         *(str(paths.get(arg, arg)) for arg in argv)])
        assert code == 1
        assert [str(w.message) for w in seen] == []
        assert capsys.readouterr() == ("", f"error: {named}\n")

    # standard output recorded before --inner-rtol and --seed lost their defaults
    @pytest.mark.parametrize("argv, expected", [
        (["--random-dim", "10"], QP_STDOUT_DIM10),
        (["--random-dim", "10", "--seed", "0"], QP_STDOUT_DIM10),
        (["--random-dim", "20", "--seed", "5", "--lower", "0", "--inner-rtol", "0.1"],
         QP_STDOUT_DIM20_INNER),
        (["--random-dim", "25", "--solver", "blmvm", "--seed", "7", "--lower", "-0.1"],
         QP_STDOUT_DIM25_BLMVM),
    ])
    def test_valid_stdout_unchanged(self, argv, expected, capsys):
        assert main(["qp", *argv]) == 0
        assert capsys.readouterr().out == expected


class TestUsageErrors:
    """Parser errors are input errors: exit 1 with the ``error:`` prefix."""

    def test_unknown_flag_exit_1(self, hole_config, capsys):
        assert main(["solve", "--config", str(hole_config), "--bogus"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_required_config_exit_1(self, capsys):
        assert main(["solve"]) == 1
        assert "--config" in capsys.readouterr().err

    def test_malformed_number_exit_1(self, capsys):
        assert main(["qp", "--rtol", "abc"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["compare", "--solver", "tron"],
        ["compare", "--seed", "1"],
        ["compare", "--threads", "2"],
        ["solve", "--seed", "1"],
        ["solve", "--threads", "2"],
    ])
    def test_removed_flags_exit_1(self, hole_config, argv):
        assert main([*argv, "--config", str(hole_config)]) == 1

    @pytest.mark.parametrize("argv", [
        ["qp", "--random-dim", "3", "--lower", "1", "--upper", "0"],  # DimensionError
        ["perf-report", "--kernels", "REPORT", "--tpp", "0", "--bw", "1e9"],  # PerfModelError
        ["perf-report", "--kernels", "REPORT", "--tpp", "nan", "--bw", "1e9"],
        ["perf-report", "--kernels", "REPORT", "--tpp", "1e9", "--bw", "inf"],
        ["perf-report", "--kernels", "NO_BYTES", "--tpp", "1e9", "--bw", "1e9"],
        ["solve", "--config", "DIR"],  # IsADirectoryError
        ["solve", "--config", "CONFIG", "--solver", "tron:"],  # ValueError
    ])
    def test_input_errors_print_one_line(self, argv, hole_config, tmp_path, capsys):
        paths = {"REPORT": tmp_path / "report.json", "NO_BYTES": tmp_path / "no_bytes.json",
                 "DIR": tmp_path, "CONFIG": hole_config}
        paths["REPORT"].write_text(json.dumps({"flops": 100, "bytes": 800, "wall_time_s": 0.5}))
        paths["NO_BYTES"].write_text(json.dumps({"flops": 100, "bytes": 0, "wall_time_s": 0.5}))
        assert main([str(paths.get(arg, arg)) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["solve", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "nndiff" in capsys.readouterr().out


OK_REPORT = '{"flops": 100, "bytes": 800, "wall_time_s": 0.5}'


class TestPerfCommand:
    """``nndiff perf-report`` on a solve's report.json and on a bare flops/bytes file."""

    def test_from_solve_report(self, hole_config, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["solve", "--config", str(hole_config),
                     "--report", str(report)]) == 0
        capsys.readouterr()
        code = main(["perf-report", "--kernels", str(report),
                     "--tpp", "9.2e9", "--bw", "5.65e9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "AI" in out and "flops/s" in out

    def test_needs_wall_time(self, tmp_path):
        path = tmp_path / "raw.json"
        path.write_text(json.dumps({"flops": 100, "bytes": 800}))
        assert main(["perf-report", "--kernels", str(path),
                     "--tpp", "1e9", "--bw", "1e9"]) == 1
        assert main(["perf-report", "--kernels", str(path), "--wall-time", "0.5",
                     "--tpp", "1e9", "--bw", "1e9"]) == 0

    # each of these printed an efficiency (nan%, 0.00%, a negative AI) and exited 0,
    # raised a traceback, or, for --wall-time -1, asked for a wall time it was given
    @pytest.mark.parametrize("report, flags, named", [
        (OK_REPORT, ["--wall-time", "0"], "wall time must be positive and finite, got 0.0"),
        (OK_REPORT, ["--wall-time", "nan"], "wall time must be positive and finite, got nan"),
        (OK_REPORT, ["--wall-time", "inf"], "wall time must be positive and finite, got inf"),
        (OK_REPORT, ["--wall-time", "-1"], "wall time must be positive and finite, got -1.0"),
        ('{"flops": 100, "bytes": 800, "wall_time_s": NaN}', [],
         "wall time must be positive and finite, got nan"),
        ('{"flops": 100, "bytes": 800, "wall_time_s": Infinity}', [],
         "wall time must be positive and finite, got inf"),
        ('{"flops": -5, "bytes": 10, "wall_time_s": 0.5}', [],
         "report file needs finite flops >= 0 and bytes > 0, got -5 and 10"),
        ('{"flops": Infinity, "bytes": 10, "wall_time_s": 0.5}', [],
         "report file needs finite flops >= 0 and bytes > 0, got inf and 10"),
        ('{"flops": 100, "bytes": -8, "wall_time_s": 0.5}', [],
         "report file needs finite flops >= 0 and bytes > 0, got 100 and -8"),
        ('{"flops": 1' + "0" * 400 + ', "bytes": 10, "wall_time_s": 0.5}', [],
         "report file has no number 'flops'"),
        ('{"flops": true, "bytes": 800, "wall_time_s": 0.5}', [],
         "report file has no number 'flops'"),
        ('{"flops": 100, "bytes": "800", "wall_time_s": 0.5}', [],
         "report file has no number 'bytes'"),
        ('{"flops": 100, "bytes": 800, "wall_time_s": "0.5"}', [],
         "report file has no number 'wall_time_s' and no --wall-time was given"),
        ('{"perf": 3}', [], "report file holds no JSON object with flops and bytes"),
        ("[100, 800]", [], "report file holds no JSON object with flops and bytes"),
    ], ids=["wall-0", "wall-nan", "wall-inf", "wall-negative", "file-wall-nan", "file-wall-inf",
            "flops-negative", "flops-inf", "bytes-negative", "flops-beyond-float", "flops-bool",
            "bytes-string", "file-wall-string", "perf-not-object", "list"])
    def test_bad_totals_or_wall_time_exit_1(self, report, flags, named, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(report)
        code = main(["perf-report", "--kernels", str(path), "--tpp", "1e9", "--bw", "1e9",
                     *flags])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {named}\n")

    def test_prints_the_totals_not_a_kernel_sum(self, tmp_path, capsys):
        # the totals were ignored whenever a kernels list was present
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"flops": 100, "bytes": 800, "wall_time_s": 0.5, "kernels": [
            {"name": "dot", "calls": 1, "flops": 7, "bytes": 8}]}))
        assert main(["perf-report", "--kernels", str(path), "--tpp", "1e9", "--bw", "1e9"]) == 0
        assert capsys.readouterr().out == (
            "flops: 100  bytes: 800  AI: 0.1250\n"
            "measured 2.0000e+02 flops/s vs ideal 1.2500e+08 (memory-bound): 0.00%\n")

    def test_fractional_totals_kept(self, tmp_path, capsys):
        # the ledger truncated them: flops: 100 ... AI: 0.1250
        path = tmp_path / "report.json"
        path.write_text('{"flops": 100.5, "bytes": 800, "wall_time_s": 0.5}')
        assert main(["perf-report", "--kernels", str(path), "--tpp", "1e9", "--bw", "1e9"]) == 0
        assert capsys.readouterr().out == (
            "flops: 100.5  bytes: 800  AI: 0.1256\n"
            "measured 2.0100e+02 flops/s vs ideal 1.2562e+08 (memory-bound): 0.00%\n")


# Runs each argv of sys.argv[1] (a JSON list) through nndiff.cli.main in this one
# process and prints [exit code, stderr] per case; an exception that escapes main
# stands in for the exit code.  Each case starts as a fresh process would: no
# logging handler yet, and no warning shown yet.
CONTRACT_SCRIPT = """
import contextlib, io, json, logging, sys
from nndiff.cli import main
for argv in json.loads(sys.argv[1]):
    logging.getLogger().handlers.clear()
    for module in list(sys.modules.values()):
        getattr(module, "__warningregistry__", {}).clear()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:
        code = repr(exc)
    print(json.dumps([code, err.getvalue()]))
"""


class TestOneErrorLine:
    """Every input error exits 1 with exactly one ``error:`` line on stderr.

    In-process tests cannot check this for warnings: pytest records them, so a
    warning never reaches a captured stderr.  These cases run in one
    subprocess under Python's default warning filters, as a user runs nndiff.
    """

    def test_exit_1_cases_write_one_stderr_line(self, tmp_path):
        write_matrix_market(CsrMatrix.from_dense(2.0 * np.eye(3)), tmp_path / "h.mtx")
        (tmp_path / "q.txt").write_text("1\n2\n3\n")
        (tmp_path / "empty.txt").write_text("")
        reports = {"ok": OK_REPORT, "nan_wall": OK_REPORT.replace("0.5", "NaN"),
                   "negative": '{"flops": -5, "bytes": 10, "wall_time_s": 0.5}',
                   "inf_flops": '{"flops": Infinity, "bytes": 10, "wall_time_s": 0.5}',
                   "perf_3": '{"perf": 3}', "no_bytes": OK_REPORT.replace("800", "0")}
        for name, text in reports.items():
            (tmp_path / f"{name}.json").write_text(text)
        box = generate_box(1, 1, 1, "tet4")
        write_gmsh(dataclasses.replace(box, cells=box.cells[:, [1, 0, 2, 3]]),
                   tmp_path / "inverted.msh")
        mesh_block = '[mesh]\ngenerator = "cube_with_hole"\nn = 9\nkind = "tet4"\n'
        configs = {
            "hole": HOLE_CONFIG,
            "float_n": HOLE_CONFIG.replace("n = 9", "n = 18.0"),
            "bad_generator": HOLE_CONFIG.replace('"cube_with_hole"', '"sphere"'),
            "bad_precond": HOLE_CONFIG.replace('"ilu0"', '"ssor"'),
            "d_m_inf": HOLE_CONFIG.replace("d_m = 0.0", "d_m = inf"),
            "c_min_above": HOLE_CONFIG.replace("c_min = 0.0", "c_min = 2.0"),
            "c_min_inf": HOLE_CONFIG.replace("c_min = 0.0", "c_min = inf"),
            "no_marker": HOLE_CONFIG.replace("2 = 1.0", "3 = 1.0"),
            "tron_0": HOLE_CONFIG + '\n[compare]\nsolvers = ["galerkin", "tron:0"]\n',
            "mesh_5": "mesh = 5\n" + HOLE_CONFIG.replace(mesh_block, ""),
            "no_generator": HOLE_CONFIG.replace('generator = "cube_with_hole"\nn = 9\n', ""),
            "file_no_path": HOLE_CONFIG.replace('"cube_with_hole"', '"file"'),
            "no_tensor": HOLE_CONFIG.replace('mode = "dispersion"', 'mode = "constant"'),
            "velocity_2": HOLE_CONFIG.replace("[1.0, 1.0, 1.0]", "[1.0, 1.0]"),
            "no_velocity": HOLE_CONFIG.replace("velocity = [1.0, 1.0, 1.0]\n", ""),
            "no_bw": HOLE_CONFIG.replace("streams_bw = 5.65e9\n", ""),
            "n_steps_0": HOLE_CONFIG + "\n[transient]\ndt = 0.1\nn_steps = 0\n",
            "inverted": HOLE_CONFIG.replace(mesh_block, '[mesh]\npath = "inverted.msh"\n'),
        }
        for name, text in configs.items():
            (tmp_path / f"{name}.toml").write_text(text)

        def at(name):
            return str(tmp_path / name)

        qp = ["qp", "--matrix", at("h.mtx"), "--q", at("q.txt")]
        perf = ["perf-report", "--tpp", "1e9", "--bw", "1e9", "--kernels"]
        cases = [
            # qp: a bound with no finite value on its side, and an empty vector file
            [*qp, "--lower", "inf"],
            [*qp, "--upper=-inf", "--solver", "blmvm"],
            ["qp", "--matrix", at("h.mtx"), "--q", at("empty.txt")],
            [*qp, "--lower", at("empty.txt")],
            # perf-report: a wall time outside (0, inf), and totals that are not
            # finite with bytes > 0 in a JSON object
            [*perf, at("ok.json"), "--wall-time", "0"],
            [*perf, at("ok.json"), "--wall-time", "nan"],
            [*perf, at("ok.json"), "--wall-time", "-1"],
            [*perf, at("nan_wall.json")],
            [*perf, at("negative.json")],
            [*perf, at("inf_flops.json")],
            [*perf, at("perf_3.json")],
            # README's list of input errors
            ["solve", "--config", at("float_n.toml")],
            ["solve", "--config", at("bad_generator.toml")],
            ["solve", "--config", at("bad_precond.toml")],
            ["solve", "--config", at("hole.toml"), "--bogus"],
            ["solve"],
            ["qp", "--rtol", "abc"],
            ["solve", "--config", at("d_m_inf.toml")],
            ["solve", "--config", at("c_min_above.toml")],
            ["solve", "--config", at("c_min_inf.toml")],
            ["solve", "--config", at("missing.toml")],
            [*qp, "--lower", "1", "--upper", "0"],
            [*qp, "--lower", "nan"],
            [*qp, "--rtol", "0"],
            ["qp", "--random-dim", "0"],
            [*perf, at("ok.json"), "--tpp", "0"],
            [*perf, at("ok.json"), "--tpp", "nan"],
            [*perf, at("no_bytes.json")],
            ["compare", "--config", at("no_marker.toml")],
            ["compare", "--config", at("tron_0.toml")],
            ["solve", "--config", at("hole.toml"), "--solver", "galerkin:1e-3"],
        ]
        # config -> the message its solve must print
        messages = {
            "mesh_5": "[mesh] must be a section, not a key",
            "no_generator": "[mesh] needs a generator or a path",
            "file_no_path": "[mesh] generator 'file' needs a path",
            "no_tensor": "[physics] constant mode needs a tensor",
            "velocity_2": "[physics] velocity must have 3 components",
            "no_velocity": "[physics] dispersion mode needs velocity or velocity_file",
            "no_bw": "[perf] missing 'streams_bw'",
            "n_steps_0": "n_steps must be at least 1",
            "inverted": "non-positive volume in cell 0",
        }
        cases += [["solve", "--config", at(f"{name}.toml")] for name in messages]
        src = str(Path(nndiff.cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k not in ("NND_LOG", "PYTHONWARNINGS")}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", CONTRACT_SCRIPT, json.dumps(cases)],
                              capture_output=True, text=True, env=env, timeout=300)
        results = [json.loads(line) for line in done.stdout.splitlines()]
        assert (done.returncode, len(results)) == (0, len(cases)), done.stderr
        broken = [(argv, code, err) for argv, (code, err) in zip(cases, results)
                  if code != 1 or not err.startswith("error: ") or err.count("\n") != 1
                  or not err.endswith("\n")]
        assert broken == []
        printed = [err for _, err in results[-len(messages):]]
        assert printed == [f"error: {message}\n" for message in messages.values()]


LAZY_MODULES = ("scipy.sparse.linalg", "scipy.io")


def modules_loaded_by(script: str) -> dict:
    """Which of LAZY_MODULES a fresh interpreter holds after running ``script``."""
    probe = script + f"\nimport sys\nprint(*[m in sys.modules for m in {LAZY_MODULES!r}])\n"
    src = str(Path(nndiff.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return dict(zip(LAZY_MODULES, (w == "True" for w in done.stdout.split()[-2:])))


class TestLazyImports:
    """A solve loads only the SciPy packages it uses: SuperLU's triangular solve
    with the first ILU(0), and scipy.io with a MatrixMarket file."""

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_solve_loads_superlu_only_for_ilu0(self, solver, tmp_path):
        """Each solver with its default preconditioner: ILU(0) for galerkin only."""
        cfg = tmp_path / "default_precond.toml"
        cfg.write_text(HOLE_CONFIG.replace('precond = "ilu0"\n', ""))
        script = ("from nndiff.cli import main\n"
                  f"assert main(['solve', '--config', {str(cfg)!r}, '--solver', {solver!r}]) == 0")
        ilu0 = SOLVERS[solver].precond == "ilu0"
        assert modules_loaded_by(script) == {"scipy.sparse.linalg": ilu0, "scipy.io": False}

    def test_matrix_market_round_trip_loads_scipy_io(self, tmp_path):
        path = tmp_path / "a.mtx"
        script = ("import numpy as np\n"
                  "from nndiff.sparse import CsrMatrix, read_matrix_market, write_matrix_market\n"
                  "a = CsrMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])\n"
                  f"write_matrix_market(a, {str(path)!r})\n"
                  f"assert np.array_equal(read_matrix_market({str(path)!r}).to_dense(), "
                  "a.to_dense())")
        assert modules_loaded_by(script)["scipy.io"]
