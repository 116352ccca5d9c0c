import json

import numpy as np
import pytest

from nndiff.cli import main
from nndiff.mesh_io import read_gmsh
from nndiff.qp import QpProblem, brute_force_qp
from nndiff.sparse import CsrMatrix, write_matrix_market

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

    def test_conflicting_marker_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.toml"
        cfg.write_text(HOLE_CONFIG + "\n[bc.neumann]\n2 = 0.5\n")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "marker 2" in capsys.readouterr().err

    def test_unknown_key_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.toml"
        cfg.write_text(HOLE_CONFIG + "\n[solver]\nbogus = 1\n")
        assert main(["solve", "--config", str(cfg)]) in (1,)
        # duplicate [solver] section headers merge, so the failure is the key
        err = capsys.readouterr().err
        assert "bogus" in err or "duplicate" in err

    def test_missing_config_exit_1(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.toml")]) == 1

    def test_solver_failure_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "hard.toml"
        cfg.write_text(HOLE_CONFIG.replace("rtol = 1e-6", "rtol = 1e-6\nmax_iter = 1"))
        assert main(["solve", "--config", str(cfg)]) == 2
        assert "solver failure" in capsys.readouterr().err

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

    def test_missing_inputs_exit_1(self):
        assert main(["qp"]) == 1


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

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["solve", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "nndiff" in capsys.readouterr().out


class TestPerfReport:
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
