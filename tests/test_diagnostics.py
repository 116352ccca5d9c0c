import numpy as np
import pytest

from nndiff.diagnostics import dmp_check
from nndiff.sparse import SolveReport
from nndiff.transient import TransientResult, write_step_csv


class TestDmpCheck:
    def test_all_zeros_clean(self):
        rep = dmp_check(np.zeros(10), 0.0, 1.0)
        assert rep["n_below"] + rep["n_above"] == 0
        assert rep["percent_violated"] == 0.0

    def test_mixed_field(self):
        rep = dmp_check(np.array([-0.1, 0.5, 1.2]), 0.0, 1.0)
        assert rep["n_below"] == 1
        assert rep["n_above"] == 1
        assert rep["percent_violated"] == pytest.approx(200.0 / 3.0)
        assert rep["min"] == -0.1
        assert rep["max"] == 1.2

    def test_tolerance_excuses_small_excursions(self):
        c = np.array([-1e-9, 1.0 + 1e-9])
        assert dmp_check(c, 0.0, 1.0)["n_below"] == 1
        assert dmp_check(c, 0.0, 1.0)["n_above"] == 1
        assert dmp_check(c, 0.0, 1.0, tol=1e-8)["n_below"] == 0
        assert dmp_check(c, 0.0, 1.0, tol=1e-8)["n_above"] == 0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        c = rng.uniform(-0.2, 1.3, size=200)
        assert dmp_check(c, 0.0, 1.0) == dmp_check(rng.permutation(c), 0.0, 1.0)

    def test_counts_bounded_by_total(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            c = rng.normal(0.5, 1.0, size=rng.integers(1, 50))
            rep = dmp_check(c, 0.0, 1.0)
            violated = rep["n_below"] + rep["n_above"]
            assert 0 <= violated <= rep["n_total"] == len(c)
            assert rep["percent_violated"] == 100.0 * violated / rep["n_total"]

    def test_is_report_json_dmp_section(self):
        rep = dmp_check(np.array([-0.5, 0.25, 0.5, 2.0]), 0.0, 1.0)
        assert list(rep) == ["min", "max", "n_below", "n_above", "n_total", "percent_violated"]
        assert rep == {"min": -0.5, "max": 2.0, "n_below": 1, "n_above": 1, "n_total": 4,
                       "percent_violated": 50.0}

    def test_empty_field(self):
        assert dmp_check(np.empty(0), 0.0, 1.0) == {
            "min": 0.0, "max": 0.0, "n_below": 0, "n_above": 0, "n_total": 0,
            "percent_violated": 0.0}

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            dmp_check(np.zeros(1), 0.0, 1.0, tol=-1.0)


class TestTables:
    def test_csv_layout(self, tmp_path):
        # the per-level violation table: the initial field (level 0) is not a
        # row, each row is numbered by its level and counts the nodes outside
        # [c_min, c_max], and the level's certificate comes last
        # (bench/checks.py reads violations by position)
        result = TransientResult(
            fields=[np.array([5.0, 5.0]), np.array([0.5]), np.array([-1.0, 2.0])],
            reports=[
                SolveReport("converged", 3, flops=10, bytes=80),
                SolveReport("converged", 4, flops=20, bytes=160),
            ],
            certificates=[(2.5e-7, 1e-6), (0.1, 1e-6)],
        )
        path = tmp_path / "steps.csv"
        write_step_csv(result, path, 0.0, 1.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,iterations,min_c,max_c,violations,flops,bytes,certificate"
        assert lines[1:] == ["1,3,0.5,0.5,0,10,80,2.4999999999999999e-07",
                             "2,4,-1,2,2,20,160,0.10000000000000001"]

    def test_csv_steady_row_is_level_0(self, tmp_path):
        result = TransientResult(fields=[np.array([0.5])],
                                 reports=[SolveReport("converged", 3, flops=10, bytes=80)],
                                 certificates=[(0.0, 1e-6)])
        path = tmp_path / "steps.csv"
        write_step_csv(result, path, 0.0, 1.0)
        assert path.read_text().splitlines()[1:] == ["0,3,0.5,0.5,0,10,80,0"]
