import dataclasses
from functools import cached_property

import numpy as np
import pytest

import nndiff.fem as fem
import nndiff.transient as transient
from nndiff.errors import ConfigError, SolverFailure
from nndiff.fem import (
    DiffusivityField,
    DispersionParams,
    apply_dirichlet,
    assemble,
)
from nndiff.mesh import BoundarySpec, generate_box, generate_cube_with_hole
from nndiff.qp import QpProblem, solve_tron
from nndiff.sparse import CsrMatrix, cg_solve
from nndiff.transient import (
    TransientConfig,
    build_transient_operator,
    build_transient_rhs,
    prepare,
    run,
    solve,
    write_step_csv,
)

ISO = DiffusivityField.constant(np.eye(3))


def small_problem(kind="tet4", n=3):
    mesh = generate_box(n, n, n, kind)
    bc = BoundarySpec(dirichlet={1: 0.0})
    return mesh, bc


class TestOperators:
    def test_identity_mass_zero_stiffness(self):
        n = 4
        zero = CsrMatrix.from_coo(n, [], [], [])
        eye = CsrMatrix.identity(n)
        ktilde = build_transient_operator(zero, eye, dt=1.0)
        assert np.array_equal(ktilde.to_dense(), np.eye(n))
        c_n = np.arange(1.0, 5.0)
        f = np.full(n, 0.5)
        ftilde = build_transient_rhs(f, eye, c_n, dt=1.0)
        assert np.array_equal(ftilde, f + c_n)
        # one implicit step: I c = f + c_n
        x, _ = cg_solve(ktilde, ftilde, rtol=1e-14)
        assert np.allclose(x, f + c_n)

    def test_large_dt_recovers_steady_operator(self):
        mesh, bc = small_problem()
        system = assemble(mesh, None, bc, ISO)
        ktilde = build_transient_operator(system.stiffness, system.mass, dt=1e12)
        k = system.stiffness
        # same pattern union; stiffness entries dominate
        dense_diff = np.abs(ktilde.to_dense() - k.to_dense()).max()
        assert dense_diff < 1e-10

    def test_pattern_is_union(self):
        a = CsrMatrix.from_coo(3, [0, 1], [1, 2], [1.0, 1.0])
        b = CsrMatrix.from_coo(3, [2], [0], [1.0])
        ktilde = build_transient_operator(a, b, dt=2.0)
        rows = np.repeat(np.arange(3), np.diff(ktilde.row_offsets))
        entries = set(zip(rows.tolist(), ktilde.col_indices.tolist()))
        assert entries == {(0, 1), (1, 2), (2, 0)}

    def test_bad_dt(self):
        eye = CsrMatrix.identity(2)
        with pytest.raises(ConfigError):
            build_transient_operator(eye, eye, dt=0.0)
        with pytest.raises(ConfigError):
            build_transient_rhs(np.zeros(2), eye, np.zeros(2), dt=-1.0)


class TestConfig:
    def test_solver_validation(self):
        with pytest.raises(ConfigError, match="unknown solver"):
            TransientConfig(solver="newton")

    def test_initial_value_within_bounds(self):
        with pytest.raises(ConfigError, match="initial value"):
            TransientConfig(solver="tron", initial_value=-1.0)

    def test_precond_validation(self):
        with pytest.raises(ConfigError, match="unknown preconditioner"):
            TransientConfig(solver="blmvm", precond="ilu9")

    def test_integer_initial_value_gives_the_float_fields(self):
        mesh = generate_box(2, 2, 2, "tet4")
        bc = BoundarySpec(dirichlet={1: 0.5})
        runs = [run(mesh, bc, ISO, 0.0, TransientConfig(dt=0.1, n_steps=2, initial_value=v))
                for v in (0, 0.0)]
        for a, b in zip(runs[0].fields, runs[1].fields, strict=True):
            assert a.dtype == b.dtype == np.float64
            assert a.tobytes() == b.tobytes()

    def test_no_time_step_is_one_steady_solve(self):
        assert TransientConfig(dt=None).steady
        with pytest.raises(ConfigError, match="steady solve"):
            TransientConfig(dt=None, n_steps=3)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(ConfigError, match="max_iter"):
            TransientConfig(max_iter=max_iter)

    @pytest.mark.parametrize("setting, named", [
        ({"dt": np.nan}, "dt"), ({"dt": np.inf}, "dt"), ({"rtol": np.nan}, "rtol"),
        ({"rtol": np.inf}, "rtol"), ({"rtol": 0.0}, "rtol"), ({"rtol": -1e-6}, "rtol"),
        ({"initial_value": np.inf}, "initial_value"), ({"c_min": np.nan}, "c_min"),
        ({"c_max": np.nan}, "c_max"),
    ])
    def test_non_finite_or_non_positive_settings_rejected(self, setting, named):
        with pytest.raises(ConfigError, match=named):
            TransientConfig(**setting)

    @pytest.mark.parametrize("solver", ["galerkin", "tron"])
    def test_infinite_bounds_accepted(self, solver):
        TransientConfig(solver=solver, c_min=-np.inf, c_max=np.inf)


class TestRun:
    def test_zero_everything_stays_zero(self):
        mesh, bc = small_problem()
        cfg = TransientConfig(dt=0.1, n_steps=4, initial_value=0.0)
        result = run(mesh, bc, ISO, 0.0, cfg)
        assert len(result.fields) == 5
        for field in result.fields:
            assert np.max(np.abs(field)) == 0.0

    def test_steady_flag_solves_stationary_problem(self):
        mesh = generate_box(3, 3, 3, "tet4")
        bc = BoundarySpec(dirichlet={1: 0.0})
        cfg = TransientConfig(dt=None, rtol=1e-12)
        result = run(mesh, bc, ISO, 1.0, cfg)
        system = assemble(mesh, None, bc, ISO, source=1.0)
        red = apply_dirichlet(system)
        x, _ = cg_solve(red.matrix, red.rhs, rtol=1e-13)
        assert len(result.fields) == 1
        assert np.max(np.abs(result.final - red.expand(x))) < 1e-9

    def test_initial_value_default_inserted(self):
        mesh, bc = small_problem()
        cfg = TransientConfig(dt=0.1, n_steps=1)
        result = run(mesh, bc, ISO, 0.0, cfg)
        c0 = result.fields[0]
        boundary = np.unique(mesh.boundary_facets)
        interior = np.setdiff1d(np.arange(mesh.n_vertices), boundary)
        assert np.all(c0[interior] == 1e-8)
        assert np.all(c0[boundary] == 0.0)

    def test_backward_euler_matches_dense_recurrence(self):
        # <= 300 dofs; independent dense implementation of the same stepping
        mesh = generate_box(4, 4, 4, "tet4")  # 125 vertices
        bc = BoundarySpec(dirichlet={1: 0.0})
        dt, steps = 0.02, 10
        cfg = TransientConfig(dt=dt, n_steps=steps, initial_value=1.0,
                              rtol=1e-13, solver="galerkin")
        result = run(mesh, bc, ISO, 0.0, cfg)

        system = assemble(mesh, None, bc, ISO)
        k = system.stiffness.to_dense()
        m = system.mass.to_dense()
        boundary = np.unique(mesh.boundary_facets)
        free = np.setdiff1d(np.arange(mesh.n_vertices), boundary)
        a = (m / dt + k)[np.ix_(free, free)]
        c = np.ones(mesh.n_vertices)
        c[boundary] = 0.0
        peaks = [c.max()]
        for level in range(1, steps + 1):
            rhs = (m @ c / dt)[free]
            c_free = np.linalg.solve(a, rhs)
            c = np.zeros(mesh.n_vertices)
            c[free] = c_free
            assert np.max(np.abs(result.fields[level] - c)) < 1e-10
            peaks.append(c.max())
        # implicit diffusion with zero boundary decays monotonically
        assert all(b < a for a, b in zip(peaks, peaks[1:]))

    def test_qp_path_with_inactive_bounds_matches_galerkin(self):
        mesh = generate_box(3, 3, 3, "tet4")
        bc = BoundarySpec(dirichlet={1: 0.5})
        rtol = 1e-9
        base = TransientConfig(dt=0.1, n_steps=3, initial_value=0.5, rtol=rtol)
        cfg_g = TransientConfig(**{**base.__dict__, "solver": "galerkin"})
        cfg_t = TransientConfig(**{**base.__dict__, "solver": "tron"})
        res_g = run(mesh, bc, ISO, 0.0, cfg_g)
        res_t = run(mesh, bc, ISO, 0.0, cfg_t)
        for fg, ft in zip(res_g.fields, res_t.fields):
            assert np.max(np.abs(fg - ft)) < 10 * rtol * max(np.abs(fg).max(), 1.0)

    def test_qp_path_enforces_bounds_where_galerkin_violates(self):
        mesh = generate_cube_with_hole(9, "tet4")
        d = DiffusivityField.dispersion(
            DispersionParams(1.0, 0.001, 0.0), np.array([1.0, 1.0, 1.0])
        )
        bc = BoundarySpec(dirichlet={1: 0.0, 2: 1.0})
        steps = 3
        res_g = run(mesh, bc, d, 0.0, TransientConfig(
            dt=0.5, n_steps=steps, solver="galerkin", rtol=1e-8))
        res_b = run(mesh, bc, d, 0.0, TransientConfig(
            dt=0.5, n_steps=steps, solver="blmvm", rtol=1e-6))
        res_t = run(mesh, bc, d, 0.0, TransientConfig(
            dt=0.5, n_steps=steps, solver="tron", rtol=1e-6))
        assert min(f.min() for f in res_g.fields[1:]) < -1e-4
        for res in (res_b, res_t):
            for field in res.fields:
                assert field.min() >= -1e-12
                assert field.max() <= 1.0 + 1e-12

    def test_warm_start_independent_result(self):
        # re-solve the first bounded level cold; unique minimizer => same c
        mesh = generate_cube_with_hole(9, "tet4")
        d = DiffusivityField.dispersion(
            DispersionParams(1.0, 0.001, 0.0), np.array([1.0, 1.0, 1.0])
        )
        bc = BoundarySpec(dirichlet={1: 0.0, 2: 1.0})
        dt = 0.5
        rtol = 1e-9
        cfg = TransientConfig(dt=dt, n_steps=1, solver="tron", rtol=rtol)
        result = run(mesh, bc, d, 0.0, cfg)

        system = assemble(mesh, None, bc, d)
        from nndiff.transient import build_transient_operator, build_transient_rhs

        ktilde = build_transient_operator(system.stiffness, system.mass, dt)
        red = apply_dirichlet(system, ktilde)
        ftilde = build_transient_rhs(system.load, system.mass, result.fields[0], dt)
        rhs = ftilde[red.free] - red.lift
        problem = QpProblem(red.matrix, -rhs, lower=0.0, upper=1.0)
        cold, rep = solve_tron(problem, rtol=rtol, x0=None)
        assert rep.converged
        warm_free = result.final[red.free]
        assert np.max(np.abs(cold - warm_free)) < 1e-6

    def test_nonconvergence_aborts_with_step(self):
        mesh, bc = small_problem()
        cfg = TransientConfig(dt=0.1, n_steps=2, initial_value=1.0,
                              max_iter=1, rtol=1e-14)
        with pytest.raises(SolverFailure) as err:
            run(mesh, bc, ISO, 0.0, cfg)
        assert err.value.step == 1
        assert err.value.report is not None

    def test_time_dependent_dirichlet(self):
        mesh, _ = small_problem()
        ramp = lambda pts, t: np.full(len(pts), t)
        bc = BoundarySpec(dirichlet={1: ramp})
        cfg = TransientConfig(dt=0.25, n_steps=2, initial_value=0.0, rtol=1e-12)
        result = run(mesh, bc, ISO, 0.0, cfg)
        boundary = np.unique(mesh.boundary_facets)
        assert np.allclose(result.fields[1][boundary], 0.25)
        assert np.allclose(result.fields[2][boundary], 0.5)

    def test_dirichlet_outside_bounds_rejected(self):
        mesh, _ = small_problem()
        bc = BoundarySpec(dirichlet={1: 2.0})
        cfg = TransientConfig(dt=0.1, n_steps=1, solver="tron")
        with pytest.raises(ConfigError, match="outside"):
            run(mesh, bc, ISO, 0.0, cfg)

    def test_one_field_per_level_and_csv(self, tmp_path):
        mesh, _ = small_problem()
        ramp = lambda pts, t: np.full(len(pts), t)
        cfg = TransientConfig(dt=0.1, n_steps=3, initial_value=0.0)
        result = run(mesh, BoundarySpec(dirichlet={1: ramp}), ISO, 0.0, cfg)
        # fields[k] is level k, at t = k dt: the initial field, then one per solve
        boundary = np.unique(mesh.boundary_facets)
        assert [f[boundary][0] for f in result.fields] == [k * 0.1 for k in range(4)]
        assert len(result.reports) == 3
        path = tmp_path / "steps.csv"
        write_step_csv(result, path, 0.0, 1.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,iterations,min_c,max_c,violations,flops,bytes,certificate"
        assert len(lines) == 4


class TestPrepare:
    @pytest.mark.parametrize("timing", [{"dt": 0.5, "n_steps": 3}, {"dt": None}])
    def test_solves_on_one_prepare_match_separate_runs(self, timing):
        mesh = generate_cube_with_hole(9, "tet4")
        d = DiffusivityField.dispersion(
            DispersionParams(1.0, 0.001, 0.0), np.array([1.0, 1.0, 1.0])
        )
        bc = BoundarySpec(dirichlet={1: 0.0, 2: 1.0})
        prepared = prepare(mesh, bc, d, 0.0, timing.get("dt"))
        # galerkin again after tron: a solve that wrote into the shared problem shows
        for solver in ("galerkin", "tron", "galerkin"):
            cfg = TransientConfig(solver=solver, **timing)
            shared, alone = solve(prepared, cfg), run(mesh, bc, d, 0.0, cfg)
            assert [f.tobytes() for f in shared.fields] == [f.tobytes() for f in alone.fields]
            assert (shared.ledger.flops, shared.ledger.bytes) == (
                alone.ledger.flops, alone.ledger.bytes)

    @pytest.mark.parametrize("prepared_dt, timing", [
        (0.5, {"dt": None}), (None, {"dt": 0.5}), (0.5, {"dt": 0.25}),
    ])
    def test_mismatched_time_step_rejected(self, prepared_dt, timing):
        mesh, bc = small_problem()
        prepared = prepare(mesh, bc, ISO, 0.0, prepared_dt)
        with pytest.raises(ConfigError, match="prepared problem"):
            solve(prepared, TransientConfig(**timing))


class TestPrepareBuildsOnlyWhatTheSolveReads:
    @staticmethod
    def spy(monkeypatch) -> dict:
        """Count the quadrature-point sets formed and the capacity matrices built."""
        built = {"qpts": 0, "mass": 0}
        for cls, name in ((fem.CellGeometry, "qpts"), (fem.AssembledSystem, "mass")):
            def counted(self, raw=getattr(cls, name).func, name=name):
                built[name] += 1
                return raw(self)
            prop = cached_property(counted)
            prop.__set_name__(cls, name)
            monkeypatch.setattr(cls, name, prop)
        return built

    def test_steady_constant_problem_forms_no_points_and_no_mass(self, monkeypatch):
        built = self.spy(monkeypatch)
        mesh = generate_cube_with_hole(9, "tet4")
        bc = BoundarySpec(dirichlet={1: 0.0, 2: 1.0})
        d = DiffusivityField.constant(np.diag([1.0, 0.01, 0.01]))
        for solver in ("galerkin", "tron"):
            solve(prepare(mesh, bc, d, 2.0), TransientConfig(dt=None, solver=solver))
        assert built == {"qpts": 0, "mass": 0}

    @pytest.mark.parametrize("kind", ["tet4", "hex8"])
    def test_transient_constant_problem_builds_mass_once(self, monkeypatch, kind):
        built = self.spy(monkeypatch)
        mesh, bc = small_problem(kind)
        run(mesh, bc, ISO, 1.0, TransientConfig(dt=0.5, n_steps=3))
        assert built == {"qpts": 0, "mass": 1}

    @pytest.mark.parametrize("given", ["tensor", "source"])
    def test_function_input_forms_points_once(self, monkeypatch, given):
        built = self.spy(monkeypatch)
        mesh, bc = small_problem()
        d, source = ISO, 1.0
        if given == "tensor":
            d = DiffusivityField.from_function(
                lambda p: np.broadcast_to(np.diag([1.0, 2.0, 3.0]), (len(p), 3, 3)))
        else:
            source = lambda p, t: 1.0 + p[:, 0] * t  # noqa: E731
        run(mesh, bc, d, source, TransientConfig(dt=0.5, n_steps=3))
        assert built == {"qpts": 1, "mass": 1}


class TestTimeIndependentLevels:
    """Constant data is assembled once in prepare; callables at every level."""

    @staticmethod
    def hole_problem(constant: bool):
        """A source, a Dirichlet value and a Neumann flux, as constants or as
        callables returning the same constants."""
        given = lambda v: v if constant else (lambda p, t: v)  # noqa: E731
        mesh = generate_cube_with_hole(9, "tet4")
        d = DiffusivityField.dispersion(
            DispersionParams(1.0, 0.001, 0.0), np.array([1.0, 1.0, 1.0])
        )
        bc = BoundarySpec(dirichlet={1: given(0.0)}, neumann={2: given(-0.5)})
        return mesh, bc, d, given(0.5)

    def test_constant_problem_assembles_its_level_data_once(self, monkeypatch):
        calls = {"assemble_load": 0, "dirichlet_values": 0}
        for module in (fem, transient):
            for name in calls:
                def counted(*args, raw=getattr(module, name), name=name, **kwargs):
                    calls[name] += 1
                    return raw(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
        mesh, bc, d, source = self.hole_problem(constant=True)
        result = run(mesh, bc, d, source, TransientConfig(dt=0.5, n_steps=4))
        assert len(result.reports) == 4
        assert calls == {"assemble_load": 1, "dirichlet_values": 1}

    @pytest.mark.parametrize("solver", ["galerkin", "tron", "blmvm"])
    def test_callables_of_constants_match_the_constant_run(self, solver, tmp_path):
        cfg = TransientConfig(dt=0.5, n_steps=3, solver=solver)
        runs = {}
        for constant in (True, False):
            mesh, bc, d, source = self.hole_problem(constant)
            prepared = prepare(mesh, bc, d, source, cfg.dt)
            assert (prepared.geometry is None) == constant
            result = solve(prepared, cfg)
            csv = tmp_path / f"{constant}.csv"
            write_step_csv(result, csv, cfg.c_min, cfg.c_max)
            runs[constant] = (
                [f.tobytes() for f in result.fields],
                [dataclasses.replace(r, wall_time=0.0) for r in result.reports],
                (result.ledger.flops, result.ledger.bytes),
                csv.read_bytes(),
            )
        assert runs[True] == runs[False]

    @pytest.mark.parametrize("where, marker", [("source", None), ("dirichlet", 1),
                                               ("neumann", 2)])
    def test_callable_non_finite_after_the_first_level_rejected(self, where, marker):
        nan_later = lambda p, t: np.nan if t > 0 else 0.0  # noqa: E731
        mesh, bc, d, source = self.hole_problem(constant=True)
        if where == "source":
            source = nan_later
        else:
            getattr(bc, where)[marker] = nan_later
        prepared = prepare(mesh, bc, d, source, 0.5)  # t = 0 is finite
        with pytest.raises(ConfigError, match="not finite at t = 0.5"):
            solve(prepared, TransientConfig(dt=0.5, n_steps=2))


class TestLevelCertificate:
    """Each solved level is checked by one product outside the ledger: KKT
    violation for the bounded solvers, relative residual for Galerkin."""

    FUNCTIONS = {"galerkin": "cg_solve", "tron": "solve_tron", "blmvm": "solve_blmvm"}

    @staticmethod
    def run_hole(solver):
        mesh = generate_cube_with_hole(9, "tet4")
        d = DiffusivityField.dispersion(DispersionParams(1.0, 0.001, 0.0), np.ones(3))
        bc = BoundarySpec(dirichlet={1: 0.0, 2: 1.0})
        return run(mesh, bc, d, 0.0, TransientConfig(dt=0.5, n_steps=2, solver=solver))

    @pytest.mark.parametrize("solver", sorted(FUNCTIONS))
    def test_healthy_run_is_within_its_tolerance(self, solver, caplog):
        result = self.run_hole(solver)
        assert len(result.certificates) == 2
        assert all(0.0 <= value <= tol for value, tol in result.certificates)
        assert result.worst_certificate in result.certificates
        assert "certificate" not in caplog.text

    @pytest.mark.parametrize("solver", sorted(FUNCTIONS))
    def test_one_corrupted_entry_fires(self, solver, monkeypatch, caplog):
        """The second level's answer, one entry moved within the bounds, fails
        its certificate and logs a warning; the first level's passes."""
        raw, calls = getattr(transient, self.FUNCTIONS[solver]), []

        def corrupted(*args, **kwargs):
            x, report = raw(*args, **kwargs)
            calls.append(True)
            if len(calls) == 2:
                j = int(np.argmax(np.minimum(x, 1.0 - x)))  # the entry farthest from a bound
                x[j] = 1.0 if x[j] < 0.5 else 0.0
            return x, report

        monkeypatch.setattr(transient, self.FUNCTIONS[solver], corrupted)
        result = self.run_hole(solver)
        (ok, ok_tol), (bad, bad_tol) = result.certificates
        assert ok <= ok_tol and bad > bad_tol
        assert result.worst_certificate == (bad, bad_tol)
        assert f"{solver} at step 2: certificate" in caplog.text

    def test_worst_is_the_largest_multiple_of_its_tolerance_and_nan_above_all(self):
        levels = [(2.0, 1.0), (3e-6, 1e-6), (1e-9, 1e-50), (0.5, 1.0)]
        assert transient.TransientResult(certificates=levels).worst_certificate == (1e-9, 1e-50)
        levels.insert(1, (np.nan, 1.0))
        assert np.isnan(transient.TransientResult(certificates=levels).worst_certificate[0])
