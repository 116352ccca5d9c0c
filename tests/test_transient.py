import numpy as np
import pytest

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
    run,
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

    def test_steady_skips_dt_check(self):
        cfg = TransientConfig(steady=True, dt=-1.0)
        assert cfg.steady


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
        cfg = TransientConfig(steady=True, rtol=1e-12)
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
        red = apply_dirichlet(system)
        from nndiff.transient import build_transient_operator, build_transient_rhs
        from nndiff.fem import reduce_rhs

        ktilde = build_transient_operator(system.stiffness, system.mass, dt)
        ftilde = build_transient_rhs(system.load, system.mass, result.fields[0], dt)
        rhs = reduce_rhs(ktilde, ftilde, red.free, red.lift())
        problem = QpProblem(ktilde.submatrix(red.free), -rhs, lower=0.0, upper=1.0)
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

    def test_on_step_callback_and_csv(self, tmp_path):
        mesh, bc = small_problem()
        cfg = TransientConfig(dt=0.1, n_steps=3, initial_value=0.0)
        seen = []
        result = run(mesh, bc, ISO, 0.0, cfg,
                     on_step=lambda k, t, c, rep: seen.append((k, t)))
        assert seen == [(1, 0.1), (2, pytest.approx(0.2)), (3, pytest.approx(0.3))]
        path = tmp_path / "steps.csv"
        write_step_csv(result, path, 0.0, 1.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,iterations,min_c,max_c,violations,flops,bytes"
        assert len(lines) == 4
