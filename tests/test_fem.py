import numpy as np
import pytest

from nndiff.errors import AssemblyError, ConfigError, SingularTensorError
from nndiff.fem import (
    DiffusivityField,
    DispersionParams,
    apply_dirichlet,
    assemble,
    dirichlet_values,
    dispersion_tensor,
    element_load,
    element_mass,
    element_stiffness,
    neumann_load,
)
from nndiff.mesh import BoundarySpec, generate_box, with_boundary_markers
from nndiff.sparse import cg_solve

UNIT_TET = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
UNIT_HEX = np.array(
    [
        [0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
    ]
)


def p1_stiffness_oracle(coords, d):
    """Exact P1 stiffness by hand integration: V * G D G^T.

    Basis gradients come from inverting the [1 x y z] coordinate matrix,
    independent of the quadrature path.
    """
    a = np.hstack([np.ones((4, 1)), coords])
    coeffs = np.linalg.inv(a)  # row 1..3 of column i: gradient of basis i
    grads = coeffs[1:, :].T  # (4, 3)
    vol = abs(np.linalg.det(a)) / 6.0
    return vol * grads @ d @ grads.T


class TestDispersionTensor:
    def test_axis_aligned(self):
        p = DispersionParams(1.0, 0.001, 0.0)
        d = dispersion_tensor([1.0, 0.0, 0.0], p)
        assert np.allclose(d, np.diag([1.0, 0.001, 0.001]), atol=1e-15)

    def test_zero_velocity_limit(self):
        p = DispersionParams(100.0, 0.1, 1e-9)
        assert np.allclose(dispersion_tensor([0, 0, 0], p), 1e-9 * np.eye(3))

    def test_isotropic_dispersivities(self):
        alpha = 0.25
        p = DispersionParams(alpha, alpha, 0.0)
        d = dispersion_tensor([1.0, 1.0, 1.0], p)
        assert np.allclose(d, alpha * np.sqrt(3.0) * np.eye(3))

    def test_eigenstructure(self):
        p = DispersionParams(2.0, 0.01, 1e-3)
        v = np.array([1.0, 2.0, -1.0])
        d = dispersion_tensor(v, p)
        speed = np.linalg.norm(v)
        assert np.allclose(d @ v, (p.alpha_l * speed + p.d_m) * v)
        w = np.array([2.0, -1.0, 0.0])  # orthogonal to v
        assert np.allclose(d @ w, (p.alpha_t * speed + p.d_m) * w)

    def test_singular_cases(self):
        with pytest.raises(SingularTensorError):
            dispersion_tensor([0, 0, 0], DispersionParams(1.0, 0.0, 0.0))
        with pytest.raises(SingularTensorError):
            dispersion_tensor([1, 0, 0], DispersionParams(1.0, 0.0, 0.0))

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            DispersionParams(0.5, 1.0, 0.0)
        with pytest.raises(ConfigError):
            DispersionParams(1.0, 0.5, -1.0)


class TestElementMatrices:
    def test_unit_tet_stiffness_frozen_oracle(self):
        k = element_stiffness(UNIT_TET, np.eye(3), "tet4")
        expected = (1.0 / 6.0) * np.array(
            [
                [3.0, -1.0, -1.0, -1.0],
                [-1.0, 1.0, 0.0, 0.0],
                [-1.0, 0.0, 1.0, 0.0],
                [-1.0, 0.0, 0.0, 1.0],
            ]
        )
        assert np.max(np.abs(k - expected)) < 1e-12
        assert np.allclose(np.diag(k), [0.5, 1 / 6, 1 / 6, 1 / 6])

    def test_tet_stiffness_nullspace_and_rank(self):
        k = element_stiffness(UNIT_TET, np.eye(3), "tet4")
        assert np.max(np.abs(k @ np.ones(4))) < 1e-14
        assert np.linalg.matrix_rank(k, tol=1e-12) == 3

    def test_random_tets_match_hand_integration(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            coords = UNIT_TET + 0.3 * rng.standard_normal((4, 3))
            if np.linalg.det(coords[1:] - coords[0]) <= 0:
                coords = coords[[0, 2, 1, 3]]
            d_raw = rng.standard_normal((3, 3))
            d = d_raw @ d_raw.T + 3 * np.eye(3)
            k = element_stiffness(coords, d, "tet4")
            assert np.max(np.abs(k - p1_stiffness_oracle(coords, d))) < 1e-12

    def test_hex_stiffness_nullspace(self):
        k = element_stiffness(UNIT_HEX, np.eye(3), "hex8")
        assert np.max(np.abs(k @ np.ones(8))) < 1e-13
        assert np.max(np.abs(k - k.T)) < 1e-14

    @pytest.mark.parametrize("kind,coords,nq", [("tet4", UNIT_TET, 4),
                                                ("hex8", UNIT_HEX, 8)])
    def test_per_quadrature_point_tensor(self, kind, coords, nq):
        d = np.diag([1.0, 2.0, 0.5])
        k_const = element_stiffness(coords, d, kind)
        k_per_q = element_stiffness(coords, np.tile(d, (nq, 1, 1)), kind)
        assert np.max(np.abs(k_const - k_per_q)) < 1e-14

    def test_inverted_tet_raises(self):
        with pytest.raises(AssemblyError, match="cell 0"):
            element_stiffness(UNIT_TET[[0, 2, 1, 3]], np.eye(3), "tet4")

    def test_mass_partition_of_unity(self):
        m_tet = element_mass(UNIT_TET, "tet4")
        assert abs(m_tet.sum() - 1.0 / 6.0) < 1e-14
        m_hex = element_mass(UNIT_HEX, "hex8")
        assert abs(m_hex.sum() - 1.0) < 1e-14

    def test_tet_mass_consistent_pattern(self):
        # V/20 * (2 on the diagonal, 1 off) is the exact P1 mass matrix
        m = element_mass(UNIT_TET, "tet4")
        vol = 1.0 / 6.0
        expected = vol / 20.0 * (np.ones((4, 4)) + np.eye(4))
        assert np.max(np.abs(m - expected)) < 1e-14

    def test_hex_mass_exact_entries(self):
        m = element_mass(UNIT_HEX, "hex8")
        assert abs(m[0, 0] - 1.0 / 27.0) < 1e-14   # corner with itself
        assert abs(m[0, 1] - 1.0 / 54.0) < 1e-14   # edge neighbors
        assert abs(m[0, 2] - 1.0 / 108.0) < 1e-14  # face diagonal
        assert abs(m[0, 6] - 1.0 / 216.0) < 1e-14  # body diagonal

    def test_load_constant_source(self):
        f = element_load(UNIT_HEX, 1.0, "hex8")
        assert abs(f.sum() - 1.0) < 1e-14
        f_tet = element_load(UNIT_TET, 2.0, "tet4")
        assert abs(f_tet.sum() - 2.0 / 6.0) < 1e-14


@pytest.fixture
def anisotropic_d():
    return DiffusivityField.constant(np.diag([1.0, 0.001, 0.001]))


class TestAssemble:
    def test_stiffness_symmetry(self, anisotropic_d):
        mesh = generate_box(3, 3, 3, "tet4")
        bc = BoundarySpec(dirichlet={1: 0.0})
        system = assemble(mesh, None, bc, anisotropic_d)
        k = system.stiffness
        kt = k.transpose()
        assert np.array_equal(k.col_indices, kt.col_indices)
        assert np.abs(k.values - kt.values).max() <= 1e-12 * k.max_abs()

    def test_load_integral_of_unit_source(self):
        mesh = generate_box(3, 3, 3, "tet4")
        bc = BoundarySpec(dirichlet={1: 0.0})
        system = assemble(mesh, None, bc, DiffusivityField.constant(np.eye(3)),
                          source=1.0)
        assert abs(system.load.sum() - 1.0) < 1e-12

    def test_mass_conservation(self):
        for kind in ("tet4", "hex8"):
            mesh = generate_box(2, 3, 2, kind)
            bc = BoundarySpec(dirichlet={1: 0.0})
            system = assemble(mesh, None, bc, DiffusivityField.constant(np.eye(3)))
            assert abs(system.mass.values.sum() - 1.0) < 1e-10

    def test_unknown_marker(self):
        mesh = generate_box(2, 2, 2, "tet4")
        bc = BoundarySpec(dirichlet={5: 0.0})
        with pytest.raises(ConfigError, match="marker 5"):
            assemble(mesh, None, bc, DiffusivityField.constant(np.eye(3)))

    @pytest.mark.parametrize("kind", ["tet4", "hex8"])
    def test_patch_test_linear_reproduction(self, kind):
        # constant anisotropic D + linear boundary data => exact linear field
        mesh = generate_box(3, 2, 2, kind)
        grad = np.array([1.5, -0.75, 0.25])

        def exact(points, t=0.0):
            return points @ grad + 0.3

        bc = BoundarySpec(dirichlet={1: exact})
        d_raw = np.array([[1.0, 0.2, 0.1], [0.2, 0.5, 0.0], [0.1, 0.0, 0.25]])
        system = assemble(mesh, None, bc, DiffusivityField.constant(d_raw))
        red = apply_dirichlet(system)
        x, rep = cg_solve(red.matrix, red.rhs, rtol=1e-13)
        assert rep.converged
        full = red.expand(x)
        assert np.max(np.abs(full - exact(mesh.vertices))) < 1e-10

    def test_two_cell_linear_interpolant(self):
        mesh = generate_box(2, 1, 1, "hex8")

        def ends(points, t=0.0):
            return points[:, 0]  # 0 at x=0, 1 at x=1, linear between

        bc = BoundarySpec(dirichlet={1: ends})
        system = assemble(mesh, None, bc, DiffusivityField.constant(np.eye(3)))
        red = apply_dirichlet(system)
        x, _ = cg_solve(red.matrix, red.rhs, rtol=1e-13)
        full = red.expand(x)
        assert np.max(np.abs(full - mesh.vertices[:, 0])) < 1e-10

    def test_residual_equals_matrix_action(self, anisotropic_d):
        # the Dirichlet-reduced residual is the full residual K c - f on the
        # free rows, for any c that carries the Dirichlet values
        mesh = generate_box(2, 2, 2, "tet4")

        def ramp(points, t=0.0):
            return 0.5 + points[:, 1]

        bc = BoundarySpec(dirichlet={1: ramp})
        system = assemble(mesh, None, bc, anisotropic_d, source=1.0)
        red = apply_dirichlet(system)
        rng = np.random.default_rng(0)
        for _ in range(3):
            x = rng.standard_normal(len(red.free))
            c = red.expand(x)
            full = system.stiffness.matvec_raw(c) - system.load
            reduced = red.matrix.matvec_raw(x) - red.rhs
            assert np.max(np.abs(full[red.free] - reduced)) < 1e-12

    def test_jacobian_matches_finite_differences(self):
        # independent energy E(c) = sum over cells of V (g.D g / 2 - s mean(c)),
        # g the P1 gradient from the vertex coordinates: its finite-difference
        # gradient is K c - f and its finite-difference Hessian is K
        mesh = generate_box(2, 2, 2, "tet4")
        d = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
        s = 0.5
        bc = BoundarySpec(dirichlet={1: 0.0})
        system = assemble(mesh, None, bc, DiffusivityField.constant(d), source=s)
        k = system.stiffness.to_dense()
        a = np.concatenate(
            [np.ones((mesh.n_cells, 4, 1)), mesh.vertices[mesh.cells]], axis=2
        )
        grads = np.linalg.inv(a)[:, 1:, :]  # (cells, 3, 4)
        vol = np.abs(np.linalg.det(a)) / 6.0

        def energy(c):
            g = np.einsum("mai,mi->ma", grads, c[mesh.cells])
            flux = 0.5 * np.einsum("ma,ab,mb->m", g, d, g)
            return float(np.sum(vol * (flux - s * c[mesh.cells].mean(axis=1))))

        rng = np.random.default_rng(42)
        n = mesh.n_vertices
        eye = np.eye(n)
        h = 1e-2
        for _ in range(3):
            c = rng.standard_normal(n)
            fd_grad = np.array([
                (energy(c + h * eye[i]) - energy(c - h * eye[i])) / (2 * h)
                for i in range(n)
            ])
            residual = k @ c - system.load
            assert np.max(np.abs(fd_grad - residual)) < 1e-8
            for j in rng.choice(n, size=6, replace=False):
                fd_col = np.array([
                    (energy(c + h * (eye[i] + eye[j]))
                     - energy(c + h * (eye[i] - eye[j]))
                     - energy(c - h * (eye[i] - eye[j]))
                     + energy(c - h * (eye[i] + eye[j]))) / (4 * h * h)
                    for i in range(n)
                ])
                denom = max(np.abs(k[:, j]).max(), 1.0)
                assert np.max(np.abs(fd_col - k[:, j])) / denom < 1e-6

    def test_global_stiffness_matches_summed_element_oracle(self):
        # independent oracle: sum the hand-integrated P1 element matrices
        mesh = generate_box(2, 3, 2, "tet4")
        d = dispersion_tensor([1.0, 1.0, 1.0], DispersionParams(1.0, 0.001, 0.0))
        bc = BoundarySpec(dirichlet={1: 0.0})
        system = assemble(mesh, None, bc, DiffusivityField.constant(d))
        expected = np.zeros((mesh.n_vertices, mesh.n_vertices))
        for cell in mesh.cells:
            expected[np.ix_(cell, cell)] += p1_stiffness_oracle(mesh.vertices[cell], d)
        assert np.max(np.abs(system.stiffness.to_dense() - expected)) < 1e-12

    def test_neumann_linear_profile(self):
        # c(0)=0 Dirichlet at x=0, prescribed flux at x=1; exact c = g*x
        mesh = generate_box(4, 1, 1, "hex8")

        def classify(centroids):
            out = np.full(len(centroids), 3)
            out[np.abs(centroids[:, 0]) < 1e-12] = 1
            out[np.abs(centroids[:, 0] - 1.0) < 1e-12] = 2
            return out

        mesh = with_boundary_markers(mesh, classify)
        g = 0.75
        # q_p = -n . D grad c = -g on the x=1 face for c = g*x, D = I
        bc = BoundarySpec(dirichlet={1: 0.0}, neumann={2: -g, 3: 0.0})
        system = assemble(mesh, None, bc, DiffusivityField.constant(np.eye(3)))
        red = apply_dirichlet(system)
        x, _ = cg_solve(red.matrix, red.rhs, rtol=1e-13)
        full = red.expand(x)
        assert np.max(np.abs(full - g * mesh.vertices[:, 0])) < 1e-10

    def test_neumann_load_integral(self):
        # outward flux 2.5 over one unit face drains the load by 2.5
        mesh = generate_box(3, 3, 3, "tet4")

        def classify(centroids):
            return np.where(np.abs(centroids[:, 2] - 1.0) < 1e-12, 2, 1)

        mesh = with_boundary_markers(mesh, classify)
        bc = BoundarySpec(dirichlet={1: 0.0}, neumann={2: 2.5})
        f = neumann_load(mesh, bc)
        assert abs(f.sum() + 2.5) < 1e-12


class TestApplyDirichlet:
    def test_all_dirichlet_empty_reduction(self):
        mesh = generate_box(1, 1, 1, "hex8")
        bc = BoundarySpec(dirichlet={1: 0.25})
        system = assemble(mesh, None, bc, DiffusivityField.constant(np.eye(3)))
        red = apply_dirichlet(system)
        assert red.matrix.n == 0
        full = red.expand(np.empty(0))
        assert np.allclose(full, 0.25)

    def test_constant_boundary_gives_constant_field(self):
        mesh = generate_box(3, 3, 3, "tet4")
        gamma = 1.7
        bc = BoundarySpec(dirichlet={1: gamma})
        system = assemble(mesh, None, bc, DiffusivityField.constant(np.eye(3)))
        red = apply_dirichlet(system)
        x, _ = cg_solve(red.matrix, red.rhs, rtol=1e-13)
        assert np.max(np.abs(red.expand(x) - gamma)) < 1e-10

    def test_reduced_matrix_spd(self, anisotropic_d):
        mesh = generate_box(3, 3, 3, "tet4")  # 64 vertices
        bc = BoundarySpec(dirichlet={1: 0.0})
        system = assemble(mesh, None, bc, anisotropic_d)
        red = apply_dirichlet(system)
        dense = red.matrix.to_dense()
        assert np.max(np.abs(dense - dense.T)) < 1e-14
        assert np.linalg.eigvalsh(dense).min() > 0

    def test_conflicting_dirichlet_values(self):
        mesh = generate_box(2, 2, 2, "hex8")

        def classify(centroids):
            return np.where(centroids[:, 0] < 0.5, 1, 2)

        mesh = with_boundary_markers(mesh, classify)
        bc = BoundarySpec(dirichlet={1: 0.0, 2: 1.0})  # shared vertices conflict
        with pytest.raises(ConfigError, match="conflicting Dirichlet"):
            dirichlet_values(mesh, bc)


class TestDiffusivityField:
    def test_cellwise_velocities(self):
        v = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        p = DispersionParams(1.0, 0.1, 0.0)
        field = DiffusivityField.dispersion(p, v)
        d = field.evaluate(np.zeros((2, 3)), cells=[0, 1])
        assert np.allclose(d[0], dispersion_tensor(v[0], p))
        assert np.allclose(d[1], dispersion_tensor(v[1], p))

    def test_rejects_asymmetric_tensor(self):
        mesh = generate_box(1, 1, 1, "tet4")
        bad = DiffusivityField.from_function(
            lambda pts: np.tile(np.array([[1.0, 0.5, 0.0],
                                          [0.0, 1.0, 0.0],
                                          [0.0, 0.0, 1.0]]), (len(pts), 1, 1))
        )
        bc = BoundarySpec(dirichlet={1: 0.0})
        with pytest.raises(AssemblyError, match="asymmetry"):
            assemble(mesh, None, bc, bad)

    def test_rejects_indefinite_tensor(self):
        mesh = generate_box(1, 1, 1, "tet4")
        bad = DiffusivityField.constant(np.diag([1.0, -0.1, 1.0]))
        bc = BoundarySpec(dirichlet={1: 0.0})
        with pytest.raises(AssemblyError, match="positive definite"):
            assemble(mesh, None, bc, bad)
