import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nndiff.fem
from nndiff.errors import AssemblyError, ConfigError, SingularTensorError
from nndiff.fem import (
    _STIFFNESS_BLOCK,
    _TET_MASS_REF,
    _cell_pattern,
    DiffusivityField,
    DispersionParams,
    apply_dirichlet,
    assemble,
    assemble_load,
    cell_geometry,
    dirichlet_values,
    dispersion_tensor,
    neumann_load,
    scalar_field,
    _tet_batch,
    _tet_stiffness,
)
from nndiff.mesh import (
    BoundarySpec,
    Mesh,
    boundary_faces,
    generate_box,
    generate_cube_with_hole,
    with_boundary_markers,
)
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

    # the cell-wise path: one still cell with d_m = 0, one moving cell with alpha_t = d_m = 0
    @pytest.mark.parametrize("velocities, params, message", [
        ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], DispersionParams(1.0, 0.1, 0.0), "zero velocity"),
        ([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]], DispersionParams(1.0, 0.0, 0.0), "singular for"),
    ], ids=["still", "moving"])
    def test_singular_cell_velocities(self, velocities, params, message):
        with pytest.raises(SingularTensorError, match=message):
            DiffusivityField.dispersion(params, np.array(velocities))

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            DispersionParams(0.5, 1.0, 0.0)
        with pytest.raises(ConfigError):
            DispersionParams(1.0, 0.5, -1.0)


def one_cell(coords, kind, diffusion=np.eye(3), source=None):
    """The operators of a one-cell mesh of ``coords``: its element integrals.

    ``diffusion`` is a (3, 3) tensor or a ``DiffusivityField``.
    """
    cells = np.arange(len(coords))[None, :]
    facets, _ = boundary_faces(cells, kind)
    mesh = Mesh(coords, cells, kind, facets, np.ones(len(facets), dtype=np.int64))
    if not isinstance(diffusion, DiffusivityField):
        diffusion = DiffusivityField.constant(diffusion)
    # the Dirichlet data enter none of the unreduced operators
    return assemble(mesh, None, BoundarySpec(dirichlet={1: 0.0}), diffusion, source)


class TestElementMatrices:
    def test_unit_tet_stiffness_frozen_oracle(self):
        k = one_cell(UNIT_TET, "tet4").stiffness.to_dense()
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
        k = one_cell(UNIT_TET, "tet4").stiffness.to_dense()
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
            k = one_cell(coords, "tet4", d).stiffness.to_dense()
            assert np.max(np.abs(k - p1_stiffness_oracle(coords, d))) < 1e-12

    def test_hex_stiffness_nullspace(self):
        k = one_cell(UNIT_HEX, "hex8").stiffness.to_dense()
        assert np.max(np.abs(k @ np.ones(8))) < 1e-13
        assert np.max(np.abs(k - k.T)) < 1e-14

    @pytest.mark.parametrize("kind,coords,nq", [("tet4", UNIT_TET, 4),
                                                ("hex8", UNIT_HEX, 8)])
    def test_per_quadrature_point_tensor(self, kind, coords, nq):
        d = np.diag([1.0, 2.0, 0.5])

        def per_point(points):
            assert len(points) == nq  # one cell: one point per quadrature point
            return np.tile(d, (nq, 1, 1))

        k_const = one_cell(coords, kind, d).stiffness.to_dense()
        field = DiffusivityField.from_function(per_point)
        k_per_q = one_cell(coords, kind, field).stiffness.to_dense()
        assert np.max(np.abs(k_const - k_per_q)) < 1e-14

    def test_inverted_tet_raises(self):
        with pytest.raises(AssemblyError, match="cell 0"):
            one_cell(UNIT_TET[[0, 2, 1, 3]], "tet4")

    def test_inverted_hex_names_its_cell(self):
        mesh = generate_box(3, 1, 1, "hex8")
        cells = mesh.cells.copy()
        cells[1] = cells[1][[4, 5, 6, 7, 0, 1, 2, 3]]  # top face below: every det < 0
        bad = dataclasses.replace(mesh, cells=cells)
        with pytest.raises(AssemblyError, match="^non-positive Jacobian determinant in cell 1$"):
            cell_geometry(bad)

    def test_mass_partition_of_unity(self):
        m_tet = one_cell(UNIT_TET, "tet4").mass.to_dense()
        assert abs(m_tet.sum() - 1.0 / 6.0) < 1e-14
        m_hex = one_cell(UNIT_HEX, "hex8").mass.to_dense()
        assert abs(m_hex.sum() - 1.0) < 1e-14

    def test_tet_mass_consistent_pattern(self):
        # V/20 * (2 on the diagonal, 1 off) is the exact P1 mass matrix
        m = one_cell(UNIT_TET, "tet4").mass.to_dense()
        vol = 1.0 / 6.0
        expected = vol / 20.0 * (np.ones((4, 4)) + np.eye(4))
        assert np.max(np.abs(m - expected)) < 1e-14

    def test_hex_mass_exact_entries(self):
        m = one_cell(UNIT_HEX, "hex8").mass.to_dense()
        assert abs(m[0, 0] - 1.0 / 27.0) < 1e-14   # corner with itself
        assert abs(m[0, 1] - 1.0 / 54.0) < 1e-14   # edge neighbors
        assert abs(m[0, 2] - 1.0 / 108.0) < 1e-14  # face diagonal
        assert abs(m[0, 6] - 1.0 / 216.0) < 1e-14  # body diagonal

    def test_load_constant_source(self):
        f = one_cell(UNIT_HEX, "hex8", source=1.0).load
        assert abs(f.sum() - 1.0) < 1e-14
        f_tet = one_cell(UNIT_TET, "tet4", source=2.0).load
        assert abs(f_tet.sum() - 2.0 / 6.0) < 1e-14


def _tet_stiffness_reference(det, grads, d):
    """The four-operand ``einsum`` that the blocked ``_tet_stiffness`` replaced."""
    if d.ndim == 4:
        d = d.mean(axis=1)
    ke = np.einsum("m,mia,mab,mjb->mij", det / 6.0, grads, d, grads)
    return 0.5 * (ke + ke.transpose(0, 2, 1))


def _random_spd(rng, shape):
    """SPD 3x3 tensors of the given leading shape, scales spread over 1e-3..1e3."""
    a = rng.standard_normal(shape + (3, 3))
    scale = 10.0 ** rng.uniform(-3, 3, shape + (1, 1))
    return scale * (a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(3))


_BLOCK_COUNTS = [_STIFFNESS_BLOCK - 1, _STIFFNESS_BLOCK, _STIFFNESS_BLOCK + 1,
                 2 * _STIFFNESS_BLOCK, 2 * _STIFFNESS_BLOCK + 37]


class TestTetStiffnessOracle:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.integers(1, 50), st.sampled_from(_BLOCK_COUNTS)),
        st.sampled_from(["cell", "point", "constant"]),
    )
    @example(0, 1, "cell")
    @example(1, _STIFFNESS_BLOCK, "point")
    @example(2, 2 * _STIFFNESS_BLOCK + 37, "constant")
    def test_blocked_matches_einsum_bit_for_bit(self, seed, m, tensors):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, 4, 3)) * 10.0 ** rng.uniform(-2, 2, (m, 1, 1))
        x += rng.uniform(-5, 5, (m, 1, 3))
        flip = np.linalg.det(x[:, 1:] - x[:, :1]) < 0
        x[flip] = x[flip][:, [0, 2, 1, 3]]  # positive volume
        assume(np.all(np.linalg.det(x[:, 1:] - x[:, :1]) > 0))
        det, grads, which = _tet_batch(x.reshape(-1, 3), np.arange(4 * m).reshape(m, 4))
        assert which is None  # no two random cells share a Jacobian
        if tensors == "cell":
            d = _random_spd(rng, (m,))
        elif tensors == "point":
            d = _random_spd(rng, (m, 4))
        else:
            d = np.broadcast_to(_random_spd(rng, ()), (m, 3, 3))
        ke = _tet_stiffness(det, grads, d)
        assert ke.tobytes() == _tet_stiffness_reference(det, grads, d).tobytes()
        which = rng.integers(0, m, m)  # cells that share shapes, read block by block
        ke = _tet_stiffness(det, grads, d, which)
        assert ke.tobytes() == _tet_stiffness_reference(det[which], grads[which], d).tobytes()


_LAPACK_INV = np.linalg.inv  # unpatched, for the reference


def _per_cell_tet_geometry(vertices, cells):
    """Determinants and gradients from one LAPACK det and inv per cell: the
    reference for ``_tet_batch``, which calls them once per distinct Jacobian.
    Also returns the cell an ``AssemblyError`` names, or None."""
    x = vertices[cells]
    e = x[:, 1:, :] - x[:, :1, :]
    det = np.linalg.det(e)
    if np.any(det <= 0.0):
        return det, None, int(np.argmin(det))
    inv = _LAPACK_INV(e)
    grads = np.empty((len(cells), 4, 3))
    grads[:, 1:, :] = np.transpose(inv, (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return det, grads, None


def _assert_geometry_matches_per_cell(vertices, cells):
    det, grads, bad = _per_cell_tet_geometry(vertices, cells)
    if bad is not None:
        with pytest.raises(AssemblyError, match=f"determinant in cell {bad}$"):
            _tet_batch(vertices, cells)
        return
    got_det, got_grads, which = _tet_batch(vertices, cells)
    assert len(got_det) == len(got_grads) <= len(cells)
    if which is None:  # every cell is its own shape
        assert len(got_det) == len(cells)
        which = np.arange(len(cells))
    else:
        assert which.shape == (len(cells),) and len(got_det) < len(cells)
    assert got_det[which].tobytes() == det.tobytes()
    assert got_grads[which].tobytes() == grads.tobytes()


def _lapack_inv_sizes(monkeypatch):
    """Patch ``np.linalg.inv`` as ``fem`` calls it; the list gets the number
    of matrices of every call."""
    sizes, inv = [], np.linalg.inv

    def counting_inv(a):
        sizes.append(len(a))
        return inv(a)

    monkeypatch.setattr(nndiff.fem.np.linalg, "inv", counting_inv)
    return sizes


def _repeated_shape_cells(seed, n_shapes, n_cells, copies):
    """(vertices, cells): cells drawn from a few tets, each tet's vertices
    stored ``copies`` times, so equal Jacobians arise from repeated and from
    distinct vertex indices; most volumes are positive, some are inverted or
    zero."""
    rng = np.random.default_rng(seed)
    shapes = rng.standard_normal((n_shapes, 4, 3)) * 10.0 ** rng.uniform(-2, 2, (n_shapes, 1, 1))
    flip = np.linalg.det(shapes[:, 1:] - shapes[:, :1]) < 0
    flip ^= rng.random(n_shapes) < 0.1  # mostly positive volumes, some inverted
    shapes[flip] = shapes[flip][:, [0, 2, 1, 3]]
    flat = rng.random(n_shapes) < 0.1
    shapes[flat, 3] = shapes[flat, 0]
    vertices = np.tile(shapes.reshape(-1, 3), (copies, 1))
    which = rng.integers(0, n_shapes, n_cells)
    copy = rng.integers(0, copies, n_cells)
    return vertices, (4 * (copy * n_shapes + which))[:, None] + np.arange(4)


def _jittered_hole_mesh(n, seed=0):
    """The cube with a hole with every vertex moved by up to 2 % of the
    spacing: orientation is kept and no two Jacobians are equal."""
    mesh = generate_cube_with_hole(n, "tet4")
    jitter = np.random.default_rng(seed).uniform(-0.02, 0.02, mesh.vertices.shape) / n
    return mesh.vertices + jitter, mesh.cells


class TestTetGeometryOncePerShape:
    @pytest.mark.parametrize("n", [9, 18])
    def test_cube_with_hole_bit_equal_to_per_cell(self, n):
        mesh = generate_cube_with_hole(n, "tet4")
        _assert_geometry_matches_per_cell(mesh.vertices, mesh.cells)

    def test_all_distinct_jacobians_bit_equal(self, monkeypatch):
        vertices, cells = _jittered_hole_mesh(9)
        e = vertices[cells[:, 1:]] - vertices[cells[:, :1]]
        assert len(np.unique(e.reshape(len(e), 9), axis=0)) == len(cells)
        sizes = _lapack_inv_sizes(monkeypatch)
        _assert_geometry_matches_per_cell(vertices, cells)
        assert sizes == [len(cells)]

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 60),
           st.integers(1, 3))
    def test_repeated_cells_bit_equal_or_same_error(self, seed, n_shapes, n_cells, copies):
        """A negative or zero volume must name the same cell."""
        _assert_geometry_matches_per_cell(*_repeated_shape_cells(seed, n_shapes, n_cells, copies))

    def test_hash_collision_treats_every_cell_as_distinct(self, monkeypatch):
        mesh = generate_cube_with_hole(9, "tet4")
        monkeypatch.setattr(nndiff.fem, "_JACOBIAN_HASH", np.zeros(9, dtype=np.uint64))
        sizes = _lapack_inv_sizes(monkeypatch)
        _assert_geometry_matches_per_cell(mesh.vertices, mesh.cells)
        assert sizes == [mesh.n_cells]

    @staticmethod
    def two_cells_of_one_shape(vertices, cells):
        e = (vertices[cells[:, 1:]] - vertices[cells[:, :1]]).reshape(len(cells), 9)
        same = np.flatnonzero((e == e[7]).all(axis=1))
        assert len(same) >= 2
        return same[:2]

    def test_inverted_cells_name_the_same_cell(self, monkeypatch):
        """Two inverted cells of one shape tie at the smallest determinant:
        the lower index is named, and no inverse is formed."""
        mesh = generate_box(3, 3, 3, "tet4")
        cells = mesh.cells.copy()
        j, k = self.two_cells_of_one_shape(mesh.vertices, cells)
        cells[[k, j]] = cells[[k, j]][:, [0, 2, 1, 3]]
        sizes = _lapack_inv_sizes(monkeypatch)
        assert _per_cell_tet_geometry(mesh.vertices, cells)[2] == j
        _assert_geometry_matches_per_cell(mesh.vertices, cells)
        assert sizes == []

    def test_flat_cell_names_the_same_cell(self, monkeypatch):
        """A repeated vertex gives det = 0: the cell is named, and LAPACK's
        inverse never sees the singular matrix."""
        mesh = generate_box(3, 3, 3, "tet4")
        cells = mesh.cells.copy()
        j = self.two_cells_of_one_shape(mesh.vertices, cells)[1]
        cells[j, 3] = cells[j, 0]
        sizes = _lapack_inv_sizes(monkeypatch)
        assert _per_cell_tet_geometry(mesh.vertices, cells)[2] == j
        _assert_geometry_matches_per_cell(mesh.vertices, cells)
        assert sizes == []

    def test_lapack_sees_each_distinct_jacobian_once(self, monkeypatch):
        mesh = generate_cube_with_hole(27, "tet4")
        sizes = _lapack_inv_sizes(monkeypatch)
        geometry = cell_geometry(mesh)
        assert mesh.n_cells == 117_936 and sizes == [162]
        assert geometry.grads.shape == (162, 4, 3) and geometry.det.shape == (162,)
        assert geometry.which.shape == (117_936,)

    def test_peak_memory_at_most_twice_what_is_kept(self, monkeypatch):
        """The traced peak of ``cell_geometry`` is twice what the geometry
        keeps, plus the search for distinct Jacobians: every cell's Jacobian
        (72 B) and five 8 B arrays for its hash key and their sort.  Once the
        search returns, the peak stays within twice what is kept: no per-cell
        determinant or gradient array is formed."""
        mesh = generate_cube_with_hole(18, "tet4")
        group, search = nndiff.fem._distinct_jacobians, []

        def grouped(vertices, cells):
            out = group(vertices, cells)
            search.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return out

        monkeypatch.setattr(nndiff.fem, "_distinct_jacobians", grouped)
        tracemalloc.start()
        try:
            geometry = cell_geometry(mesh)
            after = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = geometry.det.nbytes + geometry.grads.nbytes + geometry.which.nbytes
        peak = max(search + [after])
        assert peak <= 2 * kept + mesh.n_cells * (72 + 5 * 8), (peak, kept)
        assert after <= 2 * kept, (after, kept)


def _assembled(mesh, diffusivity, bc):
    """Bytes of the stiffness, capacity and load of ``assemble``, or the
    message of its ``AssemblyError``."""
    try:
        s = assemble(mesh, None, bc, diffusivity, source=lambda p, t: 1.0 + p[:, 0])
    except AssemblyError as exc:
        return str(exc)
    return [a.tobytes() for a in (s.stiffness.row_offsets, s.stiffness.col_indices,
                                  s.stiffness.values, s.mass.values, s.load)]


def _as_cell_tensors(tensor, n_cells):
    """One tensor copied to every cell: ``assemble`` takes its per-cell path."""
    return DiffusivityField.from_cell_tensors(np.broadcast_to(tensor, (n_cells, 3, 3)))


class TestTetElementMatricesOncePerShape:
    """A constant tensor's element stiffness and capacity are formed once per
    distinct Jacobian and gathered to the cells; per-cell tensors read each
    cell's shape block by block.  Both give the same bytes."""

    TENSOR = dispersion_tensor(np.ones(3), DispersionParams(1.0, 0.001, 0.0))
    BC = BoundarySpec(dirichlet={1: 0.0, 2: 1.0})

    @pytest.mark.parametrize("n, jittered", [(9, False), (18, False), (9, True)])
    def test_constant_tensor_bit_equal_to_the_same_tensor_per_cell(self, n, jittered):
        mesh = generate_cube_with_hole(n, "tet4")
        if jittered:  # no Jacobian repeats
            mesh = dataclasses.replace(mesh, vertices=_jittered_hole_mesh(n)[0])
        shapes = len(cell_geometry(mesh).det)
        assert shapes == mesh.n_cells if jittered else shapes < mesh.n_cells // 10
        constant = _assembled(mesh, DiffusivityField.constant(self.TENSOR), self.BC)
        assert constant == _assembled(mesh, _as_cell_tensors(self.TENSOR, mesh.n_cells), self.BC)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 60),
           st.integers(1, 3))
    def test_repeated_shapes_bit_equal_or_same_error(self, seed, n_shapes, n_cells, copies):
        """Repeated, inverted and flat shapes: the per-shape and per-cell paths
        give the bytes of a per-cell LAPACK and einsum reference, or the same
        named-cell error."""
        vertices, cells = _repeated_shape_cells(seed, n_shapes, n_cells, copies)
        mesh = Mesh(vertices, cells, "tet4", cells[:1, :3], [1])
        bc = BoundarySpec(dirichlet={1: 0.0})
        d = _random_spd(np.random.default_rng(seed), ())
        d = 0.5 * (d + d.T)
        constant = _assembled(mesh, DiffusivityField.constant(d), bc)
        assert constant == _assembled(mesh, _as_cell_tensors(d, n_cells), bc)
        det, grads, bad = _per_cell_tet_geometry(vertices, cells)
        if bad is not None:
            assert constant == f"non-positive Jacobian determinant in cell {bad}"
            return
        pattern = _cell_pattern(len(vertices), cells)
        ke = _tet_stiffness_reference(det, grads, np.broadcast_to(d, (n_cells, 3, 3)))
        assert constant[2] == pattern.matrix(ke).values.tobytes()
        assert constant[3] == pattern.matrix(det[:, None, None] * _TET_MASS_REF).values.tobytes()

    @pytest.mark.parametrize("per_cell, rows", [(False, [162]), (True, [117_936])])
    def test_stiffness_kernel_rows_at_n27(self, monkeypatch, per_cell, rows):
        mesh = generate_cube_with_hole(27, "tet4")
        seen, kernel = [], nndiff.fem._tet_stiffness

        def counting(det, grads, d, which=None):
            seen.append(len(d))
            return kernel(det, grads, d, which)

        monkeypatch.setattr(nndiff.fem, "_tet_stiffness", counting)
        field = (_as_cell_tensors(self.TENSOR, mesh.n_cells) if per_cell
                 else DiffusivityField.constant(self.TENSOR))
        assemble(mesh, None, self.BC, field)
        assert seen == rows


@pytest.fixture
def anisotropic_d():
    return DiffusivityField.constant(np.diag([1.0, 0.001, 0.001]))


class TestAssemble:
    @pytest.mark.parametrize("kind", ["tet4", "hex8"])
    @pytest.mark.parametrize("value", [None, 0.0, 2.5, -1])
    def test_constant_source_load_matches_callable_bit_for_bit(self, kind, value):
        mesh = generate_box(2, 3, 2, kind)
        bc = BoundarySpec(dirichlet={1: 0.0})
        const = assemble_load(mesh, value, bc, t=0.3)
        sampled = assemble_load(mesh, lambda p, t: float(value or 0.0), bc, t=0.3)
        assert const.tobytes() == sampled.tobytes()

    def test_stiffness_symmetry(self, anisotropic_d):
        mesh = generate_box(3, 3, 3, "tet4")
        bc = BoundarySpec(dirichlet={1: 0.0})
        system = assemble(mesh, None, bc, anisotropic_d)
        k = system.stiffness
        kt = k.transpose()
        assert np.array_equal(k.col_indices, kt.col_indices)
        assert np.abs(k.values - kt.values).max() <= 1e-12 * np.abs(k.values).max()

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

    def test_vertex_of_two_markers_with_one_value_listed_once(self):
        mesh = with_boundary_markers(generate_box(2, 2, 2, "hex8"),
                                     lambda centroids: np.where(centroids[:, 0] < 0.5, 1, 2))
        idx, vals = dirichlet_values(mesh, BoundarySpec(dirichlet={1: 0.5, 2: 0.5}))
        # all 26 boundary vertices once each, the x = 0.5 ones shared by both markers
        assert np.array_equal(idx, np.unique(mesh.boundary_facets))
        assert len(idx) == 26
        assert np.array_equal(vals, np.full(26, 0.5))


class TestDiffusivityField:
    def test_cellwise_velocities(self):
        v = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        p = DispersionParams(1.0, 0.1, 0.0)
        d = DiffusivityField.dispersion(p, v).tensors
        assert np.allclose(d[0], dispersion_tensor(v[0], p))
        assert np.allclose(d[1], dispersion_tensor(v[1], p))

    def test_too_many_cell_tensors(self):
        mesh = generate_box(1, 1, 1, "tet4")  # 6 cells
        field = DiffusivityField.dispersion(DispersionParams(1.0, 0.1, 0.0), np.ones((9, 3)))
        with pytest.raises(ConfigError, match="9 cell tensors given for a mesh of 6 cells"):
            assemble(mesh, None, BoundarySpec(dirichlet={1: 0.0}), field)

    def test_too_few_cell_tensors(self):
        mesh = generate_box(1, 1, 1, "tet4")
        field = DiffusivityField.from_cell_tensors(np.tile(np.eye(3), (4, 1, 1)))
        with pytest.raises(ConfigError, match="4 cell tensors given for a mesh of 6 cells"):
            assemble(mesh, None, BoundarySpec(dirichlet={1: 0.0}), field)

    def test_cell_tensors_shape_checked(self):
        with pytest.raises(ConfigError, match=r"\(n_cells, 3, 3\), got \(6, 3\)"):
            DiffusivityField.from_cell_tensors(np.ones((6, 3)))

    def test_constant_tensor_shape_checked(self):
        with pytest.raises(ConfigError, match=r"constant tensor must be 3x3, got \(2, 2\)"):
            DiffusivityField.constant(np.eye(2))

    def test_rejects_non_finite_cell_tensor(self):
        mesh = generate_box(1, 1, 1, "tet4")
        tensors = np.tile(np.eye(3), (mesh.n_cells, 1, 1))
        tensors[3, 1, 1] = np.inf
        with pytest.raises(AssemblyError, match="non-finite entry"):
            assemble(mesh, None, BoundarySpec(dirichlet={1: 0.0}),
                     DiffusivityField.from_cell_tensors(tensors))

    @pytest.mark.parametrize("value, message", [
        ("abc", "flux must be a number, not 'abc'"),
        (lambda p, t: np.ones((len(p), 2)), r"flux returned shape \(4, 2\) for 4 points"),
    ], ids=["non-number", "wrong-shape"])
    def test_scalar_field_rejects_a_bad_value(self, value, message):
        with pytest.raises(ConfigError, match=message):
            scalar_field(value, "flux")(np.zeros((4, 3)), 0.0)

    def test_holds_tensors_or_a_function(self):
        with pytest.raises(ConfigError, match="either tensors or a function"):
            DiffusivityField()
        with pytest.raises(ConfigError, match="either tensors or a function"):
            DiffusivityField(np.eye(3), lambda pts: np.tile(np.eye(3), (len(pts), 1, 1)))

    def test_function_shape_checked(self):
        mesh = generate_box(1, 1, 1, "hex8")
        field = DiffusivityField.from_function(lambda pts: np.ones((len(pts), 9)))
        with pytest.raises(ConfigError, match=r"returned shape \(8, 9\)"):
            assemble(mesh, None, BoundarySpec(dirichlet={1: 0.0}), field)

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

    def test_rejects_asymmetric_constant_tensor(self):
        mesh = generate_box(1, 1, 1, "tet4")
        bad = DiffusivityField.constant([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        bc = BoundarySpec(dirichlet={1: 0.0})
        with pytest.raises(AssemblyError, match="asymmetry 0.5 exceeds"):
            assemble(mesh, None, bc, bad)

    def test_constant_tensor_checked_once(self, monkeypatch):
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            seen.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        mesh = generate_box(3, 3, 3, "tet4")
        field = DiffusivityField.constant(np.diag([1.0, 0.001, 0.001]))
        assemble(mesh, None, BoundarySpec(dirichlet={1: 0.0}), field)
        assert seen == [(1, 3, 3)]

    def test_one_indefinite_cell_among_many(self):
        mesh = generate_box(3, 3, 3, "tet4")
        tensors = np.tile(np.eye(3), (mesh.n_cells, 1, 1))
        tensors[mesh.n_cells // 2] = np.diag([1.0, -0.1, 1.0])
        bad = DiffusivityField.from_cell_tensors(tensors)
        bc = BoundarySpec(dirichlet={1: 0.0})
        with pytest.raises(AssemblyError, match="positive definite .min eigenvalue -0.1"):
            assemble(mesh, None, bc, bad)

    def test_rejects_indefinite_tensor(self):
        mesh = generate_box(1, 1, 1, "tet4")
        bad = DiffusivityField.constant(np.diag([1.0, -0.1, 1.0]))
        bc = BoundarySpec(dirichlet={1: 0.0})
        with pytest.raises(AssemblyError, match="positive definite"):
            assemble(mesh, None, bc, bad)
