import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nndiff.errors import ConfigError, MeshError
from nndiff.mesh import (
    BoundarySpec,
    Mesh,
    boundary_faces,
    cell_volumes,
    generate_box,
    generate_cube_with_hole,
    refine_uniform,
    tet_signed_volumes,
    with_boundary_markers,
)


class TestGenerateBox:
    def test_single_hex(self):
        m = generate_box(1, 1, 1, "hex8")
        assert m.n_cells == 1
        assert m.n_vertices == 8
        assert len(m.boundary_facets) == 6

    def test_single_hex_as_tets(self):
        m = generate_box(1, 1, 1, "tet4")
        assert m.n_cells == 6
        assert m.n_vertices == 8
        assert len(m.boundary_facets) == 12

    def test_2x2x2_hex(self):
        m = generate_box(2, 2, 2, "hex8")
        assert m.n_cells == 8
        assert m.n_vertices == 27
        assert len(m.boundary_facets) == 24

    @pytest.mark.parametrize("kind", ["tet4", "hex8"])
    def test_unit_volume(self, kind):
        m = generate_box(3, 2, 4, kind)
        assert abs(cell_volumes(m).sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("kind", ["tet4", "hex8"])
    def test_positive_volumes_and_validity(self, kind):
        m = generate_box(3, 3, 3, kind)
        m.validate()
        assert cell_volumes(m).min() > 0

    def test_outer_marker_is_one(self):
        m = generate_box(2, 2, 2, "tet4")
        assert set(m.boundary_markers) == {1}

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
    def test_invalid_divisions(self, bad):
        with pytest.raises(ValueError):
            generate_box(*bad, "hex8")


class TestCubeWithHole:
    def test_n9_hex(self):
        m = generate_cube_with_hole(9, "hex8")
        assert m.n_cells == 9**3 - 1

    def test_n9_tet(self):
        m = generate_cube_with_hole(9, "tet4")
        assert m.n_cells == (9**3 - 1) * 6

    def test_n18_hex(self):
        m = generate_cube_with_hole(18, "hex8")
        assert m.n_cells == 18**3 - 2**3

    @pytest.mark.parametrize("n,kind", [(9, "hex8"), (9, "tet4"), (18, "tet4")])
    def test_volume_identity(self, n, kind):
        m = generate_cube_with_hole(n, kind)
        assert abs(cell_volumes(m).sum() - (1.0 - (1.0 / 9.0) ** 3)) < 1e-12

    def test_markers(self):
        m = generate_cube_with_hole(9, "hex8")
        assert set(m.boundary_markers) == {1, 2}
        # outer shell: 6 sides of 81 quads; hole: 6 quads
        assert (m.boundary_markers == 1).sum() == 6 * 81
        assert (m.boundary_markers == 2).sum() == 6

    def test_no_orphan_vertices(self):
        m = generate_cube_with_hole(18, "hex8")
        assert len(np.unique(m.cells)) == m.n_vertices

    def test_validity(self):
        generate_cube_with_hole(9, "tet4").validate()

    @pytest.mark.parametrize("bad", [8, 10, 0, -9])
    def test_rejects_misaligned(self, bad):
        with pytest.raises(ValueError):
            generate_cube_with_hole(bad, "hex8")


class TestRefine:
    def test_tet_count(self):
        m = generate_box(1, 1, 1, "tet4")
        assert refine_uniform(m).n_cells == 48

    def test_hex_count_and_vertices(self):
        m = refine_uniform(generate_box(1, 1, 1, "hex8"))
        assert m.n_cells == 8
        assert m.n_vertices == 27

    @pytest.mark.parametrize("kind", ["tet4", "hex8"])
    def test_volume_preserved(self, kind):
        m = generate_box(2, 2, 2, kind)
        r = refine_uniform(m)
        assert r.n_cells == 8 * m.n_cells
        assert abs(cell_volumes(r).sum() - cell_volumes(m).sum()) < 1e-12
        r.validate()

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.sampled_from(["tet4", "hex8"]), st.tuples(*[st.integers(1, 3)] * 3),
           st.integers(0, 2**32 - 1))
    def test_volume_preserved_on_distorted_boxes(self, kind, shape, seed):
        # an orientation-preserving affine map plus a vertex jitter, so hexes
        # get non-planar faces; the children of a trilinear hex are trilinear
        # images of its octants, so the 2x2x2 Gauss volumes add up exactly
        rng = np.random.default_rng(seed)
        box = generate_box(*shape, kind)
        a = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        assume(np.linalg.det(a) > 0.25)
        jitter = 0.05 / max(shape) * rng.uniform(-1.0, 1.0, box.vertices.shape)
        mesh = Mesh(box.vertices @ a.T + jitter, box.cells, kind,
                    box.boundary_facets, box.boundary_markers)
        volumes = cell_volumes(mesh)
        assume(np.all(volumes > 0.0))
        refined = refine_uniform(mesh)
        assert refined.n_cells == 8 * mesh.n_cells
        assert abs(cell_volumes(refined).sum() - volumes.sum()) <= 1e-12 * volumes.sum()

    def test_refine_twice_64x(self):
        m = generate_box(1, 1, 1, "tet4")
        assert refine_uniform(refine_uniform(m)).n_cells == 64 * m.n_cells

    def test_markers_inherited(self):
        m = generate_cube_with_hole(9, "hex8")
        r = refine_uniform(m)
        assert (r.boundary_markers == 2).sum() == 4 * (m.boundary_markers == 2).sum()
        r.validate()

    def test_refined_matches_direct_generation_volume(self):
        # refining the coarse hole mesh keeps the exact hole geometry
        r = refine_uniform(generate_cube_with_hole(9, "tet4"))
        assert abs(cell_volumes(r).sum() - (1.0 - 1.0 / 729.0)) < 1e-12


class TestFacetCensus:
    @pytest.mark.parametrize("kind", ["tet4", "hex8"])
    def test_boundary_faces_unique_ownership(self, kind):
        m = generate_box(3, 2, 2, kind)
        faces, owners = boundary_faces(m.cells, m.kind)
        assert len(faces) == len(m.boundary_facets)
        # brute-force census: every boundary facet appears in exactly one cell
        from collections import Counter

        local = {
            "tet4": ((0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)),
            "hex8": (
                (0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
                (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7),
            ),
        }[kind]
        count = Counter()
        for cell in m.cells:
            for f in local:
                count[frozenset(int(cell[i]) for i in f)] += 1
        for f in m.boundary_facets:
            assert count[frozenset(int(v) for v in f)] == 1


class TestMeshTypes:
    def test_immutable(self):
        m = generate_box(1, 1, 1, "hex8")
        with pytest.raises(ValueError):
            m.vertices[0, 0] = 7.0

    def test_kuhn_tets_positive(self):
        vols = tet_signed_volumes(
            generate_box(1, 1, 1, "tet4").vertices,
            generate_box(1, 1, 1, "tet4").cells,
        )
        assert np.all(vols > 0)
        assert np.allclose(vols, 1.0 / 6.0)

    def test_validate_detects_stray_facet(self):
        m = generate_box(1, 1, 1, "tet4")
        bad = Mesh(m.vertices, m.cells, m.kind,
                   np.array([[0, 1, 6]]), np.array([1]))
        with pytest.raises(MeshError):
            bad.validate()

    def test_validate_detects_stray_quad_on_hex_mesh(self):
        m = generate_box(2, 1, 1, "hex8")
        interior = m.cells[0, [1, 2, 6, 5]]  # the face cell 0 shares with cell 1
        facets = np.vstack([m.boundary_facets, interior])
        bad = Mesh(m.vertices, m.cells, m.kind, facets, np.ones(len(facets)))
        with pytest.raises(MeshError, match=f"facet {len(facets) - 1} "):
            bad.validate()

    @pytest.mark.parametrize("kind", ["tet4", "hex8"])
    def test_validate_accepts_rotated_and_reversed_facets(self, kind):
        m = generate_box(2, 2, 1, kind)
        for facets in (np.roll(m.boundary_facets, 1, axis=1), m.boundary_facets[:, ::-1]):
            Mesh(m.vertices, m.cells, kind, facets, m.boundary_markers).validate()

    @pytest.mark.parametrize("kind", ["tet4", "hex8"])
    def test_validate_names_first_of_two_bad_facets(self, kind):
        m = generate_box(2, 2, 1, kind)
        facets = m.boundary_facets.copy()
        facets[7] = facets[7, ::-1]  # still valid
        facets[9, 0] = facets[9, 1]  # a repeated vertex
        # vertices (0, 0, 0) and (1, 1, 1) share no cell
        facets[4] = (0, m.n_vertices - 1, 1, 2)[: facets.shape[1]]
        bad = Mesh(m.vertices, m.cells, kind, facets, m.boundary_markers)
        with pytest.raises(MeshError, match="facet 4 "):
            bad.validate()

    @pytest.mark.parametrize("part, message", [
        ("cells", "cell vertex index out of range"),
        ("facets", "boundary facet vertex index out of range"),
        ("markers", "facet/marker count mismatch"),
    ], ids=["cells", "facets", "markers"])
    def test_validate_rejects_bad_indices_and_counts(self, part, message):
        m = generate_box(1, 1, 1, "tet4")
        cells, facets, markers = m.cells.copy(), m.boundary_facets.copy(), m.boundary_markers
        if part == "cells":
            cells[2, 1] = m.n_vertices
        elif part == "facets":
            facets[0, 0] = -1
        else:
            markers = markers[1:]
        with pytest.raises(MeshError, match=message):
            Mesh(m.vertices, cells, m.kind, facets, markers).validate()

    def test_validate_rejects_facets_of_the_wrong_width(self):
        m = generate_box(1, 1, 1, "hex8")
        bad = Mesh(m.vertices, m.cells, m.kind, m.boundary_facets[:, :3],
                   m.boundary_markers)
        with pytest.raises(MeshError, match="facet 0 "):
            bad.validate()

    @pytest.mark.parametrize("kind", ["tet4", "hex8"])
    def test_refine_rejects_facet_off_the_cells(self, kind):
        m = generate_box(2, 1, 1, kind)
        facets = m.boundary_facets.copy()
        facets[2] = facets[2][::-1]  # fine: the same face
        facets[5, 1] = facets[5, 0]  # its edges are no cell's edges
        bad = Mesh(m.vertices, m.cells, kind, facets, m.boundary_markers)
        with pytest.raises(MeshError, match="facet 5 "):
            refine_uniform(bad)

    def test_remarking(self):
        m = generate_box(2, 2, 2, "hex8")

        def split(centroids):
            return np.where(centroids[:, 0] < 0.5, 1, 2)

        r = with_boundary_markers(m, split)
        assert set(r.boundary_markers) == {1, 2}


class TestBoundarySpec:
    def test_disjoint_markers_required(self):
        with pytest.raises(ConfigError, match="marker 1"):
            BoundarySpec(dirichlet={1: 0.0}, neumann={1: 1.0})

    def test_dirichlet_required(self):
        with pytest.raises(ConfigError):
            BoundarySpec(dirichlet={}, neumann={1: 0.0})

    def test_valid(self):
        spec = BoundarySpec(dirichlet={1: 0.0, 2: 1.0}, neumann={3: 0.5})
        assert 2 in spec.dirichlet
