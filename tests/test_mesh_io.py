import numpy as np
import pytest

from nndiff.errors import ParseError
from nndiff.mesh import Mesh, cell_volumes, generate_box, generate_cube_with_hole
from nndiff.mesh_io import VtkGeometry, read_gmsh, write_gmsh, write_vtk

SINGLE_TET_MSH = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 0 1 0
4 0 0 1
$EndNodes
$Elements
5
1 2 2 7 1 1 3 2
2 2 2 7 1 1 2 4
3 2 2 7 1 2 3 4
4 2 2 7 1 1 4 3
5 4 2 0 1 1 2 3 4
$EndElements
"""


def reference_write_gmsh(mesh, path):
    """The line-by-line MSH writer that ``write_gmsh`` must match byte for byte."""
    facet_type = 2 if mesh.kind == "tet4" else 3
    cell_type = {"tet4": 4, "hex8": 5}[mesh.kind]
    with open(path, "w") as fh:
        fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        fh.write(f"$Nodes\n{mesh.n_vertices}\n")
        for i, (x, y, z) in enumerate(mesh.vertices, start=1):
            fh.write(f"{i} {x:.17g} {y:.17g} {z:.17g}\n")
        fh.write("$EndNodes\n")
        n_elems = mesh.n_cells + len(mesh.boundary_facets)
        fh.write(f"$Elements\n{n_elems}\n")
        eid = 1
        for facet, marker in zip(mesh.boundary_facets, mesh.boundary_markers):
            nodes = " ".join(str(v + 1) for v in facet)
            fh.write(f"{eid} {facet_type} 2 {marker} {marker} {nodes}\n")
            eid += 1
        for cell in mesh.cells:
            nodes = " ".join(str(v + 1) for v in cell)
            fh.write(f"{eid} {cell_type} 2 0 0 {nodes}\n")
            eid += 1
        fh.write("$EndElements\n")


def jittered(mesh, seed=7):
    """``mesh`` with coordinates that need all 17 digits."""
    rng = np.random.default_rng(seed)
    return Mesh(mesh.vertices + 1e-3 * rng.standard_normal(mesh.vertices.shape),
                mesh.cells, mesh.kind, mesh.boundary_facets, mesh.boundary_markers)


class TestWriteGmsh:
    @pytest.mark.parametrize("mesh", [
        jittered(generate_box(3, 2, 2, "tet4")),
        jittered(generate_box(2, 2, 3, "hex8")),
        generate_cube_with_hole(9, "tet4"),
        generate_cube_with_hole(9, "hex8"),
        Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [-0.0, 1e-300, 1 / 3]], [[0, 1, 2, 3]],
             "tet4", np.zeros((0, 3)), []),
    ], ids=["box-tet4", "box-hex8", "hole-tet4", "hole-hex8", "no-facets"])
    def test_bytes_match_reference_writer(self, mesh, tmp_path):
        write_gmsh(mesh, tmp_path / "new.msh")
        reference_write_gmsh(mesh, tmp_path / "ref.msh")
        assert (tmp_path / "new.msh").read_bytes() == (tmp_path / "ref.msh").read_bytes()


class TestReadGmsh:
    def test_single_tet(self, tmp_path):
        path = tmp_path / "tet.msh"
        path.write_text(SINGLE_TET_MSH)
        mesh = read_gmsh(path)
        assert mesh.n_cells == 1
        assert mesh.n_vertices == 4
        assert mesh.kind == "tet4"
        assert set(mesh.boundary_markers) == {7}
        mesh.validate()

    def test_roundtrip_box(self, tmp_path):
        m = generate_box(2, 2, 2, "tet4")
        path = tmp_path / "box.msh"
        write_gmsh(m, path)
        again = read_gmsh(path)
        assert again.n_vertices == 27
        assert again.n_cells == m.n_cells
        assert np.allclose(cell_volumes(again).sum(), 1.0)
        again.validate()

    def test_roundtrip_hole_markers(self, tmp_path):
        m = generate_cube_with_hole(9, "hex8")
        path = tmp_path / "hole.msh"
        write_gmsh(m, path)
        again = read_gmsh(path)
        assert (again.boundary_markers == 2).sum() == 6

    def test_noncontiguous_node_ids(self, tmp_path):
        path = tmp_path / "ids.msh"
        path.write_text(
            """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
10 0 0 0
2 1 0 0
3 0 1 0
4 0 0 1
$EndNodes
$Elements
1
1 4 2 0 1 10 2 3 4
$EndElements
"""
        )
        mesh = read_gmsh(path)
        assert mesh.n_cells == 1
        assert mesh.n_vertices == 4

    def test_unsupported_element_type_names_line(self, tmp_path):
        path = tmp_path / "bad.msh"
        path.write_text(
            """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
1
1 0 0 0
$EndNodes
$Elements
1
1 6 2 0 1 1 1 1 1 1 1
$EndElements
"""
        )
        with pytest.raises(ParseError, match="unsupported element type 6") as err:
            read_gmsh(path)
        assert err.value.line == 10

    def test_mixed_kinds_rejected(self, tmp_path):
        path = tmp_path / "mixed.msh"
        path.write_text(
            """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
8
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
5 0 0 1
6 1 0 1
7 1 1 1
8 0 1 1
$EndNodes
$Elements
2
1 4 2 0 1 1 2 3 5
2 5 2 0 1 1 2 3 4 5 6 7 8
$EndElements
"""
        )
        with pytest.raises(ParseError, match="mixed volumetric"):
            read_gmsh(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v4.msh"
        path.write_text("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
        with pytest.raises(ParseError, match="2.2"):
            read_gmsh(path)


def msh_with(old: str, new: str) -> str:
    """SINGLE_TET_MSH with its one line ``old`` replaced by ``new`` lines."""
    lines = SINGLE_TET_MSH.splitlines()
    assert lines.count(old) == 1
    i = lines.index(old)
    return "\n".join(lines[:i] + new.split("\n") + lines[i + 1:]) + "\n"


class TestReadGmshInputErrors:
    """Each malformed input is a ParseError naming the message and its 1-based line."""

    @pytest.mark.parametrize("old, new, message, line", [
        ("$Nodes", "$Vertices", "expected $Nodes", 4),
        ("$EndElements", "", "expected $EndElements", 18),  # blank to the end
        ("2.2 0 8", "2.2 1 8", "binary MSH files are not supported", 2),
        ("4", "four", "malformed node count", 5),
        ("3 0 1 0", "3 0 1", "malformed node line '3 0 1'", 8),
        ("3 0 1 0", "3 0 one 0", "malformed node line '3 0 one 0'", 8),
        ("5", "five", "malformed element count", 12),
        ("3 2 2 7 1 2 3 4", "3 2", "malformed element line '3 2'", 15),
        ("3 2 2 7 1 2 3 4", "3 2 2 7 1 2 3 x", "malformed element line '3 2 2 7 1 2 3 x'", 15),
        ("3 2 2 7 1 2 3 4", "3 2 2 7 1 2 3 9", "element references unknown node 9", 15),
        ("5 4 2 0 1 1 2 3 4", "5 4 2 0 1 1 2 3", "tet4 element needs 4 nodes, got 3", 17),
        ("3 2 2 7 1 2 3 4", "3 2 2 7 1 2 3 4 1", "boundary element node count mismatch", 15),
    ], ids=["no-header", "no-footer", "binary", "node-count", "node-fields", "node-value",
            "element-count", "element-fields", "element-value", "unknown-node", "volume-width",
            "facet-nodes"])
    def test_message_and_line(self, old, new, message, line, tmp_path):
        path = tmp_path / "bad.msh"
        path.write_text(msh_with(old, new))
        with pytest.raises(ParseError) as err:
            read_gmsh(path)
        assert (str(err.value), err.value.line) == (f"{path}:{line}: {message}", line)

    def test_no_volumetric_element_names_the_last_line(self, tmp_path):
        path = tmp_path / "facets.msh"
        path.write_text(msh_with("5 4 2 0 1 1 2 3 4", "5 15 2 0 1 1"))
        with pytest.raises(ParseError) as err:
            read_gmsh(path)
        assert (str(err.value), err.value.line) == (f"{path}:18: no volumetric elements found", 18)

    # a quad facet before the tet, one after it, and the first of two
    @pytest.mark.parametrize("text, line", [
        (msh_with("1 2 2 7 1 1 3 2", "1 3 2 7 1 1 3 2 4"), 13),
        (SINGLE_TET_MSH.replace("4 2 2 7 1 1 4 3\n5 4 2 0 1 1 2 3 4",
                                "4 4 2 0 1 1 2 3 4\n5 3 2 7 1 1 3 2 4"), 17),
        (SINGLE_TET_MSH.replace("2 2 2 7 1 1 2 4", "2 3 2 7 1 1 2 4 3")
                       .replace("3 2 2 7 1 2 3 4", "3 3 2 7 1 2 3 4 1"), 14),
    ], ids=["before", "after", "first-of-two"])
    def test_facet_of_the_other_kind_names_its_line(self, text, line, tmp_path):
        path = tmp_path / "quad.msh"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_gmsh(path)
        assert (str(err.value), err.value.line) == (
            f"{path}:{line}: boundary facet width 4 does not match tet4", line)

    def test_blank_lines_between_sections_and_point_elements_are_skipped(self, tmp_path):
        path = tmp_path / "spaced.msh"
        text = msh_with("4 2 2 7 1 1 4 3", "4 15 2 0 1 3")  # a point element for a facet
        path.write_text(text.replace("$EndMeshFormat\n", "$EndMeshFormat\n\n")
                            .replace("$EndNodes\n", "$EndNodes\n\n   \n"))
        mesh = read_gmsh(path)
        ref_path = tmp_path / "tet.msh"
        ref_path.write_text(SINGLE_TET_MSH)
        ref = read_gmsh(ref_path)
        assert np.array_equal(mesh.vertices, ref.vertices)
        assert np.array_equal(mesh.cells, ref.cells)
        # the point element adds no facet: three of the four remain
        assert np.array_equal(mesh.boundary_facets, ref.boundary_facets[:3])
        assert np.array_equal(mesh.boundary_markers, [7, 7, 7])


def reference_write_vtk(mesh, nodal_fields, path):
    """The line-by-line VTK writer that ``write_vtk`` must match byte for byte."""
    width = mesh.cells.shape[1]
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("nndiff output\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_vertices} double\n")
        for x, y, z in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")
        fh.write(f"CELLS {mesh.n_cells} {mesh.n_cells * (width + 1)}\n")
        for cell in mesh.cells:
            fh.write(f"{width} " + " ".join(str(v) for v in cell) + "\n")
        fh.write(f"CELL_TYPES {mesh.n_cells}\n")
        vtk_type = {"tet4": 10, "hex8": 12}[mesh.kind]
        for _ in range(mesh.n_cells):
            fh.write(f"{vtk_type}\n")
        if nodal_fields:
            fh.write(f"POINT_DATA {mesh.n_vertices}\n")
            for name, values in nodal_fields.items():
                fh.write(f"SCALARS {name} double 1\n")
                fh.write("LOOKUP_TABLE default\n")
                for v in np.asarray(values, dtype=np.float64):
                    fh.write(f"{v:.17g}\n")


class TestWriteVtk:
    @pytest.mark.parametrize("kind", ["tet4", "hex8"])
    @pytest.mark.parametrize("with_fields", [False, True])
    def test_bytes_match_reference_writer(self, kind, with_fields, tmp_path):
        box = generate_box(3, 2, 2, kind)
        rng = np.random.default_rng(7)
        # irrational-looking coordinates need all 17 digits
        mesh = Mesh(box.vertices + 1e-3 * rng.standard_normal(box.vertices.shape),
                    box.cells, kind, box.boundary_facets, box.boundary_markers)
        fields = {}
        if with_fields:
            special = [0.0, -0.0, 1.0, -1e-300, 5e-324, 1.0 / 3.0, 1e300, -2.5]
            c = rng.standard_normal(mesh.n_vertices)
            c[: len(special)] = special
            fields = {"c": c, "violation": np.arange(mesh.n_vertices) % 3}
        write_vtk(mesh, fields, tmp_path / "new.vtk")
        reference_write_vtk(mesh, fields, tmp_path / "ref.vtk")
        assert (tmp_path / "new.vtk").read_bytes() == (tmp_path / "ref.vtk").read_bytes()

    def test_shared_geometry_writes_the_same_bytes(self, tmp_path):
        mesh = jittered(generate_box(2, 3, 2, "hex8"))
        geometry = VtkGeometry(mesh)
        for k in range(3):
            field = {"c": np.linspace(-1.0, 1.0, mesh.n_vertices) ** (k + 1)}
            write_vtk(mesh, field, tmp_path / "shared.vtk", geometry=geometry)
            reference_write_vtk(mesh, field, tmp_path / "ref.vtk")
            assert (tmp_path / "shared.vtk").read_bytes() == (tmp_path / "ref.vtk").read_bytes()

    def test_geometry_of_another_mesh_rejected(self, tmp_path):
        mesh = generate_box(1, 1, 1, "tet4")
        with pytest.raises(ValueError, match="another mesh"):
            write_vtk(mesh, {}, tmp_path / "x.vtk", geometry=VtkGeometry(generate_box(1, 1, 1)))

    def test_hex_cell_type_12(self, tmp_path):
        m = generate_box(1, 1, 1, "hex8")
        path = tmp_path / "hex.vtk"
        write_vtk(m, {}, path)
        text = path.read_text()
        assert text.startswith("# vtk DataFile Version 3.0\n")
        assert "DATASET UNSTRUCTURED_GRID" in text
        section = text.split("CELL_TYPES 1\n")[1]
        assert section.splitlines()[0] == "12"

    def test_tet_cell_type_10(self, tmp_path):
        m = generate_box(1, 1, 1, "tet4")
        path = tmp_path / "tet.vtk"
        write_vtk(m, {"c": np.zeros(m.n_vertices)}, path)
        text = path.read_text()
        assert "CELL_TYPES 6" in text
        assert "\n10\n" in text
        assert "POINT_DATA 8" in text
        assert "SCALARS c double 1" in text

    def test_deterministic_output(self, tmp_path):
        m = generate_box(2, 2, 2, "tet4")
        field = {"c": np.linspace(0.0, 1.0, m.n_vertices)}
        p1, p2 = tmp_path / "a.vtk", tmp_path / "b.vtk"
        write_vtk(m, field, p1)
        write_vtk(m, field, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_field_length_checked(self, tmp_path):
        m = generate_box(1, 1, 1, "hex8")
        with pytest.raises(ValueError, match="field 'c'"):
            write_vtk(m, {"c": np.zeros(3)}, tmp_path / "x.vtk")
