"""Gmsh MSH 2.2 import/export and VTK legacy export.

Supported volumetric elements: tet4 (Gmsh type 4, VTK 10) and hex8
(Gmsh type 5, VTK 12).  Triangles (2) and quads (3) become boundary
facets; their first tag is the boundary marker.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ParseError
from .mesh import HEX8, TET4, Mesh

# kind: (Gmsh cell type, nodes per cell, Gmsh facet type, nodes per facet)
_GMSH_TYPES = {TET4: (4, 4, 2, 3), HEX8: (5, 8, 3, 4)}
_GMSH_VOLUME = {cell: (kind, width) for kind, (cell, width, _, _) in _GMSH_TYPES.items()}
_GMSH_FACET = {facet: width for _, _, facet, width in _GMSH_TYPES.values()}
_VTK_CELL_TYPE = {TET4: 10, HEX8: 12}


def read_gmsh(path) -> Mesh:
    """Parse an ASCII Gmsh MSH 2.2 file into a Mesh."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]

    def fail(msg, ln):
        raise ParseError(msg, str(path), ln + 1)

    idx = 0

    def line(section):
        if idx >= len(lines):
            fail(f"file ends inside {section}", len(lines) - 1)
        return lines[idx]

    def expect_section(name):
        nonlocal idx
        while idx < len(lines) and not lines[idx].strip():
            idx += 1
        if idx >= len(lines) or lines[idx].strip() != name:
            fail(f"expected {name}", min(idx, len(lines) - 1))
        idx += 1

    expect_section("$MeshFormat")
    fmt = line("$MeshFormat").split()
    if not fmt or not fmt[0].startswith("2.2"):
        fail(f"unsupported MSH version {fmt[0] if fmt else '?'} (need 2.2 ASCII)", idx)
    if len(fmt) >= 2 and fmt[1] != "0":
        fail("binary MSH files are not supported", idx)
    idx += 1
    expect_section("$EndMeshFormat")

    expect_section("$Nodes")
    try:
        n_nodes = int(line("$Nodes"))
    except ValueError:
        fail("malformed node count", idx)
    idx += 1
    coords = np.empty((n_nodes, 3))
    id_to_row: dict[int, int] = {}
    for row in range(n_nodes):
        parts = line("$Nodes").split()
        if len(parts) != 4:
            fail(f"malformed node line {lines[idx]!r}", idx)
        try:
            node_id = int(parts[0])
            coords[row] = [float(p) for p in parts[1:]]
        except ValueError:
            fail(f"malformed node line {lines[idx]!r}", idx)
        id_to_row[node_id] = row
        idx += 1
    expect_section("$EndNodes")

    expect_section("$Elements")
    try:
        n_elems = int(line("$Elements"))
    except ValueError:
        fail("malformed element count", idx)
    idx += 1
    kind = None
    cells: list[list[int]] = []
    facets: list[list[int]] = []
    facet_lines: list[int] = []
    markers: list[int] = []
    for _ in range(n_elems):
        parts = line("$Elements").split()
        if len(parts) < 3:
            fail(f"malformed element line {lines[idx]!r}", idx)
        try:
            etype = int(parts[1])
            ntags = int(parts[2])
            tags = [int(t) for t in parts[3 : 3 + ntags]]
            node_ids = [int(t) for t in parts[3 + ntags :]]
        except ValueError:
            fail(f"malformed element line {lines[idx]!r}", idx)
        try:
            nodes = [id_to_row[i] for i in node_ids]
        except KeyError as exc:
            fail(f"element references unknown node {exc.args[0]}", idx)
        if etype in _GMSH_VOLUME:
            ekind, width = _GMSH_VOLUME[etype]
            if len(nodes) != width:
                fail(f"{ekind} element needs {width} nodes, got {len(nodes)}", idx)
            if kind is None:
                kind = ekind
            elif kind != ekind:
                fail("mixed volumetric element kinds are not supported", idx)
            cells.append(nodes)
        elif etype in _GMSH_FACET:
            if len(nodes) != _GMSH_FACET[etype]:
                fail("boundary element node count mismatch", idx)
            facets.append(nodes)
            facet_lines.append(idx)
            markers.append(tags[0] if tags else 0)
        elif etype == 15:
            pass  # point elements carry no mesh data
        else:
            fail(f"unsupported element type {etype}", idx)
        idx += 1
    expect_section("$EndElements")

    if kind is None:
        raise ParseError("no volumetric elements found", str(path), len(lines))
    facet_width = _GMSH_TYPES[kind][3]
    for f, ln in zip(facets, facet_lines):
        if len(f) != facet_width:
            fail(f"boundary facet width {len(f)} does not match {kind}", ln)
    return Mesh(
        coords,
        np.asarray(cells, dtype=np.int64),
        kind,
        np.asarray(facets, dtype=np.int64).reshape(-1, facet_width),
        np.asarray(markers, dtype=np.int64),
    )


def write_gmsh(mesh: Mesh, path) -> None:
    """Write a Mesh as ASCII MSH 2.2 (volume cells + marked facets)."""
    cell_type, _, facet_type, facet_width = _GMSH_TYPES[mesh.kind]
    n_facets = len(mesh.boundary_facets)
    n_elems = mesh.n_cells + n_facets
    markers = mesh.boundary_markers
    # ids are 1-based; a vertex id is exact in float64 and %d prints it whole
    nodes = np.column_stack((np.arange(1.0, mesh.n_vertices + 1), mesh.vertices))
    facets = np.column_stack(
        (np.arange(1, n_facets + 1), markers, markers,
         mesh.boundary_facets.reshape(-1, facet_width) + 1)
    )
    cells = np.column_stack((np.arange(n_facets + 1, n_elems + 1), mesh.cells + 1))
    cell_width = mesh.cells.shape[1]
    with open(path, "w") as fh:
        fh.write(f"$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n{mesh.n_vertices}\n")
        fh.writelines(_format_rows("%d %.17g %.17g %.17g\n", nodes))
        fh.write(f"$EndNodes\n$Elements\n{n_elems}\n")
        fh.writelines(_format_rows(f"%d {facet_type} 2 %d %d" + " %d" * facet_width + "\n",
                                   facets))
        fh.writelines(_format_rows(f"%d {cell_type} 2 0 0" + " %d" * cell_width + "\n", cells))
        fh.write("$EndElements\n")


# Rows per formatted block: the Python numbers of one block stay small
_FORMAT_BLOCK = 4096


def _format_rows(fmt: str, array):
    """``fmt`` applied to each row of ``array``, yielded one block of rows at a time."""
    array = np.asarray(array)
    for start in range(0, len(array), _FORMAT_BLOCK):
        block = array[start:start + _FORMAT_BLOCK]
        yield (fmt * len(block)) % tuple(block.ravel().tolist())


class VtkGeometry:
    """The header, POINTS, CELLS and CELL_TYPES block of a mesh's VTK files.

    ``parts`` are formatted at their first use and kept, so a run that writes
    several fields of one mesh formats its geometry once.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh

    @cached_property
    def parts(self) -> list[str]:
        mesh = self.mesh
        width = mesh.cells.shape[1]
        return [
            "# vtk DataFile Version 3.0\nnndiff output\nASCII\nDATASET UNSTRUCTURED_GRID\n",
            f"POINTS {mesh.n_vertices} double\n",
            *_format_rows("%.17g %.17g %.17g\n", mesh.vertices),
            f"CELLS {mesh.n_cells} {mesh.n_cells * (width + 1)}\n",
            *_format_rows(f"{width}" + " %d" * width + "\n", mesh.cells),
            f"CELL_TYPES {mesh.n_cells}\n",
            f"{_VTK_CELL_TYPE[mesh.kind]}\n" * mesh.n_cells,
        ]


def write_vtk(mesh: Mesh, nodal_fields, path, geometry: VtkGeometry | None = None) -> None:
    """Write a legacy ASCII VTK unstructured grid with point scalars.

    ``nodal_fields`` maps field names to per-vertex arrays.  Output is
    formatted with %.17g, so identical inputs produce identical files.
    ``geometry``, built once for ``mesh``, lets repeated writes share the
    formatted mesh block.
    """
    if geometry is None:
        geometry = VtkGeometry(mesh)
    elif geometry.mesh is not mesh:
        raise ValueError("geometry was built for another mesh")
    fields = {name: np.asarray(values, dtype=np.float64)
              for name, values in dict(nodal_fields or {}).items()}
    for name, values in fields.items():
        if len(values) != mesh.n_vertices:
            raise ValueError(
                f"field {name!r} has {len(values)} values for "
                f"{mesh.n_vertices} vertices"
            )
    with open(path, "w") as fh:
        fh.writelines(geometry.parts)
        if fields:
            fh.write(f"POINT_DATA {mesh.n_vertices}\n")
        for name, values in fields.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            fh.writelines(_format_rows("%.17g\n", values))
