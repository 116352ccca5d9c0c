"""Unstructured tet/hex meshes with marked boundary facets.

Vertex orderings follow the VTK conventions for tet4 (id 10) and hex8
(id 12).  Structured generators subdivide every hex the same way, so a
given resolution always produces the same mesh bit for bit.  Meshes are
immutable after construction and safe for concurrent reads.

Every lookup of "the same entity" (a face in ``boundary_faces`` and the
facet census of :meth:`Mesh.validate`, a new point shared by neighbours
in :func:`refine_uniform`) keys it by its sorted vertex ids and groups
equal keys with :func:`nndiff.sparse.sorted_runs`, the routine behind
``CooPattern``: one stable counting pass per key column, so a grouping
costs time linear in the keys plus the vertex count.  ``boundary_faces``
reads how often a face occurs from the run starts.  Refinement is
written as tables: the parents of every new point and the children of
every cell and facet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, MeshError
from .sparse import sorted_runs

TET4 = "tet4"
HEX8 = "hex8"

# Local faces, ordered so normals point outward for a positively oriented cell.
TET_FACES = ((0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2))
HEX_FACES = (
    (0, 3, 2, 1),
    (4, 5, 6, 7),
    (0, 1, 5, 4),
    (1, 2, 6, 5),
    (2, 3, 7, 6),
    (3, 0, 4, 7),
)

# Six-tet subdivision of a hex (VTK-local corner indices).  All six share the
# corner-1-to-corner-7 diagonal, so translated copies of the same cell tile
# conformingly.  That diagonal runs along (-1, 1, 1): no edge of the
# subdivision is parallel to the (1, 1, 1) cube diagonal, which keeps the
# structured mesh generic with respect to anisotropy aligned with it.
HEX_TO_TETS = (
    (1, 0, 7, 3),
    (1, 0, 4, 7),
    (1, 2, 3, 7),
    (1, 2, 7, 6),
    (1, 5, 7, 4),
    (1, 5, 6, 7),
)

TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class Mesh:
    """Vertices, homogeneous cells, and marked boundary facets.

    boundary_facets rows are faces of exactly one cell (triangles for tet
    meshes, quads for hex meshes); boundary_markers carries one integer
    tag per facet.
    """

    vertices: np.ndarray
    cells: np.ndarray
    kind: str
    boundary_facets: np.ndarray
    boundary_markers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=np.float64))
        object.__setattr__(self, "cells", np.asarray(self.cells, dtype=np.int64))
        object.__setattr__(
            self, "boundary_facets", np.asarray(self.boundary_facets, dtype=np.int64)
        )
        object.__setattr__(
            self, "boundary_markers", np.asarray(self.boundary_markers, dtype=np.int64)
        )
        for arr in (self.vertices, self.cells, self.boundary_facets, self.boundary_markers):
            arr.setflags(write=False)
        if self.kind not in (TET4, HEX8):
            raise MeshError(f"unsupported element kind {self.kind!r}")
        width = 4 if self.kind == TET4 else 8
        if self.cells.ndim != 2 or self.cells.shape[1] != width:
            raise MeshError(f"{self.kind} cells must have {width} vertices")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def validate(self) -> None:
        """Check index bounds, cell orientation, and the facet census."""
        nv = self.n_vertices
        if self.cells.size and (self.cells.min() < 0 or self.cells.max() >= nv):
            raise MeshError("cell vertex index out of range")
        if self.boundary_facets.size and (
            self.boundary_facets.min() < 0 or self.boundary_facets.max() >= nv
        ):
            raise MeshError("boundary facet vertex index out of range")
        if len(self.boundary_facets) != len(self.boundary_markers):
            raise MeshError("facet/marker count mismatch")
        vols = cell_volumes(self)
        if vols.size and vols.min() <= 0.0:
            bad = int(np.argmin(vols))
            raise MeshError(f"non-positive volume in cell {bad}")
        if not len(self.boundary_facets):
            return
        boundary, _ = boundary_faces(self.cells, self.kind)
        facets = np.sort(self.boundary_facets, axis=1)
        if facets.shape[1] != boundary.shape[1]:
            raise MeshError("facet 0 is not a boundary face of any cell")
        # a facet is a boundary face when its run starts with a boundary row
        inverse, first = _groups(np.vstack([np.sort(boundary, axis=1), facets]))
        stray = np.flatnonzero(first[inverse[len(boundary):]] >= len(boundary))
        if stray.size:
            raise MeshError(f"facet {stray[0]} is not a boundary face of any cell")


@dataclass
class BoundarySpec:
    """Marker-indexed Dirichlet values and Neumann fluxes.

    Values may be scalars or callables ``f(points, t)`` taking an (m, 3)
    coordinate array and the time, returning m values or a scalar.
    """

    dirichlet: Mapping[int, object] = field(default_factory=dict)
    neumann: Mapping[int, object] = field(default_factory=dict)

    def __post_init__(self):
        overlap = set(self.dirichlet) & set(self.neumann)
        if overlap:
            raise ConfigError(
                f"marker {sorted(overlap)[0]} has both Dirichlet and Neumann data"
            )
        if not self.dirichlet:
            raise ConfigError("at least one Dirichlet marker is required")


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------

def tet_signed_volumes(vertices, cells) -> np.ndarray:
    x = vertices[cells]
    e = x[:, 1:, :] - x[:, :1, :]
    return np.linalg.det(e) / 6.0

# 2x2x2 Gauss abscissae and VTK corner signs for the reference hex [-1,1]^3.
_HEX_CORNERS = np.array(
    [
        (-1, -1, -1), (1, -1, -1), (1, 1, -1), (-1, 1, -1),
        (-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1),
    ],
    dtype=np.float64,
)
_GAUSS_1D = (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0))
HEX_QUAD_POINTS = np.array(
    [(gx, gy, gz) for gz in _GAUSS_1D for gy in _GAUSS_1D for gx in _GAUSS_1D]
)


def hex_shape_gradients(points) -> tuple[np.ndarray, np.ndarray]:
    """Trilinear shape values (q, 8) and reference gradients (q, 8, 3)."""
    pts = np.atleast_2d(points)
    s = _HEX_CORNERS[None, :, :]  # (1, 8, 3)
    p = pts[:, None, :]  # (q, 1, 3)
    terms = 1.0 + s * p  # (q, 8, 3)
    n = terms.prod(axis=2) / 8.0
    dn = np.empty((len(pts), 8, 3))
    dn[:, :, 0] = s[:, :, 0] * terms[:, :, 1] * terms[:, :, 2] / 8.0
    dn[:, :, 1] = s[:, :, 1] * terms[:, :, 0] * terms[:, :, 2] / 8.0
    dn[:, :, 2] = s[:, :, 2] * terms[:, :, 0] * terms[:, :, 1] / 8.0
    return n, dn


def cell_volumes(mesh: Mesh) -> np.ndarray:
    if mesh.kind == TET4:
        return tet_signed_volumes(mesh.vertices, mesh.cells)
    _, dn = hex_shape_gradients(HEX_QUAD_POINTS)
    jacobians = np.einsum("mia,qib->mqab", mesh.vertices[mesh.cells], dn)
    return np.linalg.det(jacobians).sum(axis=1)  # unit Gauss weights


def _groups(keys) -> tuple[np.ndarray, np.ndarray]:
    """Run index of every row of ``keys`` and the first row of every run.

    Runs are numbered in lexicographic order of their rows, as
    ``np.unique(keys, axis=0, return_inverse=True, return_index=True)``
    numbers them.
    """
    order, starts = sorted_runs(keys.T)
    run_of_sorted = np.zeros(len(order), dtype=np.int64)
    run_of_sorted[starts[1:]] = 1
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(run_of_sorted)
    return inverse, order[starts]


# compare-exchange pairs that sort 3 or 4 keys (Knuth, TAOCP vol. 3, 5.3.4)
SORT_NETWORKS = {3: ((0, 1), (1, 2), (0, 1)), 4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}


def boundary_faces(cells, kind) -> tuple[np.ndarray, np.ndarray]:
    """Faces appearing in exactly one cell, with their owning cell indices.

    Each face's key, its sorted vertex ids, is built by a min/max sorting
    network on key columns gathered straight from ``cells``, int32 while the
    ids fit; the faces found once are gathered from ``cells`` by index.
    """
    local = np.asarray(TET_FACES if kind == TET4 else HEX_FACES)
    nf, k = local.shape
    itype = np.int32 if cells.size == 0 or cells.max() < 2**31 else np.int64
    narrow = cells.astype(itype, copy=False)
    keys = [narrow[:, local[:, j]].ravel() for j in range(k)]
    del narrow
    for i, j in SORT_NETWORKS[k]:
        keys[i], keys[j] = np.minimum(keys[i], keys[j]), np.maximum(keys[i], keys[j])
    order, starts = sorted_runs(keys)
    single = starts[np.diff(starts, append=len(order)) == 1]
    once = np.zeros(len(order), dtype=bool)
    once[order[single]] = True
    owners, face = np.divmod(np.flatnonzero(once), nf)
    return cells[owners[:, None], local[face]], owners


# ---------------------------------------------------------------------------
# Structured generators
# ---------------------------------------------------------------------------

def _structured_hexes(nx: int, ny: int, nz: int):
    """Vertices and hex cells of a unit-cube grid, x index fastest."""
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    zs = np.linspace(0.0, 1.0, nz + 1)
    gz, gy, gx = np.meshgrid(zs, ys, xs, indexing="ij")
    vertices = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    def vid(i, j, k):
        return i + (nx + 1) * (j + (ny + 1) * k)

    k, j, i = np.meshgrid(
        np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij"
    )
    i, j, k = i.ravel(), j.ravel(), k.ravel()
    cells = np.column_stack(
        [
            vid(i, j, k), vid(i + 1, j, k), vid(i + 1, j + 1, k), vid(i, j + 1, k),
            vid(i, j, k + 1), vid(i + 1, j, k + 1), vid(i + 1, j + 1, k + 1),
            vid(i, j + 1, k + 1),
        ]
    )
    return vertices, cells.astype(np.int64)


def _compact_vertices(vertices, cells):
    used = np.unique(cells)
    remap = np.full(len(vertices), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return vertices[used], remap[cells]


def _finish_mesh(vertices, cells, kind, marker_fn=None) -> Mesh:
    if kind == TET4:
        cells = cells[:, HEX_TO_TETS].reshape(-1, 4)
    facets, _ = boundary_faces(cells, kind)
    if marker_fn is None:
        markers = np.ones(len(facets), dtype=np.int64)
    else:
        centroids = vertices[facets].mean(axis=1)
        markers = marker_fn(centroids)
    return Mesh(vertices, cells, kind, facets, markers)


def generate_box(nx: int, ny: int, nz: int, kind: str = TET4) -> Mesh:
    """Structured unit-cube mesh; every outer facet carries marker 1."""
    for name, v in (("nx", nx), ("ny", ny), ("nz", nz)):
        if int(v) != v or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")
    vertices, hexes = _structured_hexes(int(nx), int(ny), int(nz))
    return _finish_mesh(vertices, hexes, kind)


def generate_cube_with_hole(n: int, kind: str = TET4) -> Mesh:
    """Unit cube with the block [4/9, 5/9]^3 removed.

    Outer facets carry marker 1, facets on the hole surface marker 2.
    ``n`` must be a positive multiple of 9 so the hole aligns with cell
    faces.
    """
    if int(n) != n or n < 9 or n % 9 != 0:
        raise ValueError(f"n must be a positive multiple of 9, got {n!r}")
    n = int(n)
    vertices, hexes = _structured_hexes(n, n, n)
    lo, hi = 4 * n // 9, 5 * n // 9
    kji = np.indices((n, n, n)).reshape(3, -1)  # hex grid indices, i fastest
    inside = np.all((kji >= lo) & (kji < hi), axis=0)
    vertices, kept = _compact_vertices(vertices, hexes[~inside])
    del hexes, kji  # only the kept hexes reach the tet split and the face sort

    def classify(centroids):
        eps = 1e-12
        outer = np.zeros(len(centroids), dtype=bool)
        for axis in range(3):
            outer |= np.abs(centroids[:, axis]) < eps
            outer |= np.abs(centroids[:, axis] - 1.0) < eps
        return np.where(outer, 1, 2).astype(np.int64)

    return _finish_mesh(vertices, kept, kind, classify)


def with_boundary_markers(mesh: Mesh, classify: Callable[[np.ndarray], np.ndarray]) -> Mesh:
    """Remark boundary facets from their centroids (testing/experiments)."""
    centroids = mesh.vertices[mesh.boundary_facets].mean(axis=1)
    markers = np.asarray(classify(centroids), dtype=np.int64)
    return Mesh(mesh.vertices, mesh.cells, mesh.kind, mesh.boundary_facets, markers)


# ---------------------------------------------------------------------------
# Uniform refinement
# ---------------------------------------------------------------------------

def _orient_tets(vertices, tets):
    vols = tet_signed_volumes(vertices, tets)
    flip = vols < 0
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]
    return tets


# A split lists the new points of one cell or facet, each the mean of the
# local corners in its row, and the children by point number: the corners
# first, then the new points in row order.
_TET_SPLIT = (
    TET_EDGES,  # midpoints m01, m02, m03, m12, m13, m23 are points 4 to 9
    (
        (0, 4, 5, 6), (4, 1, 7, 8), (5, 7, 2, 9), (6, 8, 9, 3),
        # octahedron split along the m02-m13 diagonal
        (5, 8, 4, 6), (5, 8, 6, 9), (5, 8, 9, 7), (5, 8, 7, 4),
    ),
)
_TRI_SPLIT = (((0, 1), (0, 2), (1, 2)), ((0, 3, 4), (3, 1, 5), (4, 5, 2), (3, 5, 4)))
_QUAD_SPLIT = (
    ((0, 1), (1, 2), (2, 3), (3, 0), (0, 1, 2, 3)),  # edge midpoints, then the center
    ((0, 4, 8, 7), (4, 1, 5, 8), (8, 5, 2, 6), (7, 8, 6, 3)),
)


def _hex_split():
    """The 19 new points of the 3x3x3 reference lattice and the 8 child hexes."""
    r = (-1.0, 0.0, 1.0)
    gz, gy, gx = np.meshgrid(r, r, r, indexing="ij")
    lattice = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])  # x fastest
    # a lattice point is the mean of the corners that match it on its nonzero axes
    spans = np.all((lattice[:, None] == 0) | (lattice[:, None] == _HEX_CORNERS), axis=2)
    corner = spans.sum(axis=1) == 1
    point = np.empty(27, dtype=np.int64)  # lattice index -> point number
    point[corner] = np.argmax(spans[corner], axis=1)
    point[~corner] = 8 + np.arange(19)
    new_points = tuple(tuple(np.flatnonzero(s)) for s in spans[~corner])
    # child (a, b, c), c fastest, holds the lattice cube at offset (a, b, c)
    origins = np.array(list(np.ndindex(2, 2, 2)))
    steps = ((_HEX_CORNERS + 1) // 2).astype(np.int64)
    return new_points, point[(origins[:, None] + steps) @ (1, 3, 9)]


_HEX_SPLIT = _hex_split()


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every cell into 8 children; boundary markers are inherited.

    Neighbours share a new point when its parent vertices agree; all new
    points of cells and facets are grouped by one sort.  Tet meshes number
    their edge midpoints in lexicographic order of the edges, hex meshes
    number new points by first appearance, by cell and then lattice point.
    """
    tet = mesh.kind == TET4
    cell_split, facet_split = (_TET_SPLIT, _TRI_SPLIT) if tet else (_HEX_SPLIT, _QUAD_SPLIT)
    width = max(map(len, cell_split[0]))

    def parent_keys(elems, new_points):
        # sorted global parents of every new point, padded in front with -1
        table = np.array([(-1,) * (width - len(p)) + tuple(p) for p in new_points])
        ids = np.where(table >= 0, elems[:, table], -1)
        return np.sort(ids, axis=2).reshape(-1, width)

    cells, facets = mesh.cells, mesh.boundary_facets
    n_cell_keys = len(cells) * len(cell_split[0])
    keys = np.vstack([parent_keys(cells, cell_split[0]), parent_keys(facets, facet_split[0])])
    inverse, first = _groups(keys)
    stray = first[first >= n_cell_keys]
    if stray.size:
        k = (stray.min() - n_cell_keys) // len(facet_split[0])
        raise MeshError(f"facet {k} is not a face of any cell")
    if not tet:
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(len(first))
        inverse, first = rank[inverse], np.sort(first)
    parents = keys[first]
    size = (parents >= 0).sum(axis=1)
    new_vertices = np.empty((len(first), 3))
    for s in np.unique(size):
        new_vertices[size == s] = mesh.vertices[parents[size == s, width - s:]].mean(axis=1)
    vertices = np.vstack([mesh.vertices, new_vertices])

    def split(elems, new_ids, children):
        points = np.hstack([elems, new_ids.reshape(len(elems), -1)])
        return points[:, np.asarray(children)].reshape(-1, elems.shape[1])

    new_ids = mesh.n_vertices + inverse
    child_cells = split(cells, new_ids[:n_cell_keys], cell_split[1])
    if tet:
        child_cells = _orient_tets(vertices, child_cells)
    child_facets = split(facets, new_ids[n_cell_keys:], facet_split[1])
    markers = np.repeat(mesh.boundary_markers, 4)
    return Mesh(vertices, child_cells, mesh.kind, child_facets, markers)
