"""Unstructured tet/hex meshes with marked boundary facets.

Vertex orderings follow the VTK conventions for tet4 (id 10) and hex8
(id 12).  Structured generators subdivide every hex the same way, so a
given resolution always produces the same mesh bit for bit.  Meshes are
immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, MeshError

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
        boundary, _ = boundary_faces(self.cells, self.kind)
        census = {frozenset(f) for f in boundary}
        for k, f in enumerate(self.boundary_facets):
            if frozenset(f) not in census:
                raise MeshError(f"facet {k} is not a boundary face of any cell")


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


def hex_jacobians(vertices, cells, points=HEX_QUAD_POINTS):
    """Jacobians dx/dxi at the given reference points, shape (m, q, 3, 3)."""
    _, dn = hex_shape_gradients(points)
    x = vertices[cells]  # (m, 8, 3)
    return np.einsum("mia,qib->mqab", x, dn)


def cell_volumes(mesh: Mesh) -> np.ndarray:
    if mesh.kind == TET4:
        return tet_signed_volumes(mesh.vertices, mesh.cells)
    det = np.linalg.det(hex_jacobians(mesh.vertices, mesh.cells))
    return det.sum(axis=1)  # unit Gauss weights


def boundary_faces(cells, kind) -> tuple[np.ndarray, np.ndarray]:
    """Faces appearing in exactly one cell, with their owning cell indices."""
    local = TET_FACES if kind == TET4 else HEX_FACES
    faces = cells[:, np.asarray(local)]  # (m, nf, k)
    m, nf, k = faces.shape
    flat = faces.reshape(m * nf, k)
    key = np.sort(flat, axis=1)
    _, inverse, counts = np.unique(key, axis=0, return_inverse=True, return_counts=True)
    once = counts[inverse] == 1
    owners = np.repeat(np.arange(m, dtype=np.int64), nf)[once]
    return flat[once], owners


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
    k, j, i = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    inside = (
        (i.ravel() >= lo) & (i.ravel() < hi)
        & (j.ravel() >= lo) & (j.ravel() < hi)
        & (k.ravel() >= lo) & (k.ravel() < hi)
    )
    vertices, kept = _compact_vertices(vertices, hexes[~inside])

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


def _refine_tet(mesh: Mesh) -> Mesh:
    cells = mesh.cells
    nv = mesh.n_vertices
    pairs = cells[:, np.asarray(TET_EDGES)].reshape(-1, 2)
    key = np.sort(pairs, axis=1)
    uniq, inverse = np.unique(key, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    mids = 0.5 * (mesh.vertices[uniq[:, 0]] + mesh.vertices[uniq[:, 1]])
    vertices = np.vstack([mesh.vertices, mids])
    m = (nv + inverse).reshape(len(cells), 6)  # midpoint id per TET_EDGES slot

    v0, v1, v2, v3 = (cells[:, i] for i in range(4))
    m01, m02, m03, m12, m13, m23 = (m[:, e] for e in range(6))
    children = np.stack(
        [
            np.column_stack([v0, m01, m02, m03]),
            np.column_stack([m01, v1, m12, m13]),
            np.column_stack([m02, m12, v2, m23]),
            np.column_stack([m03, m13, m23, v3]),
            # octahedron split along the m02-m13 diagonal
            np.column_stack([m02, m13, m01, m03]),
            np.column_stack([m02, m13, m03, m23]),
            np.column_stack([m02, m13, m23, m12]),
            np.column_stack([m02, m13, m12, m01]),
        ],
        axis=1,
    ).reshape(-1, 4)
    children = _orient_tets(vertices, children)

    # facet edges are cell edges; look their midpoints up via packed keys
    # (uniq is lexicographically sorted, so packing preserves the order)
    facets = mesh.boundary_facets
    packed_uniq = uniq[:, 0] * nv + uniq[:, 1]
    fpairs = facets[:, [(0, 1), (0, 2), (1, 2)]].reshape(-1, 2)
    fkey = np.sort(fpairs, axis=1)
    pos = np.searchsorted(packed_uniq, fkey[:, 0] * nv + fkey[:, 1])
    fmid = (nv + pos).reshape(len(facets), 3)
    a, b, c = facets[:, 0], facets[:, 1], facets[:, 2]
    mab, mac, mbc = fmid[:, 0], fmid[:, 1], fmid[:, 2]
    child_facets = np.stack(
        [
            np.column_stack([a, mab, mac]),
            np.column_stack([mab, b, mbc]),
            np.column_stack([mac, mbc, c]),
            np.column_stack([mab, mbc, mac]),
        ],
        axis=1,
    ).reshape(-1, 3)
    child_markers = np.repeat(mesh.boundary_markers, 4)
    return Mesh(vertices, children, TET4, child_facets, child_markers)


_HEX_LOCAL_GRID = {
    (0, 0, 0): 0, (2, 0, 0): 1, (2, 2, 0): 2, (0, 2, 0): 3,
    (0, 0, 2): 4, (2, 0, 2): 5, (2, 2, 2): 6, (0, 2, 2): 7,
}


def _refine_hex(mesh: Mesh) -> Mesh:
    cells = mesh.cells
    nv = mesh.n_vertices

    # 27 sub-lattice points per cell; each is the mean of 1, 2, 4, or 8
    # hex corners (corner, edge midpoint, face center, cell center)
    lattice = [(i, j, k) for k in (0, 1, 2) for j in (0, 1, 2) for i in (0, 1, 2)]

    def corners_of(point):
        spans = [(0, 2) if c == 1 else (c,) for c in point]
        return tuple(
            sorted(
                _HEX_LOCAL_GRID[(i, j, k)]
                for i in spans[0] for j in spans[1] for k in spans[2]
            )
        )

    key_tables = {p: corners_of(p) for p in lattice}

    # assign global ids: corners keep theirs; edge/face/center points are
    # deduplicated by their sorted global corner tuple
    new_coords = []
    new_index: dict[tuple, int] = {}
    point_ids = np.empty((len(cells), 27), dtype=np.int64)
    verts = mesh.vertices
    for c_idx, cell in enumerate(cells):
        for p_idx, p in enumerate(lattice):
            group = key_tables[p]
            if len(group) == 1:
                point_ids[c_idx, p_idx] = cell[group[0]]
                continue
            key = tuple(sorted(int(cell[g]) for g in group))
            pid = new_index.get(key)
            if pid is None:
                pid = nv + len(new_coords)
                new_index[key] = pid
                new_coords.append(verts[list(key)].mean(axis=0))
            point_ids[c_idx, p_idx] = pid
    vertices = np.vstack([verts, np.array(new_coords)]) if new_coords else verts.copy()

    def lidx(i, j, k):
        return i + 3 * j + 9 * k

    children = []
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                children.append(
                    [
                        lidx(a, b, c), lidx(a + 1, b, c), lidx(a + 1, b + 1, c),
                        lidx(a, b + 1, c), lidx(a, b, c + 1), lidx(a + 1, b, c + 1),
                        lidx(a + 1, b + 1, c + 1), lidx(a, b + 1, c + 1),
                    ]
                )
    child_cells = point_ids[:, np.asarray(children)].reshape(-1, 8)

    # quad facets: 4 edge midpoints + face center, all resolvable by key
    facets = mesh.boundary_facets

    def resolve(key):
        return new_index[key]

    child_facets = np.empty((len(facets) * 4, 4), dtype=np.int64)
    for f_idx, quad in enumerate(facets):
        q = [int(v) for v in quad]
        e01 = resolve(tuple(sorted((q[0], q[1]))))
        e12 = resolve(tuple(sorted((q[1], q[2]))))
        e23 = resolve(tuple(sorted((q[2], q[3]))))
        e30 = resolve(tuple(sorted((q[3], q[0]))))
        fc = resolve(tuple(sorted(q)))
        child_facets[4 * f_idx + 0] = (q[0], e01, fc, e30)
        child_facets[4 * f_idx + 1] = (e01, q[1], e12, fc)
        child_facets[4 * f_idx + 2] = (fc, e12, q[2], e23)
        child_facets[4 * f_idx + 3] = (e30, fc, e23, q[3])
    child_markers = np.repeat(mesh.boundary_markers, 4)
    return Mesh(vertices, child_cells, HEX8, child_facets, child_markers)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every cell into 8 children; boundary markers are inherited."""
    if mesh.kind == TET4:
        return _refine_tet(mesh)
    return _refine_hex(mesh)
