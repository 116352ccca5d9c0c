"""Galerkin assembly for the anisotropic diffusion equation.

P1 tetrahedra and Q1 hexahedra, with a 4-point order-2 tet rule and 2x2x2
Gauss for hexes.  The same rule builds the stiffness operator, the
consistent capacity (mass) matrix, and the load vector; Neumann fluxes are
integrated over marked boundary facets.  Dirichlet conditions are applied
by symmetric elimination so the reduced operator stays SPD.

Assembly is vectorized over cells and scatters in a fixed cell order, so
a given mesh always produces bit-identical operators.  Assembled objects
are immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import AssemblyError, ConfigError, SingularTensorError
from .mesh import (
    TET4,
    HEX_QUAD_POINTS,
    Mesh,
    BoundarySpec,
    hex_shape_gradients,
)
from .sparse import CooPattern, CsrMatrix

# Order-2 tet rule: 4 symmetric points, equal weights 1/24 on the
# reference tet of volume 1/6.
_TET_A = 0.5854101966249685
_TET_B = 0.13819660112501052
TET_QUAD_BARY = np.array(
    [
        [_TET_A, _TET_B, _TET_B, _TET_B],
        [_TET_B, _TET_A, _TET_B, _TET_B],
        [_TET_B, _TET_B, _TET_A, _TET_B],
        [_TET_B, _TET_B, _TET_B, _TET_A],
    ]
)
_TET_W = 1.0 / 24.0
# S = sum_q w_q N_q N_q^T; element mass is |det J| * S
_TET_MASS_REF = _TET_W * np.einsum("qi,qj->ij", TET_QUAD_BARY, TET_QUAD_BARY)

_HEX_N, _HEX_DN = hex_shape_gradients(HEX_QUAD_POINTS)

# Cells per block of the tet4 stiffness: its (4, 4, block) accumulator
# and term (1 MiB each) stay in cache.
_STIFFNESS_BLOCK = 8192

# Odd multipliers of the tet Jacobian key, one per matrix entry.  Any
# values give the same geometry: equal keys are checked on the bits.
_JACOBIAN_HASH = np.array(
    [0x40B2ED0E579AB6F5, 0xBD08422DA056114D, 0x25ED1A8D762FEED5,
     0x88D6AB791086CEDF, 0x674FABE8438F25C1, 0xF52BD6E73033195F,
     0xF034158C99D4DB3F, 0x494A847B5D4C16D3, 0xC99C5108301A0A1B],
    dtype=np.uint64,
)


# ---------------------------------------------------------------------------
# Diffusivity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DispersionParams:
    """Velocity-dependent diffusivity parameters (lengths and length^2/time)."""

    alpha_l: float
    alpha_t: float
    d_m: float

    def __post_init__(self):
        for name in ("alpha_l", "alpha_t", "d_m"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} = {getattr(self, name)} is not finite, so the "
                                  "diffusivity tensor has a non-finite entry")
        if not (self.alpha_l >= self.alpha_t >= 0.0):
            raise ConfigError("dispersivities must satisfy alpha_l >= alpha_t >= 0")
        if self.d_m < 0.0:
            raise ConfigError("molecular diffusivity must be nonnegative")


def dispersion_tensor(velocity, params: DispersionParams) -> np.ndarray:
    """(alpha_t |v| + d_m) I + (alpha_l - alpha_t) v v^T / |v|.

    The zero-velocity limit is d_m * I; with d_m = 0 as well the tensor
    would be singular and an error is raised.
    """
    v = np.asarray(velocity, dtype=np.float64)
    speed = float(np.linalg.norm(v))
    if speed == 0.0:
        if params.d_m == 0.0:
            raise SingularTensorError(
                "zero velocity with zero molecular diffusivity gives a singular tensor"
            )
        return params.d_m * np.eye(3)
    iso = params.alpha_t * speed + params.d_m
    if iso == 0.0:
        # the longitudinal term alone is rank one
        raise SingularTensorError("dispersion tensor is singular for these parameters")
    return iso * np.eye(3) + (params.alpha_l - params.alpha_t) * np.outer(v, v) / speed


def _dispersion_tensors(velocities, params: DispersionParams) -> np.ndarray:
    v = np.atleast_2d(np.asarray(velocities, dtype=np.float64))
    speed = np.linalg.norm(v, axis=1)
    out = np.zeros((len(v), 3, 3))
    eye = np.eye(3)
    still = speed == 0.0
    if np.any(still) and params.d_m == 0.0:
        raise SingularTensorError(
            "zero velocity with zero molecular diffusivity gives a singular tensor"
        )
    out[still] = params.d_m * eye
    moving = ~still
    if np.any(moving):
        vm, sm = v[moving], speed[moving]
        iso = params.alpha_t * sm + params.d_m
        if np.any(iso == 0.0):
            raise SingularTensorError(
                "dispersion tensor is singular for these parameters"
            )
        out[moving] = iso[:, None, None] * eye
        out[moving] += (
            (params.alpha_l - params.alpha_t) / sm
        )[:, None, None] * np.einsum("ma,mb->mab", vm, vm)
    return out


@dataclass(frozen=True, eq=False)
class DiffusivityField:
    """The 3x3 diffusion tensor as plain data: ``tensors`` holds one (3, 3)
    tensor or one per cell, (m, 3, 3); ``function(points) -> (p, 3, 3)``
    instead samples a field at every quadrature point."""

    tensors: np.ndarray | None = None
    function: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if (self.tensors is None) == (self.function is None):
            raise ConfigError("a diffusivity field holds either tensors or a function")

    @classmethod
    def constant(cls, tensor) -> "DiffusivityField":
        t = np.asarray(tensor, dtype=np.float64)
        if t.shape != (3, 3):
            raise ConfigError(f"constant tensor must be 3x3, got {t.shape}")
        return cls(tensors=t)

    @classmethod
    def from_cell_tensors(cls, tensors) -> "DiffusivityField":
        t = np.ascontiguousarray(tensors, dtype=np.float64)
        if t.ndim != 3 or t.shape[1:] != (3, 3):
            raise ConfigError(f"cell tensors must have shape (n_cells, 3, 3), got {t.shape}")
        return cls(tensors=t)

    @classmethod
    def from_function(cls, fn) -> "DiffusivityField":
        """A field sampled at every quadrature point: ``fn(points) -> (p, 3, 3)``."""
        return cls(function=fn)

    @classmethod
    def dispersion(cls, params: DispersionParams, velocity) -> "DiffusivityField":
        """Constant velocity (3,) or cell-wise velocities (n_cells, 3)."""
        v = np.asarray(velocity, dtype=np.float64)
        if v.shape == (3,):
            return cls.constant(dispersion_tensor(v, params))
        if v.ndim == 2 and v.shape[1] == 3:
            return cls.from_cell_tensors(_dispersion_tensors(v, params))
        raise ConfigError(f"velocity must be (3,) or (n_cells, 3), got {v.shape}")


def _check_tensor_batch(d: np.ndarray) -> None:
    if not np.isfinite(d).all():
        raise AssemblyError("diffusivity tensor has a non-finite entry")
    scale_ref = max(1.0, float(np.abs(d).max()))
    asym = np.abs(d - np.swapaxes(d, -1, -2)).max()
    if asym > 1e-14 * scale_ref:
        raise AssemblyError(f"diffusivity tensor asymmetry {asym:g} exceeds tolerance")
    eig_min = np.linalg.eigvalsh(d).min()
    if eig_min <= 0.0:
        raise AssemblyError(
            f"diffusivity tensor not positive definite (min eigenvalue {eig_min:g})"
        )


# ---------------------------------------------------------------------------
# Scalar fields (sources, boundary values)
# ---------------------------------------------------------------------------

def _finite_constant(value, name: str) -> float:
    """``value`` (None is 0) as a float; a non-number, NaN or an infinity is an
    input error."""
    try:
        const = 0.0 if value is None else float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, not {value!r}") from None
    if not np.isfinite(const):
        raise ConfigError(f"{name} must be finite, got {const}")
    return const


def scalar_field(value, name: str = "scalar field") -> Callable[[np.ndarray, float], np.ndarray]:
    """Normalize a constant or a callable ``fn(points, t)`` into ``fn(points, t) -> (m,)``.

    ``points`` is an (m, 3) array; a callable may return a scalar.  A
    non-finite constant is a :class:`ConfigError` here, and a callable's
    non-finite result is one when it is evaluated; ``name`` names the field
    in the message.
    """
    if not callable(value):
        const = _finite_constant(value, name)

        def const_fn(points, t=0.0):
            return np.full(len(points), const)

        return const_fn

    def fn(points, t=0.0):
        out = np.asarray(value(points, t), dtype=np.float64)
        if out.ndim == 0:
            out = np.full(len(points), float(out))
        elif out.shape != (len(points),):
            raise ConfigError(
                f"{name} returned shape {out.shape} for {len(points)} points"
            )
        if not np.isfinite(out).all():
            raise ConfigError(f"{name} is not finite at t = {t:g}")
        return out

    return fn


# ---------------------------------------------------------------------------
# Element integrals
# ---------------------------------------------------------------------------

def _distinct_jacobians(vertices, cells):
    """``(shapes, which)``: each distinct tet Jacobian ``x[1:] - x[0]`` once,
    bit for bit, and for each cell the index of its own in ``shapes``.

    A running multiply-add over the 9 float64 bit patterns of a Jacobian
    gives one uint64 key per cell; cells with equal keys are grouped and
    every group is then checked on the bits, column by column.  If no key
    repeats, or two different Jacobians share a key, every cell is its own
    shape, in cell order, and ``which`` is None.
    """
    e = vertices[cells[:, 1:]]
    e -= vertices[cells[:, :1]]  # in place: the peak is one gathered copy
    bits = e.reshape(len(e), 9).view(np.uint64)
    key = np.zeros(len(e), dtype=np.uint64)
    for col, mult in zip(bits.T, _JACOBIAN_HASH):
        key += col * mult
    _, first, which = np.unique(key, return_index=True, return_inverse=True)
    if len(first) < len(e):
        rep = first[which]
        if all(np.array_equal(col[rep], col) for col in bits.T):
            return e[first], which
    return e, None


def _tet_batch(vertices, cells):
    """Jacobian determinants (k,) and P1 gradients (k, 4, 3) of the k distinct
    tet Jacobians, and ``which`` (m,), each cell's row of them, or None when
    no Jacobian repeats (k = m, row c is cell c).

    numpy's det and inv gufuncs factor each matrix on its own, so a
    matrix's result depends only on its bits: the cells' rows are
    bit-identical to calling LAPACK on every cell.  A generated tet mesh
    repeats a few hundred cell shapes (162 Jacobians among 117,936 cells of
    the n = 27 cube with a hole).  Every determinant is checked before any
    inverse is formed, so a degenerate cell is an :class:`AssemblyError`
    naming the lowest-index cell of the smallest determinant.
    """
    shapes, which = _distinct_jacobians(vertices, cells)
    det = np.linalg.det(shapes)
    if np.any(det <= 0.0):
        bad = int(np.argmin(det if which is None else det[which]))
        raise AssemblyError(f"non-positive Jacobian determinant in cell {bad}")
    inv = np.linalg.inv(shapes)
    grads = np.empty((len(shapes), 4, 3))
    grads[:, 1:, :] = np.transpose(inv, (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return det, grads, which


def _hex_batch(vertices, cells):
    x = vertices[cells]
    jac = np.einsum("mia,qib->mqab", x, _HEX_DN)
    det = np.linalg.det(jac)
    if np.any(det <= 0.0):
        bad = int(np.argmin(det.min(axis=1)))
        raise AssemblyError(f"non-positive Jacobian determinant in cell {bad}")
    jinv = np.linalg.inv(jac)
    b = np.einsum("qib,mqba->mqia", _HEX_DN, jinv)
    return det, b, None


@dataclass(frozen=True)
class CellGeometry:
    """Jacobian determinants, shape-function gradients and quadrature points
    of the cells of one mesh.

    tet4: ``det`` (k,) and ``grads`` (k, 4, 3) once per distinct Jacobian,
    and ``which`` (m,), each cell's row of them, or None when every cell is
    its own shape (see ``_tet_batch``); hex8: ``det`` (m, q) and ``grads``
    (m, q, 8, 3) per cell, and no ``which``: its Jacobians at the quadrature
    points depend on the absolute vertex coordinates, so few repeat (at
    n = 27, 105,975 of 157,248) and grouping them costs more than it saves.
    Both: ``qpts`` (m, q, 3), formed on first use, which only a
    function-valued tensor or source makes, and kept.
    """

    det: np.ndarray
    grads: np.ndarray
    which: np.ndarray | None
    mesh: Mesh = field(repr=False)

    @cached_property
    def qpts(self) -> np.ndarray:
        shape = TET_QUAD_BARY if self.mesh.kind == TET4 else _HEX_N
        return np.einsum("qi,mia->mqa", shape, self.mesh.vertices[self.mesh.cells])

    def per_cell(self, a: np.ndarray) -> np.ndarray:
        """``a``, a row per distinct tet4 Jacobian, gathered to the cells (if any repeat)."""
        return a if self.which is None else a[self.which]


def cell_geometry(mesh: Mesh) -> CellGeometry:
    batch = _tet_batch if mesh.kind == TET4 else _hex_batch
    return CellGeometry(*batch(mesh.vertices, mesh.cells), mesh)


def _cell_tensors(diffusivity, geometry: CellGeometry, n_cells):
    """Per-cell (m,3,3) or per-point (m,q,3,3) tensors, validated.

    One tensor for the whole mesh is checked once and returned as (3, 3).
    """
    d = diffusivity.tensors
    if diffusivity.function is not None:
        qpts = geometry.qpts
        d = np.asarray(diffusivity.function(qpts.reshape(-1, 3)), dtype=np.float64)
        if d.shape != (qpts.size // 3, 3, 3):
            raise ConfigError(f"diffusivity function returned shape {d.shape}")
        d = d.reshape(qpts.shape[:2] + (3, 3))
    elif d.ndim == 2:
        _check_tensor_batch(d[None])
        return d
    elif len(d) != n_cells:
        raise ConfigError(f"{len(d)} cell tensors given for a mesh of {n_cells} cells")
    _check_tensor_batch(d)
    return d


def _tet_stiffness(det, grads, d, which=None):
    """(det/6) G D G^T per cell, symmetrized, bit for bit as
    ``np.einsum("m,mia,mab,mjb->mij")`` followed by ``0.5 * (k + k^T)``.

    ``d`` has one tensor per output row: per distinct Jacobian when the mesh
    has one tensor, per cell otherwise.  Row c reads row ``which[c]`` of
    ``det`` and ``grads`` (row c when ``which`` is None), gathered one block
    at a time, so no per-cell gradient array is formed.  The einsum forms
    each term as ((w g_ia) d_ab) g_jb and adds the terms to zero in (a, b)
    order.  The nine steps below do the same for all 16 entries (i, j) at
    once, on gradients laid out as contiguous rows ``g[a, i]`` of one block
    of cells, so the accumulator and the term (4, 4, block) stay in cache;
    each block is symmetrized before it is stored.
    """
    if d.ndim == 4:
        d = d.mean(axis=1)  # P1 gradients are cellwise constant
    ke = np.empty((len(d), 4, 4))
    for start in range(0, len(d), _STIFFNESS_BLOCK):
        blk = slice(start, start + _STIFFNESS_BLOCK)
        rows = blk if which is None else which[blk]
        w = det[rows] / 6.0
        g = grads[rows].transpose(2, 1, 0).copy()  # (3, 4, block)
        db = d[blk]
        acc = np.zeros((4, 4, g.shape[2]))
        term = np.empty_like(acc)
        for a in range(3):
            wg = w * g[a]
            for b in range(3):
                np.multiply((wg * db[:, a, b])[:, None, :], g[b][None, :, :], out=term)
                acc += term
        np.add(acc, acc.transpose(1, 0, 2), out=term)
        term *= 0.5
        ke[blk] = term.transpose(2, 0, 1)
    return ke


def _hex_stiffness(det, b, d):
    if d.ndim == 4:
        ke = np.einsum("mq,mqia,mqab,mqjb->mij", det, b, d, b)
    else:
        ke = np.einsum("mq,mqia,mab,mqjb->mij", det, b, d, b)
    return 0.5 * (ke + ke.transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# Global assembly
# ---------------------------------------------------------------------------

@dataclass
class AssembledSystem:
    """Global stiffness/capacity operators, load vector, Dirichlet table.

    The capacity (mass) matrix is built on first access from ``mass_fn``:
    a steady solve never reads it.
    """

    stiffness: CsrMatrix
    mass_fn: Callable[[], CsrMatrix] = field(repr=False)
    load: np.ndarray
    dirichlet_idx: np.ndarray
    dirichlet_values: np.ndarray

    @cached_property
    def mass(self) -> CsrMatrix:
        return self.mass_fn()

    @property
    def n(self) -> int:
        return self.stiffness.n

    @property
    def free(self) -> np.ndarray:
        """Sorted indices of the dofs without Dirichlet data."""
        mask = np.ones(self.n, dtype=bool)
        mask[self.dirichlet_idx] = False
        return np.flatnonzero(mask)


def _cell_pattern(n, cells) -> CooPattern:
    """Pattern of the element matrices of ``cells`` scattered row by row."""
    m, k = cells.shape
    rows = np.broadcast_to(cells[:, :, None], (m, k, k))
    cols = np.broadcast_to(cells[:, None, :], (m, k, k))
    return CooPattern(n, rows, cols)


def _scatter_vector(n, cells, fe) -> np.ndarray:
    return np.bincount(cells.ravel(), weights=fe.ravel(), minlength=n)


def _check_markers(mesh: Mesh, bc: BoundarySpec) -> None:
    present = set(int(m) for m in np.unique(mesh.boundary_markers))
    for marker in list(bc.dirichlet) + list(bc.neumann):
        if int(marker) not in present:
            raise ConfigError(f"boundary condition references unknown marker {marker}")


def neumann_load(mesh: Mesh, bc: BoundarySpec, t: float = 0.0) -> np.ndarray:
    """Load-vector contribution of the prescribed fluxes.

    The flux is prescribed as the outward conormal -n . D grad c, so its
    facet integral enters the load with a minus sign: a positive
    (outward) flux drains the domain.
    """
    f = np.zeros(mesh.n_vertices)
    for marker, flux in bc.neumann.items():
        fn = scalar_field(flux, f"Neumann flux on marker {marker}")
        facets = mesh.boundary_facets[mesh.boundary_markers == int(marker)]
        if len(facets) == 0:
            continue
        coords = mesh.vertices[facets]  # (F, k, 3)
        if mesh.kind == TET4:
            # midedge rule, exact for quadratic integrands
            a, b, c = coords[:, 0], coords[:, 1], coords[:, 2]
            area = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
            mids = np.stack([(a + b) / 2, (b + c) / 2, (c + a) / 2], axis=1)
            q = fn(mids.reshape(-1, 3), t).reshape(-1, 3)
            w = area[:, None] / 3.0
            fe = np.empty((len(facets), 3))
            fe[:, 0] = w[:, 0] * 0.5 * (q[:, 0] + q[:, 2])
            fe[:, 1] = w[:, 0] * 0.5 * (q[:, 0] + q[:, 1])
            fe[:, 2] = w[:, 0] * 0.5 * (q[:, 1] + q[:, 2])
        else:
            # 2x2 Gauss on the bilinear patch
            g = 1.0 / np.sqrt(3.0)
            corners = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)], dtype=float)
            pts = np.array([(-g, -g), (g, -g), (g, g), (-g, g)])
            n4 = (1 + pts[:, None, 0] * corners[None, :, 0]) * (
                1 + pts[:, None, 1] * corners[None, :, 1]
            ) / 4.0  # (q, 4)
            dxi = corners[None, :, 0] * (1 + pts[:, None, 1] * corners[None, :, 1]) / 4.0
            deta = corners[None, :, 1] * (1 + pts[:, None, 0] * corners[None, :, 0]) / 4.0
            tx = np.einsum("qi,fia->fqa", dxi, coords)
            ty = np.einsum("qi,fia->fqa", deta, coords)
            ds = np.linalg.norm(np.cross(tx, ty), axis=2)  # (F, q)
            xq = np.einsum("qi,fia->fqa", n4, coords)
            q = fn(xq.reshape(-1, 3), t).reshape(len(facets), 4)
            fe = np.einsum("fq,qi->fi", ds * q, n4)
        np.add.at(f, facets.ravel(), -fe.ravel())
    return f


def dirichlet_values(mesh: Mesh, bc: BoundarySpec, t: float = 0.0):
    """Vertex indices and prescribed values over all Dirichlet markers."""
    idx_parts, val_parts = [], []
    for marker, value in bc.dirichlet.items():
        fn = scalar_field(value, f"Dirichlet value on marker {marker}")
        facets = mesh.boundary_facets[mesh.boundary_markers == int(marker)]
        verts = np.unique(facets)
        idx_parts.append(verts)
        val_parts.append(fn(mesh.vertices[verts], t))
    idx = np.concatenate(idx_parts) if idx_parts else np.empty(0, dtype=np.int64)
    vals = np.concatenate(val_parts) if val_parts else np.empty(0)
    order = np.argsort(idx, kind="stable")
    idx, vals = idx[order], vals[order]
    keep = np.ones(len(idx), dtype=bool)
    dup = np.flatnonzero(idx[1:] == idx[:-1])
    for d in dup:
        if abs(vals[d + 1] - vals[d]) > 1e-12:
            raise ConfigError(
                f"conflicting Dirichlet values at vertex {int(idx[d])}: "
                f"{vals[d]:g} vs {vals[d + 1]:g}"
            )
        keep[d + 1] = False
    return idx[keep], vals[keep]


def assemble_load(
    mesh: Mesh, source, bc: BoundarySpec, t: float = 0.0,
    geometry: CellGeometry | None = None,
) -> np.ndarray:
    """Load vector at time ``t``: the source over the cells plus the fluxes.

    ``geometry`` is ``cell_geometry(mesh)``, computed here when omitted;
    pass it to assemble many loads on one mesh without recomputing it.
    """
    if geometry is None:
        geometry = cell_geometry(mesh)
    det, m = geometry.det, mesh.n_cells
    if callable(source):
        fvals = scalar_field(source, "source")(geometry.qpts.reshape(-1, 3), t).reshape(m, -1)
    else:  # a constant needs no quadrature points
        n_points = len(TET_QUAD_BARY) if mesh.kind == TET4 else len(_HEX_N)
        fvals = np.full((m, n_points), _finite_constant(source, "source"))
    if mesh.kind == TET4:
        fe = geometry.per_cell(det * _TET_W)[:, None] * np.einsum("mq,qi->mi", fvals, TET_QUAD_BARY)
    else:
        fe = np.einsum("mq,qi->mi", det * fvals, _HEX_N)
    f = _scatter_vector(mesh.n_vertices, mesh.cells, fe)
    f += neumann_load(mesh, bc, t)
    return f


def assemble(
    mesh: Mesh,
    geometry: CellGeometry | None,
    bc: BoundarySpec,
    diffusivity: DiffusivityField,
    source=None,
    t: float = 0.0,
) -> AssembledSystem:
    """Build the global stiffness, capacity, and load objects.

    ``geometry`` is as in :func:`assemble_load`; None computes it after the
    pattern sort, and it lives on only in the capacity's ``mass_fn``.
    Stiffness and capacity share one sorted pattern; the capacity is built
    when first read.
    """
    _check_markers(mesh, bc)
    # the pattern is sorted first, and each temporary is dropped before the
    # next stage, so the peak is one stage's working set, not their sum
    pattern = _cell_pattern(mesh.n_vertices, mesh.cells)
    if geometry is None:
        geometry = cell_geometry(mesh)
    det, grads = geometry.det, geometry.grads
    d = _cell_tensors(diffusivity, geometry, mesh.n_cells)
    if d.ndim == 2:  # one tensor: an element matrix depends only on its Jacobian
        element = _tet_stiffness if mesh.kind == TET4 else _hex_stiffness
        ke = geometry.per_cell(element(det, grads, np.broadcast_to(d, (len(det), 3, 3))))
    elif mesh.kind == TET4:
        ke = _tet_stiffness(det, grads, d, geometry.which)
    else:
        ke = _hex_stiffness(det, grads, d)
    stiffness = pattern.matrix(ke)
    del ke

    def mass():
        if mesh.kind == TET4:
            return pattern.matrix(geometry.per_cell(det[:, None, None] * _TET_MASS_REF))
        return pattern.matrix(np.einsum("mq,qi,qj->mij", det, _HEX_N, _HEX_N))

    load = assemble_load(mesh, source, bc, t, geometry)
    idx, vals = dirichlet_values(mesh, bc, t)
    return AssembledSystem(stiffness, mass, load, idx, vals)


# ---------------------------------------------------------------------------
# Dirichlet elimination
# ---------------------------------------------------------------------------

@dataclass
class ReducedSystem:
    """Free-dof operator, rhs and Dirichlet lift after symmetric Dirichlet elimination."""

    matrix: CsrMatrix
    rhs: np.ndarray
    free: np.ndarray
    dirichlet_idx: np.ndarray
    dirichlet_values: np.ndarray
    lift: np.ndarray

    def expand(self, x_reduced) -> np.ndarray:
        n = len(self.free) + len(self.dirichlet_idx)
        return expand(n, self.free, x_reduced, self.dirichlet_idx, self.dirichlet_values)


def expand(n: int, free, x, idx, vals) -> np.ndarray:
    """The full field of ``n`` dofs: ``x`` on ``free``, Dirichlet ``vals`` on ``idx``."""
    full = np.zeros(n)
    full[free] = x
    full[idx] = vals
    return full


def dirichlet_lift(matrix: CsrMatrix, free, idx, vals) -> np.ndarray:
    """The Dirichlet coupling on the free dofs: the ``free`` rows of
    ``matrix`` times the field that is ``vals`` on ``idx`` and 0 elsewhere."""
    return matrix.matvec_raw(expand(matrix.n, free, 0.0, idx, vals))[free]


def apply_dirichlet(system: AssembledSystem, operator: CsrMatrix | None = None) -> ReducedSystem:
    """Eliminate ``system``'s Dirichlet dofs from ``operator`` (default: the
    stiffness K; a backward-Euler level passes M/dt + K) and its load."""
    operator = system.stiffness if operator is None else operator
    free, idx, vals = system.free, system.dirichlet_idx, system.dirichlet_values
    lift = dirichlet_lift(operator, free, idx, vals)
    return ReducedSystem(operator.submatrix(free), system.load[free] - lift, free, idx, vals, lift)
