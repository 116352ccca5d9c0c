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

from dataclasses import dataclass
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
from .sparse import CsrMatrix

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


class DiffusivityField:
    """Position- or cell-indexed 3x3 diffusion tensor.

    ``varies_within_cell`` tells the assembler whether the tensor must be
    sampled at every quadrature point or once per cell.
    """

    def __init__(self, evaluator, varies_within_cell: bool = True):
        self._evaluator = evaluator
        self.varies_within_cell = varies_within_cell

    @classmethod
    def constant(cls, tensor) -> "DiffusivityField":
        t = np.asarray(tensor, dtype=np.float64)
        if t.shape != (3, 3):
            raise ConfigError(f"constant tensor must be 3x3, got {t.shape}")

        def ev(points, cells=None):
            return np.broadcast_to(t, (len(points), 3, 3))

        return cls(ev, varies_within_cell=False)

    @classmethod
    def from_function(cls, fn) -> "DiffusivityField":
        def ev(points, cells=None):
            out = np.asarray(fn(points), dtype=np.float64)
            if out.shape != (len(points), 3, 3):
                raise ConfigError(
                    f"diffusivity function returned shape {out.shape}, "
                    f"expected ({len(points)}, 3, 3)"
                )
            return out

        return cls(ev, varies_within_cell=True)

    @classmethod
    def from_cell_tensors(cls, tensors) -> "DiffusivityField":
        t = np.asarray(tensors, dtype=np.float64)

        def ev(points, cells=None):
            if cells is None:
                raise ConfigError("cell-wise diffusivity needs cell indices")
            return t[np.asarray(cells)]

        return cls(ev, varies_within_cell=False)

    @classmethod
    def dispersion(cls, params: DispersionParams, velocity) -> "DiffusivityField":
        """Constant velocity (3,) or cell-wise velocities (n_cells, 3)."""
        v = np.asarray(velocity, dtype=np.float64)
        if v.shape == (3,):
            return cls.constant(dispersion_tensor(v, params))
        if v.ndim == 2 and v.shape[1] == 3:
            return cls.from_cell_tensors(_dispersion_tensors(v, params))
        raise ConfigError(f"velocity must be (3,) or (n_cells, 3), got {v.shape}")

    def evaluate(self, points, cells=None) -> np.ndarray:
        return self._evaluator(np.atleast_2d(points), cells)


def _check_tensor_batch(d: np.ndarray) -> None:
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

def scalar_field(value) -> Callable[[np.ndarray, float], np.ndarray]:
    """Normalize a constant or a callable ``fn(points, t)`` into ``fn(points, t) -> (m,)``.

    ``points`` is an (m, 3) array; a callable may return a scalar.
    """
    if value is None:
        value = 0.0
    if not callable(value):
        const = float(value)

        def const_fn(points, t=0.0):
            return np.full(len(points), const)

        return const_fn

    def fn(points, t=0.0):
        out = np.asarray(value(points, t), dtype=np.float64)
        if out.ndim == 0:
            return np.full(len(points), float(out))
        if out.shape != (len(points),):
            raise ConfigError(
                f"scalar field returned shape {out.shape} for {len(points)} points"
            )
        return out

    return fn


# ---------------------------------------------------------------------------
# Element integrals
# ---------------------------------------------------------------------------

def _tet_batch(vertices, cells):
    x = vertices[cells]
    e = x[:, 1:, :] - x[:, :1, :]
    det = np.linalg.det(e)
    if np.any(det <= 0.0):
        raise AssemblyError(
            f"non-positive Jacobian determinant in cell {int(np.argmin(det))}"
        )
    inv = np.linalg.inv(e)
    grads = np.empty((len(cells), 4, 3))
    grads[:, 1:, :] = np.transpose(inv, (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    qpts = np.einsum("qi,mia->mqa", TET_QUAD_BARY, x)
    return det, grads, qpts


def _hex_batch(vertices, cells):
    x = vertices[cells]
    jac = np.einsum("mia,qib->mqab", x, _HEX_DN)
    det = np.linalg.det(jac)
    if np.any(det <= 0.0):
        bad = int(np.argmin(det.min(axis=1)))
        raise AssemblyError(f"non-positive Jacobian determinant in cell {bad}")
    jinv = np.linalg.inv(jac)
    b = np.einsum("qib,mqba->mqia", _HEX_DN, jinv)
    qpts = np.einsum("qi,mia->mqa", _HEX_N, x)
    return det, b, qpts


def _cell_tensors(diffusivity, qpts, n_cells):
    """Per-cell (m,3,3) or per-point (m,q,3,3) tensors, validated."""
    nq = qpts.shape[1]
    if diffusivity.varies_within_cell:
        flat = diffusivity.evaluate(
            qpts.reshape(-1, 3), np.repeat(np.arange(n_cells), nq)
        )
        d = flat.reshape(n_cells, nq, 3, 3)
    else:
        centroids = qpts.mean(axis=1)
        d = diffusivity.evaluate(centroids, np.arange(n_cells))
    _check_tensor_batch(d)
    return d


def _tet_stiffness(det, grads, d):
    if d.ndim == 4:
        d = d.mean(axis=1)  # P1 gradients are cellwise constant
    ke = np.einsum("m,mia,mab,mjb->mij", det / 6.0, grads, d, grads)
    return 0.5 * (ke + ke.transpose(0, 2, 1))


def _hex_stiffness(det, b, d):
    if d.ndim == 4:
        ke = np.einsum("mq,mqia,mqab,mqjb->mij", det, b, d, b)
    else:
        ke = np.einsum("mq,mqia,mab,mqjb->mij", det, b, d, b)
    return 0.5 * (ke + ke.transpose(0, 2, 1))


def element_stiffness(coords, diffusion, kind: str = TET4) -> np.ndarray:
    """Single-element stiffness; diffusion is (3,3) or (nq,3,3)."""
    coords = np.asarray(coords, dtype=np.float64)
    cells = np.arange(len(coords), dtype=np.int64)[None, :]
    d = np.asarray(diffusion, dtype=np.float64)[None]  # leading cell axis
    if kind == TET4:
        det, grads, _ = _tet_batch(coords, cells)
        return _tet_stiffness(det, grads, d)[0]
    det, b, _ = _hex_batch(coords, cells)
    return _hex_stiffness(det, b, d)[0]


def element_mass(coords, kind: str = TET4) -> np.ndarray:
    coords = np.asarray(coords, dtype=np.float64)
    cells = np.arange(len(coords), dtype=np.int64)[None, :]
    if kind == TET4:
        det, _, _ = _tet_batch(coords, cells)
        return det[0] * _TET_MASS_REF
    det, _, _ = _hex_batch(coords, cells)
    return np.einsum("q,qi,qj->ij", det[0], _HEX_N, _HEX_N)


def element_load(coords, source, kind: str = TET4) -> np.ndarray:
    coords = np.asarray(coords, dtype=np.float64)
    cells = np.arange(len(coords), dtype=np.int64)[None, :]
    src = scalar_field(source)
    if kind == TET4:
        det, _, qpts = _tet_batch(coords, cells)
        fvals = src(qpts[0]).reshape(1, -1)
        return det[0] * _TET_W * np.einsum("mq,qi->mi", fvals, TET_QUAD_BARY)[0]
    det, _, qpts = _hex_batch(coords, cells)
    fvals = src(qpts[0]).reshape(1, -1)
    return np.einsum("mq,qi->mi", det * fvals, _HEX_N)[0]


# ---------------------------------------------------------------------------
# Global assembly
# ---------------------------------------------------------------------------

@dataclass
class AssembledSystem:
    """Global stiffness/capacity operators, load vector, Dirichlet table."""

    stiffness: CsrMatrix
    mass: CsrMatrix
    load: np.ndarray
    dirichlet_idx: np.ndarray
    dirichlet_values: np.ndarray

    @property
    def n(self) -> int:
        return self.stiffness.n

    @property
    def free(self) -> np.ndarray:
        """Sorted indices of the dofs without Dirichlet data."""
        mask = np.ones(self.n, dtype=bool)
        mask[self.dirichlet_idx] = False
        return np.flatnonzero(mask)


def _scatter_matrix(n, cells, ke) -> CsrMatrix:
    m, k = cells.shape
    rows = np.broadcast_to(cells[:, :, None], (m, k, k))
    cols = np.broadcast_to(cells[:, None, :], (m, k, k))
    return CsrMatrix.from_coo(n, rows.ravel(), cols.ravel(), ke.ravel())


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
        fn = scalar_field(flux)
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
        fn = scalar_field(value)
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


def assemble_load(mesh: Mesh, source, bc: BoundarySpec, t: float = 0.0) -> np.ndarray:
    src = scalar_field(source)
    if mesh.kind == TET4:
        det, _, qpts = _tet_batch(mesh.vertices, mesh.cells)
        fvals = src(qpts.reshape(-1, 3), t).reshape(len(mesh.cells), -1)
        fe = det[:, None] * _TET_W * np.einsum("mq,qi->mi", fvals, TET_QUAD_BARY)
    else:
        det, _, qpts = _hex_batch(mesh.vertices, mesh.cells)
        fvals = src(qpts.reshape(-1, 3), t).reshape(len(mesh.cells), -1)
        fe = np.einsum("mq,qi->mi", det * fvals, _HEX_N)
    f = _scatter_vector(mesh.n_vertices, mesh.cells, fe)
    f += neumann_load(mesh, bc, t)
    return f


def assemble(
    mesh: Mesh,
    _unused,
    bc: BoundarySpec,
    diffusivity: DiffusivityField,
    source=None,
    t: float = 0.0,
) -> AssembledSystem:
    """Build the global stiffness, capacity, and load objects.

    The second parameter is ignored; it keeps the positional signature
    ``assemble(mesh, None, bc, diffusivity, source)`` that callers use.
    """
    _check_markers(mesh, bc)
    n = mesh.n_vertices
    if mesh.kind == TET4:
        det, grads, qpts = _tet_batch(mesh.vertices, mesh.cells)
        d = _cell_tensors(diffusivity, qpts, mesh.n_cells)
        ke = _tet_stiffness(det, grads, d)
        me = det[:, None, None] * _TET_MASS_REF
    else:
        det, b, qpts = _hex_batch(mesh.vertices, mesh.cells)
        d = _cell_tensors(diffusivity, qpts, mesh.n_cells)
        ke = _hex_stiffness(det, b, d)
        me = np.einsum("mq,qi,qj->mij", det, _HEX_N, _HEX_N)
    stiffness = _scatter_matrix(n, mesh.cells, ke)
    mass = _scatter_matrix(n, mesh.cells, me)
    load = assemble_load(mesh, source, bc, t)
    idx, vals = dirichlet_values(mesh, bc, t)
    return AssembledSystem(stiffness, mass, load, idx, vals)


# ---------------------------------------------------------------------------
# Dirichlet elimination
# ---------------------------------------------------------------------------

@dataclass
class ReducedSystem:
    """Free-dof operator and rhs after symmetric Dirichlet elimination."""

    matrix: CsrMatrix
    rhs: np.ndarray
    free: np.ndarray
    dirichlet_idx: np.ndarray
    dirichlet_values: np.ndarray
    n_full: int

    def expand(self, x_reduced) -> np.ndarray:
        full = np.zeros(self.n_full)
        full[self.free] = x_reduced
        full[self.dirichlet_idx] = self.dirichlet_values
        return full

    def lift(self) -> np.ndarray:
        full = np.zeros(self.n_full)
        full[self.dirichlet_idx] = self.dirichlet_values
        return full


def reduce_rhs(matrix: CsrMatrix, rhs, free, lift) -> np.ndarray:
    """rhs restricted to free dofs with the Dirichlet coupling moved over."""
    return rhs[free] - matrix.matvec_raw(lift)[free]


def apply_dirichlet(system: AssembledSystem) -> ReducedSystem:
    n = system.n
    free = system.free
    reduced = system.stiffness.submatrix(free)
    lift = np.zeros(n)
    lift[system.dirichlet_idx] = system.dirichlet_values
    rhs = reduce_rhs(system.stiffness, system.load, free, lift)
    return ReducedSystem(
        reduced, rhs, free, system.dirichlet_idx, system.dirichlet_values, n
    )
