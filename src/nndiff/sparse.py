"""Instrumented CSR matrices, vector kernels, preconditioners, and CG.

Every kernel reports its FLOP count and its modeled main-memory traffic to
an :class:`OpLedger`.  Byte counts follow a perfect-cache streaming model
(each matrix/vector element fetched from memory exactly once; integers are
4 bytes, doubles 8 bytes):

    kernel           flops     bytes
    ---------------  --------  ------------------------
    norm             2N        8(N + 1)
    dot              2N        8(2N + 1)
    copy             0         8(2N)
    set              0         8(2N)
    scale            N         8(2N)
    axpy             2N        8(3N)
    aypx             2N        8(3N)
    pointwise_mult   N         8(3N)
    spmv             2 nz      4(N + nz) + 8(2N + nz)
    jacobi_apply     N         8(3N)
    ilu0_apply       2 nz      4(N + nz) + 8(2N + nz)
    median           0         8(4N)
    proj_grad        0         8(5N)

``ilu0_apply`` covers one forward plus one backward triangular solve; the
factors live in the matrix pattern, so the streamed volume is modeled with
the spmv formula.  ``median`` (bound clamping) and ``proj_grad`` are
streaming kernels used by the bound-constrained solvers; comparisons are
not counted as FLOPs.

Ledgers are plain per-solve objects: solvers never share mutable state, so
independent solves may run concurrently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix as _scipy_csr
from scipy.sparse.linalg import spsolve_triangular as _spsolve_triangular

from .errors import (
    DimensionError,
    FactorizationError,
    ParseError,
    SolverBreakdownError,
)

INT_BYTES = 4
FLOAT_BYTES = 8


# ---------------------------------------------------------------------------
# Operation ledger
# ---------------------------------------------------------------------------

@dataclass
class KernelTally:
    calls: int = 0
    flops: int = 0
    bytes: int = 0


class OpLedger:
    """Accumulates FLOP and modeled-byte counts, per kernel and in total."""

    def __init__(self):
        self._tally: dict[str, KernelTally] = {}

    def record(self, kernel: str, flops: int, nbytes: int) -> None:
        t = self._tally.get(kernel)
        if t is None:
            t = self._tally[kernel] = KernelTally()
        t.calls += 1
        t.flops += int(flops)
        t.bytes += int(nbytes)

    @property
    def flops(self) -> int:
        return sum(t.flops for t in self._tally.values())

    @property
    def bytes(self) -> int:
        return sum(t.bytes for t in self._tally.values())

    def breakdown(self) -> dict[str, KernelTally]:
        return {k: KernelTally(t.calls, t.flops, t.bytes) for k, t in self._tally.items()}

    def totals(self) -> tuple[int, int]:
        return self.flops, self.bytes

    def __repr__(self) -> str:
        return f"OpLedger(flops={self.flops}, bytes={self.bytes}, kernels={len(self._tally)})"


# ---------------------------------------------------------------------------
# Vector kernels
# ---------------------------------------------------------------------------

def _check_same_length(*vecs) -> int:
    n = len(vecs[0])
    for v in vecs[1:]:
        if len(v) != n:
            raise DimensionError(f"vector length mismatch: {len(v)} != {n}")
    return n


def norm2(x, ledger: OpLedger | None = None) -> float:
    n = len(x)
    if ledger is not None:
        ledger.record("norm", 2 * n, FLOAT_BYTES * (n + 1))
    return float(np.sqrt(np.dot(x, x)))


def dot(x, y, ledger: OpLedger | None = None) -> float:
    n = _check_same_length(x, y)
    if ledger is not None:
        ledger.record("dot", 2 * n, FLOAT_BYTES * (2 * n + 1))
    return float(np.dot(x, y))


def vec_copy(x, ledger: OpLedger | None = None) -> np.ndarray:
    n = len(x)
    if ledger is not None:
        ledger.record("copy", 0, FLOAT_BYTES * 2 * n)
    return np.array(x, dtype=np.float64)


def vec_set(y, a: float, ledger: OpLedger | None = None) -> np.ndarray:
    n = len(y)
    if ledger is not None:
        ledger.record("set", 0, FLOAT_BYTES * 2 * n)
    y[...] = a
    return y


def scale(y, a: float, ledger: OpLedger | None = None) -> np.ndarray:
    n = len(y)
    if ledger is not None:
        ledger.record("scale", n, FLOAT_BYTES * 2 * n)
    y *= a
    return y


def axpy(y, a: float, x, ledger: OpLedger | None = None) -> np.ndarray:
    """y <- a*x + y (in place)."""
    n = _check_same_length(y, x)
    if ledger is not None:
        ledger.record("axpy", 2 * n, FLOAT_BYTES * 3 * n)
    y += a * x
    return y


def aypx(y, a: float, x, ledger: OpLedger | None = None) -> np.ndarray:
    """y <- x + a*y (in place)."""
    n = _check_same_length(y, x)
    if ledger is not None:
        ledger.record("aypx", 2 * n, FLOAT_BYTES * 3 * n)
    y *= a
    y += x
    return y


def pointwise_mult(x, y, ledger: OpLedger | None = None) -> np.ndarray:
    """z_i = x_i * y_i."""
    n = _check_same_length(x, y)
    if ledger is not None:
        ledger.record("pointwise_mult", n, FLOAT_BYTES * 3 * n)
    return x * y


# ---------------------------------------------------------------------------
# CSR matrix
# ---------------------------------------------------------------------------

class CsrMatrix:
    """Square sparse matrix in CSR form with sorted, unique column indices."""

    __slots__ = ("n", "row_offsets", "col_indices", "values", "_nz_rows")

    def __init__(self, n, row_offsets, col_indices, values, validate: bool = True):
        self.n = int(n)
        self.row_offsets = np.ascontiguousarray(row_offsets, dtype=np.int64)
        self.col_indices = np.ascontiguousarray(col_indices, dtype=np.int64)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self._nz_rows = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        if self.row_offsets.shape != (self.n + 1,):
            raise DimensionError("row_offsets must have length n+1")
        if self.row_offsets[0] != 0 or self.row_offsets[-1] != len(self.col_indices):
            raise DimensionError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(self.row_offsets) < 0):
            raise DimensionError("row_offsets must be nondecreasing")
        if len(self.col_indices) != len(self.values):
            raise DimensionError("col_indices and values length mismatch")
        if self.col_indices.size:
            if self.col_indices.min() < 0 or self.col_indices.max() >= self.n:
                raise DimensionError("column index out of range")
            # sorted + unique within each row: strictly increasing except at row starts
            d = np.diff(self.col_indices)
            starts = self.row_offsets[1:-1] - 1
            interior = np.ones(len(d), dtype=bool)
            interior[starts[starts < len(d)]] = False
            if np.any(d[interior] <= 0):
                raise DimensionError("column indices must be sorted and unique per row")

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @classmethod
    def from_coo(cls, n, rows, cols, vals) -> "CsrMatrix":
        """Build from triplets; duplicate (i, j) entries are summed.

        Summation order within a duplicate run follows the input order, so
        a fixed input ordering yields bit-identical matrices.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if not (len(rows) == len(cols) == len(vals)):
            raise DimensionError("coo triplet arrays must have equal length")
        if len(rows) == 0:
            return cls(n, np.zeros(n + 1, dtype=np.int64), [], [])
        if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n:
            raise DimensionError("coo index out of range")
        order = np.lexsort((cols, rows))
        r, c, v = rows[order], cols[order], vals[order]
        new_run = np.empty(len(r), dtype=bool)
        new_run[0] = True
        new_run[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        starts = np.flatnonzero(new_run)
        summed = np.add.reduceat(v, starts)
        rr, cc = r[starts], c[starts]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.add.at(offsets, rr + 1, 1)
        np.cumsum(offsets, out=offsets)
        return cls(n, offsets, cc, summed, validate=False)

    @classmethod
    def from_dense(cls, a) -> "CsrMatrix":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError("dense input must be square")
        rows, cols = np.nonzero(a)
        return cls.from_coo(a.shape[0], rows, cols, a[rows, cols])

    @classmethod
    def identity(cls, n) -> "CsrMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls(n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[self._row_index(), self.col_indices] = self.values
        return a

    def _row_index(self) -> np.ndarray:
        if self._nz_rows is None:
            self._nz_rows = np.repeat(
                np.arange(self.n, dtype=np.int64), np.diff(self.row_offsets)
            )
        return self._nz_rows

    def diagonal(self) -> np.ndarray:
        d = np.zeros(self.n)
        on_diag = self._row_index() == self.col_indices
        d[self.col_indices[on_diag]] = self.values[on_diag]
        return d

    def transpose(self) -> "CsrMatrix":
        return CsrMatrix.from_coo(self.n, self.col_indices, self._row_index(), self.values)

    def submatrix(self, keep) -> "CsrMatrix":
        """Symmetric extraction of the rows and columns listed in ``keep``."""
        keep = np.asarray(keep, dtype=np.int64)
        new_id = np.full(self.n, -1, dtype=np.int64)
        new_id[keep] = np.arange(len(keep))
        r = new_id[self._row_index()]
        c = new_id[self.col_indices]
        m = (r >= 0) & (c >= 0)
        return CsrMatrix.from_coo(len(keep), r[m], c[m], self.values[m])

    def matvec_raw(self, x) -> np.ndarray:
        """Unlogged y = A x; use :func:`spmv` inside instrumented code."""
        if len(x) != self.n:
            raise DimensionError(f"matvec dimension mismatch: {len(x)} != {self.n}")
        prod = self.values * np.asarray(x, dtype=np.float64)[self.col_indices]
        return np.bincount(self._row_index(), weights=prod, minlength=self.n)

    def max_abs(self) -> float:
        return float(np.abs(self.values).max()) if self.nnz else 0.0

    def is_symmetric(self, rtol: float = 1e-12) -> bool:
        t = self.transpose()
        if not np.array_equal(t.row_offsets, self.row_offsets):
            return False
        if not np.array_equal(t.col_indices, self.col_indices):
            return False
        scale_ref = max(self.max_abs(), 1e-300)
        return float(np.abs(t.values - self.values).max(initial=0.0)) <= rtol * scale_ref

    def __repr__(self) -> str:
        return f"CsrMatrix(n={self.n}, nnz={self.nnz})"


def add_scaled(alpha: float, a: CsrMatrix, beta: float, b: CsrMatrix) -> CsrMatrix:
    """alpha*A + beta*B; the result pattern is the union of both patterns."""
    if a.n != b.n:
        raise DimensionError("matrix dimension mismatch in add_scaled")
    rows = np.concatenate([a._row_index(), b._row_index()])
    cols = np.concatenate([a.col_indices, b.col_indices])
    vals = np.concatenate([alpha * a.values, beta * b.values])
    return CsrMatrix.from_coo(a.n, rows, cols, vals)


def spmv(a: CsrMatrix, x, ledger: OpLedger | None = None) -> np.ndarray:
    """y = A x with 2*nz FLOPs and the CSR streaming byte model."""
    y = a.matvec_raw(x)
    if ledger is not None:
        n, nz = a.n, a.nnz
        ledger.record(
            "spmv", 2 * nz, INT_BYTES * (n + nz) + FLOAT_BYTES * (2 * n + nz)
        )
    return y


# ---------------------------------------------------------------------------
# Preconditioners
# ---------------------------------------------------------------------------

class IdentityPreconditioner:
    def apply(self, r, ledger: OpLedger | None = None) -> np.ndarray:
        return vec_copy(r, ledger)


class JacobiPreconditioner:
    """z = diag(A)^-1 r."""

    def __init__(self, a: CsrMatrix, ledger: OpLedger | None = None):
        d = a.diagonal()
        zero = np.flatnonzero(d == 0.0)
        if zero.size:
            raise FactorizationError(f"zero diagonal entry in row {zero[0]}")
        self._inv_diag = 1.0 / d
        if ledger is not None:
            ledger.record("jacobi_setup", a.n, FLOAT_BYTES * 2 * a.n)

    def apply(self, r, ledger: OpLedger | None = None) -> np.ndarray:
        n = _check_same_length(r, self._inv_diag)
        if ledger is not None:
            ledger.record("jacobi_apply", n, FLOAT_BYTES * 3 * n)
        return r * self._inv_diag


class Ilu0Preconditioner:
    """Incomplete LU with zero fill: factors confined to the pattern of A."""

    def __init__(self, a: CsrMatrix, ledger: OpLedger | None = None):
        n = a.n
        offs, cols = a.row_offsets, a.col_indices
        val = a.values.copy()
        diag_pos = np.full(n, -1, dtype=np.int64)
        on_diag = a._row_index() == cols
        diag_pos[cols[on_diag]] = np.flatnonzero(on_diag)
        missing = np.flatnonzero(diag_pos < 0)
        if missing.size:
            raise FactorizationError(f"missing diagonal entry in row {missing[0]}")

        flops = 0
        for i in range(n):
            lo, hi = offs[i], offs[i + 1]
            row_cols = cols[lo:hi]
            for idx in range(lo, hi):
                k = cols[idx]
                if k >= i:
                    break
                ukk = val[diag_pos[k]]
                if ukk == 0.0:
                    raise FactorizationError(f"zero pivot in row {k}")
                lik = val[idx] / ukk
                val[idx] = lik
                ks, ke = diag_pos[k] + 1, offs[k + 1]
                if ks < ke:
                    kcols = cols[ks:ke]
                    pos = lo + np.searchsorted(row_cols, kcols)
                    ok = pos < hi
                    ok[ok] &= cols[pos[ok]] == kcols[ok]
                    hit = pos[ok]
                    val[hit] -= lik * val[ks:ke][ok]
                    flops += 1 + 2 * len(hit)
                else:
                    flops += 1
            if val[diag_pos[i]] == 0.0:
                raise FactorizationError(f"zero pivot in row {i}")

        row_idx = a._row_index()
        lower = cols < row_idx
        upper = ~lower
        self.n = n
        self.nnz = a.nnz
        self._l = _scipy_csr(
            (val[lower], (row_idx[lower], cols[lower])), shape=(n, n)
        )
        self._u = _scipy_csr(
            (val[upper], (row_idx[upper], cols[upper])), shape=(n, n)
        )
        if ledger is not None:
            ledger.record(
                "ilu0_setup",
                flops,
                INT_BYTES * (n + self.nnz) + FLOAT_BYTES * (2 * n + self.nnz),
            )

    def apply(self, r, ledger: OpLedger | None = None) -> np.ndarray:
        if len(r) != self.n:
            raise DimensionError("preconditioner dimension mismatch")
        y = _spsolve_triangular(self._l, np.asarray(r, dtype=np.float64),
                                lower=True, unit_diagonal=True)
        z = _spsolve_triangular(self._u, y, lower=False)
        if ledger is not None:
            n, nz = self.n, self.nnz
            ledger.record(
                "ilu0_apply", 2 * nz,
                INT_BYTES * (n + nz) + FLOAT_BYTES * (2 * n + nz),
            )
        return z


def make_preconditioner(a: CsrMatrix, name: str, ledger: OpLedger | None = None):
    if name in (None, "none"):
        return IdentityPreconditioner()
    if name == "jacobi":
        return JacobiPreconditioner(a, ledger)
    if name == "ilu0":
        return Ilu0Preconditioner(a, ledger)
    raise ValueError(f"unknown preconditioner: {name!r}")


# ---------------------------------------------------------------------------
# Conjugate gradient
# ---------------------------------------------------------------------------

@dataclass
class SolveReport:
    """Outcome of one CG, tron or blmvm solve.

    ``iterations`` counts CG iterations or QP outer iterations;
    ``inner_iterations`` counts tron's inner CG iterations (0 elsewhere).
    ``residual_norm`` is the final residual norm of CG or the final
    projected-gradient norm of a QP solve; ``objective`` is 0 for CG.
    ``flops``, ``bytes`` and ``wall_time`` cover this solve only.
    """

    status: str  # converged | max-iter | boundary | breakdown
    iterations: int
    inner_iterations: int = 0
    residual_norm: float = 0.0
    objective: float = 0.0
    flops: int = 0
    bytes: int = 0
    wall_time: float = 0.0

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def outer_iterations(self) -> int:
        """Read-only alias of ``iterations`` for QP reports (bench/tracer.py reads it)."""
        return self.iterations


def start_report(ledger: OpLedger):
    """Begin a solve; the returned ``finish(status, iterations, **fields)``
    builds its :class:`SolveReport` with the work and time since now."""
    t_start = time.perf_counter()
    f_start, b_start = ledger.totals()

    def finish(status: str, iterations: int, **fields) -> SolveReport:
        flops, nbytes = ledger.totals()
        return SolveReport(
            status, iterations, flops=flops - f_start, bytes=nbytes - b_start,
            wall_time=time.perf_counter() - t_start, **fields,
        )

    return finish


def cg_solve(
    a: CsrMatrix,
    b,
    precond=None,
    rtol: float = 1e-6,
    maxit: int | None = None,
    x0=None,
    ledger: OpLedger | None = None,
    radius: float | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned CG on an SPD matrix.

    Terminates when ||b - A x||_2 <= rtol * ||b||_2 (true residual norm,
    updated recursively).  Exceeding ``maxit`` returns status "max-iter";
    an indefinite direction (p'Ap <= 0) raises
    :class:`SolverBreakdownError`.  With a trust ``radius`` the iterate
    starts at 0 and, when a step would leave the ball ||x|| <= radius,
    stops on its boundary with status "boundary" (Steihaug truncation);
    the reported residual norm is then the one before that last step.
    """
    b = np.asarray(b, dtype=np.float64)
    if a.n != len(b):
        raise DimensionError("cg_solve dimension mismatch")
    if radius is not None and x0 is not None:
        raise ValueError("a trust radius needs the cold start x0=None")
    if maxit is None:
        maxit = max(100, 10 * a.n)
    if ledger is None:
        ledger = OpLedger()
    if precond is None:
        precond = IdentityPreconditioner()
    finish = start_report(ledger)

    x = np.zeros(a.n)
    if x0 is None:
        r = vec_copy(b, ledger)
        bnorm = rnorm = norm2(r, ledger)
    else:
        bnorm = norm2(b, ledger)
    if bnorm == 0.0:
        return x, finish("converged", 0)
    if x0 is not None:
        x = vec_copy(x0, ledger)
        r = spmv(a, x, ledger)
        aypx(r, -1.0, b, ledger)  # r = b - A x
        rnorm = norm2(r, ledger)

    iterations = 0
    x_sq = 0.0  # ||x||^2, tracked only under a trust radius
    status = "max-iter"
    z = precond.apply(r, ledger)
    p = vec_copy(z, ledger)
    rz = dot(r, z, ledger)

    while rnorm > rtol * bnorm and iterations < maxit:
        ap = spmv(a, p, ledger)
        pap = dot(p, ap, ledger)
        if pap <= 0.0:
            raise SolverBreakdownError(
                f"non-positive curvature p'Ap = {pap:g} at iteration {iterations}"
            )
        alpha = rz / pap
        if radius is not None:
            xp = dot(x, p, ledger)
            pp = dot(p, p, ledger)
            # the test and the update below round differently on purpose:
            # tron's iterates depend on both forms bit for bit
            if x_sq + 2.0 * alpha * xp + alpha * alpha * pp >= radius * radius:
                # step to the boundary and stop
                tau = (-xp + np.sqrt(xp * xp + pp * (radius * radius - x_sq))) / pp
                axpy(x, tau, p, ledger)
                iterations += 1
                status = "boundary"
                break
            x_sq += 2.0 * alpha * xp + alpha * alpha * pp
        axpy(x, alpha, p, ledger)
        axpy(r, -alpha, ap, ledger)
        rnorm = norm2(r, ledger)
        iterations += 1
        if rnorm <= rtol * bnorm:
            break
        z = precond.apply(r, ledger)
        rz_new = dot(r, z, ledger)
        aypx(p, rz_new / rz, z, ledger)  # p = z + beta p
        rz = rz_new

    if status == "max-iter" and rnorm <= rtol * bnorm:
        status = "converged"
    return x, finish(status, iterations, residual_norm=rnorm)


# ---------------------------------------------------------------------------
# MatrixMarket I/O (coordinate format)
# ---------------------------------------------------------------------------

def write_matrix_market(a: CsrMatrix, path) -> None:
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{a.n} {a.n} {a.nnz}\n")
        rows = a._row_index()
        for i, j, v in zip(rows, a.col_indices, a.values):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")


def read_matrix_market(path) -> CsrMatrix:
    with open(path) as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError("empty file", str(path), 1)
    header = lines[0].split()
    if len(header) < 5 or header[0] != "%%MatrixMarket":
        raise ParseError("missing MatrixMarket header", str(path), 1)
    if header[1:4] != ["matrix", "coordinate", "real"]:
        raise ParseError(f"unsupported format {' '.join(header[1:4])!r}", str(path), 1)
    symmetry = header[4]
    if symmetry not in ("general", "symmetric"):
        raise ParseError(f"unsupported symmetry {symmetry!r}", str(path), 1)

    ln = 1
    while ln < len(lines) and (lines[ln].startswith("%") or not lines[ln].strip()):
        ln += 1
    if ln >= len(lines):
        raise ParseError("missing size line", str(path), ln)
    sizes = lines[ln].split()
    if len(sizes) != 3:
        raise ParseError("size line must be 'nrows ncols nnz'", str(path), ln + 1)
    nrows, ncols, nnz = (int(s) for s in sizes)
    if nrows != ncols:
        raise ParseError("only square matrices are supported", str(path), ln + 1)

    rows, cols, vals = [], [], []
    count = 0
    for k in range(ln + 1, len(lines)):
        s = lines[k].strip()
        if not s or s.startswith("%"):
            continue
        parts = s.split()
        if len(parts) != 3:
            raise ParseError("entry must be 'i j value'", str(path), k + 1)
        try:
            i, j, v = int(parts[0]) - 1, int(parts[1]) - 1, float(parts[2])
        except ValueError:
            raise ParseError(f"malformed entry {s!r}", str(path), k + 1)
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise ParseError(f"index out of range in entry {s!r}", str(path), k + 1)
        rows.append(i)
        cols.append(j)
        vals.append(v)
        if symmetry == "symmetric" and i != j:
            rows.append(j)
            cols.append(i)
            vals.append(v)
        count += 1
    if count != nnz:
        raise ParseError(f"expected {nnz} entries, found {count}", str(path), len(lines))
    return CsrMatrix.from_coo(nrows, rows, cols, vals)
