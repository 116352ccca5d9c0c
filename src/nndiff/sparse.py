"""Instrumented CSR matrices, vector kernels, preconditioners, and CG.

Every kernel reports its FLOP count and its modeled main-memory traffic to
an :class:`OpLedger`, from one table, :data:`KERNEL_COSTS`.  Byte counts
follow a perfect-cache streaming model (each matrix/vector element fetched
from memory exactly once; integers are 4 bytes, doubles 8 bytes).
``ilu0_apply`` covers one forward plus one backward triangular solve; the
factors live in the matrix pattern, so the streamed volume is modeled with
the spmv formula.  ``median`` (bound clamping) and ``proj_grad`` are
streaming kernels used by the bound-constrained solvers; comparisons are
not counted as FLOPs.

A :class:`CsrMatrix` is one scipy CSR matrix, stored once; its index arrays
are the 4-byte integers above while n and nnz are below 2**31, else int64.

Ledgers are plain per-solve objects: solvers never share mutable state, so
independent solves may run concurrently.
"""

from __future__ import annotations

import io
import re
import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix as _scipy_csr
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
from scipy.sparse._sparsetools import csr_sample_offsets as _csr_sample_offsets

from .errors import (
    DimensionError,
    FactorizationError,
    ParseError,
    SolverBreakdownError,
)

INT_BYTES = 4
FLOAT_BYTES = 8

# Block sizes: sorted positions (sorted_runs) or runs (CooPattern.matrix)
# per block, and steps per block of ILU(0)'s symbolic pass (about 7
# candidate pairs each at n = 27); one block's temporaries stay a few MiB.
_BLOCK = 1 << 14
_ILU0_BLOCK = 1 << 13


# kernel -> (FLOPs, modeled bytes) of one call on length-n vectors and, for
# the matrix kernels, a matrix with nz stored entries
KERNEL_COSTS = {
    "norm": lambda n, nz: (2 * n, FLOAT_BYTES * (n + 1)),
    "dot": lambda n, nz: (2 * n, FLOAT_BYTES * (2 * n + 1)),
    "copy": lambda n, nz: (0, FLOAT_BYTES * 2 * n),
    "scale": lambda n, nz: (n, FLOAT_BYTES * 2 * n),
    "axpy": lambda n, nz: (2 * n, FLOAT_BYTES * 3 * n),
    "aypx": lambda n, nz: (2 * n, FLOAT_BYTES * 3 * n),
    "spmv": lambda n, nz: (2 * nz, INT_BYTES * (n + nz) + FLOAT_BYTES * (2 * n + nz)),
    "jacobi_setup": lambda n, nz: (n, FLOAT_BYTES * 2 * n),
    "jacobi_apply": lambda n, nz: (n, FLOAT_BYTES * 3 * n),
    "ilu0_apply": lambda n, nz: KERNEL_COSTS["spmv"](n, nz),
    "median": lambda n, nz: (0, FLOAT_BYTES * 4 * n),
    "proj_grad": lambda n, nz: (0, FLOAT_BYTES * 5 * n),
}


# ---------------------------------------------------------------------------
# Operation ledger
# ---------------------------------------------------------------------------

class OpLedger:
    """Accumulates FLOP and modeled-byte counts, per kernel and in total.

    :meth:`count` charges ``calls`` calls of a :data:`KERNEL_COSTS` kernel
    by their sizes alone, one dict increment; the counts are priced and
    folded into the tallies when the ledger is read.  :meth:`record` adds
    one call whose cost is given, for costs that depend on the data.
    """

    def __init__(self):
        self._tally: dict[str, dict] = {}
        self._counts: dict[tuple, int] = {}

    def count(self, kernel: str, n: int, nz: int = 0, calls: int = 1) -> None:
        key = (kernel, n, nz)
        self._counts[key] = self._counts.get(key, 0) + calls

    def record(self, kernel: str, flops: float, nbytes: float) -> None:
        self._add(kernel, 1, flops, nbytes)

    def _add(self, kernel, calls, flops, nbytes) -> None:
        t = self._tally.setdefault(kernel, {"calls": 0, "flops": 0, "bytes": 0})
        t["calls"] += calls
        t["flops"] += flops
        t["bytes"] += nbytes

    def _folded(self) -> dict[str, dict]:
        for (kernel, n, nz), calls in self._counts.items():
            flops, nbytes = KERNEL_COSTS[kernel](n, nz)
            self._add(kernel, calls, calls * flops, calls * nbytes)
        self._counts.clear()
        return self._tally

    @property
    def flops(self) -> int:
        return sum(t["flops"] for t in self._folded().values())

    @property
    def bytes(self) -> int:
        return sum(t["bytes"] for t in self._folded().values())

    def breakdown(self) -> dict[str, dict]:
        """Kernel name -> a copy of its ``{"calls", "flops", "bytes"}`` tally."""
        return {k: dict(t) for k, t in self._folded().items()}

    def __repr__(self) -> str:
        return f"OpLedger(flops={self.flops}, bytes={self.bytes}, kernels={len(self._folded())})"


# ---------------------------------------------------------------------------
# Vector kernels
# ---------------------------------------------------------------------------

def _mismatch(m, n) -> DimensionError:
    return DimensionError(f"vector length mismatch: {m} != {n}")


def norm2(x, ledger: OpLedger | None = None) -> float:
    if ledger is not None:
        ledger.count("norm", len(x))
    return float(np.sqrt(np.dot(x, x)))


def dot(x, y, ledger: OpLedger | None = None) -> float:
    n = len(x)
    if len(y) != n:
        raise _mismatch(len(y), n)
    if ledger is not None:
        ledger.count("dot", n)
    return float(np.dot(x, y))


def vec_copy(x, ledger: OpLedger | None = None) -> np.ndarray:
    if ledger is not None:
        ledger.count("copy", len(x))
    return np.array(x, dtype=np.float64)


def scale(y, a: float, ledger: OpLedger | None = None) -> np.ndarray:
    if ledger is not None:
        ledger.count("scale", len(y))
    y *= a
    return y


def axpy(y, a: float, x, ledger: OpLedger | None = None) -> np.ndarray:
    """y <- a*x + y (in place)."""
    n = len(y)
    if len(x) != n:
        raise _mismatch(len(x), n)
    if ledger is not None:
        ledger.count("axpy", n)
    y += a * x
    return y


def aypx(y, a: float, x, ledger: OpLedger | None = None) -> np.ndarray:
    """y <- x + a*y (in place)."""
    n = len(y)
    if len(x) != n:
        raise _mismatch(len(x), n)
    if ledger is not None:
        ledger.count("aypx", n)
    y *= a
    y += x
    return y


# ---------------------------------------------------------------------------
# CSR matrix
# ---------------------------------------------------------------------------

class CsrMatrix:
    """Square sparse matrix in CSR form with sorted, unique column indices.

    The matrix is one ``scipy.sparse.csr_matrix`` and nothing else:
    ``row_offsets``, ``col_indices`` and ``values`` are its ``indptr``,
    ``indices`` and ``data``, ``n`` its order, and :meth:`as_scipy` returns
    it.  Index arrays are int32 while n and nnz are below 2**31 (scipy's own
    choice, and the 4-byte integers of the byte model), else int64.
    """

    __slots__ = ("_a",)

    def __init__(self, n, row_offsets, col_indices, values, validate: bool = True):
        n, cols = int(n), np.asarray(col_indices)
        try:  # scipy keeps index arrays already in its index type uncopied
            self._a = _scipy_csr((values, cols, row_offsets), shape=(n, n), dtype=np.float64)
        except ValueError as exc:
            raise DimensionError(f"invalid CSR arrays: {exc}") from None
        if validate:
            # scipy silently drops the entries past row_offsets[-1]
            if self.nnz != len(cols):
                raise DimensionError("row_offsets must end at nnz")
            self._validate()

    def _validate(self) -> None:
        try:
            self._a.check_format(full_check=True)
        except ValueError as exc:
            raise DimensionError(f"invalid CSR arrays: {exc}") from None
        if not self._a.has_canonical_format:
            raise DimensionError(
                "row_offsets must be nondecreasing and column indices sorted and unique per row"
            )

    # read-only views of the held matrix
    n = property(lambda self: self._a.shape[0])
    shape = property(lambda self: self._a.shape)
    nnz = property(lambda self: self._a.nnz)
    row_offsets = property(lambda self: self._a.indptr)
    col_indices = property(lambda self: self._a.indices)
    values = property(lambda self: self._a.data)

    @classmethod
    def from_coo(cls, n, rows, cols, vals) -> "CsrMatrix":
        """Build from triplets; duplicate (i, j) entries are summed.

        Each duplicate run is summed by ``np.add.reduceat`` in numpy's own
        order (not always left to right), so a fixed input ordering yields
        bit-identical matrices.
        """
        return CooPattern(n, rows, cols).matrix(vals)

    @classmethod
    def from_dense(cls, a) -> "CsrMatrix":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError("dense input must be square")
        rows, cols = np.nonzero(a)
        return cls.from_coo(a.shape[0], rows, cols, a[rows, cols])

    @classmethod
    def identity(cls, n) -> "CsrMatrix":
        return cls(n, np.arange(n + 1), np.arange(n), np.ones(n))

    def to_dense(self) -> np.ndarray:
        return self._a.toarray()

    def _row_index(self) -> np.ndarray:
        """The row of each stored entry, as int64."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.row_offsets))

    def diagonal(self) -> np.ndarray:
        return self._a.diagonal()

    def transpose(self) -> "CsrMatrix":
        t = self._a.T.tocsr()
        return CsrMatrix(self.n, t.indptr, t.indices, t.data, validate=False)

    def submatrix(self, keep) -> "CsrMatrix":
        """Symmetric extraction of the rows and columns listed in ``keep``
        (in any order, repeats allowed)."""
        sub = self._a[keep][:, keep]
        sub.sort_indices()
        return CsrMatrix(len(keep), sub.indptr, sub.indices, sub.data, validate=False)

    def as_scipy(self):
        """The scipy CSR matrix this matrix is."""
        return self._a

    def matvec_raw(self, x) -> np.ndarray:
        """Unlogged y = A x into a fresh array; use :func:`spmv` inside
        instrumented code.

        Calls scipy's compiled ``_sparsetools.csr_matvec``, the kernel that
        ``A @ x`` reaches, directly: the operator dispatch in front of it
        costs more than the product itself on the solvers' small matrices.
        Each row is summed left to right from 0.0, as ``A @ x`` sums it.
        """
        if len(x) != self.n:
            raise DimensionError(f"matvec dimension mismatch: {len(x)} != {self.n}")
        a, y = self._a, np.zeros(self.n)
        _csr_matvec(self.n, self.n, a.indptr, a.indices, a.data,
                    np.asarray(x, dtype=np.float64), y)
        return y

    def __repr__(self) -> str:
        return f"CsrMatrix(n={self.n}, nnz={self.nnz})"


def _counting_pass(keys, order) -> tuple[np.ndarray, np.ndarray]:
    """``order`` stably sorted by ``keys`` (one per entry of ``order``), and
    the position where each key's bucket begins.

    The pass is scipy's CSR->CSC transposition of a one-row matrix whose
    column indices are the keys and whose values are ``order``: a compiled
    O(len + range) bucket scatter that keeps equal keys in input order.
    Keys whose range would need more than four buckets per key are ranked
    first (``np.unique``), so memory stays O(len) for any key width.
    """
    lo, hi = int(keys.min()), int(keys.max())
    if hi - lo >= 4 * len(keys):
        uniq, keys = np.unique(keys, return_inverse=True)
        lo, hi = 0, len(uniq) - 1
    elif 0 < lo and hi < 4 * len(keys):
        lo = 0  # empty buckets below lo cost less than a shifted copy of the keys
    itype = np.int32 if max(len(keys), hi - lo + 1) < 2**31 else np.int64
    if lo:
        keys = np.subtract(keys, lo, out=np.empty(len(keys), dtype=itype), casting="unsafe")
    indptr = np.array([0, len(keys)], dtype=itype)
    col = _scipy_csr((order, keys.astype(itype, copy=False), indptr), shape=(1, hi - lo + 1)).tocsc()
    return col.data, col.indptr[:-1]


def sorted_runs(columns) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows of integer key columns by their stable lexicographic order.

    ``columns`` holds integer arrays of one size, each read in C order, the
    most significant first: the sorted vertex tuples of the mesh callers, or
    ``CooPattern``'s rows and columns.  Returns ``order``, the stable sort of
    the rows (the permutation ``np.lexsort(columns[::-1])`` gives) in int32
    while the rows fit, else int64, and ``starts`` (int64), the positions in
    ``order`` where each run of equal rows begins: run ``j`` is
    ``order[starts[j]:starts[j + 1]]``, its rows in input order, so
    ``order[starts]`` are the first occurrences.

    The sort is a least-significant-first radix sort with one stable
    counting pass per column, O(rows + range) each instead of a comparison
    sort; the last pass's buckets mark where the first column changes, and
    the other columns' changes are found ``_BLOCK`` positions at a time.  A
    column that is not one contiguous array (a broadcast view, say) is
    copied only while its pass, or that check, reads it.
    """
    columns = tuple(columns)
    n = columns[0].size if columns else 0
    order = np.arange(n, dtype=np.int32 if n < 2**31 else np.int64)
    if not n:
        return order, np.zeros(0, dtype=np.int64)
    for k, col in enumerate(reversed(columns)):
        keys = np.ravel(col)
        if k:
            keys = keys[order]  # the copy of a strided column is dropped here
        order, buckets = _counting_pass(keys, order)
    new_run = np.zeros(n, dtype=bool)
    new_run[buckets[buckets < n]] = True
    for col in columns[1:]:
        keys = np.ravel(col)
        for s in range(1, n, _BLOCK):
            c = keys[order[s - 1:s + _BLOCK]]
            new_run[s:s + _BLOCK] |= c[1:] != c[:-1]
    return order, np.flatnonzero(new_run)


def _stored(a: np.ndarray) -> np.ndarray:
    """``a`` with each zero-stride (broadcast) axis cut to length 1: the same
    set of values, each stored element read once."""
    return a[tuple(slice(0, 1) if s == 0 else slice(None) for s in a.strides)]


class CooPattern:
    """The CSR pattern of fixed (rows, cols) triplets, sorted once.

    The triplets are grouped by :func:`sorted_runs` over the two columns
    (rows, cols), whose stable order is the (row, col) lexicographic one;
    each entry's row and column are those of the first triplet of its run.
    :meth:`matrix` sums duplicate entries exactly as
    :meth:`CsrMatrix.from_coo` does, so matrices built from one pattern
    (the stiffness and capacity of one mesh) pay for one sort and share
    their index arrays.
    """

    def __init__(self, n, rows, cols):
        rows, cols = np.asarray(rows), np.asarray(cols)
        if rows.size != cols.size:
            raise DimensionError("coo triplet arrays must have equal length")
        # checked before the narrowing cast below, so no index wraps into range
        if rows.size and any(v.min() < 0 or v.max() >= n for v in map(_stored, (rows, cols))):
            raise DimensionError("coo index out of range")
        self.n = int(n)
        # int32 while indices and offsets fit: half the sort's memory traffic,
        # and the CSR arrays are in the index type scipy keeps uncopied.  The
        # rows stay a view of their stored values, copied whole only while
        # the rows' pass runs; the columns are read by every step.
        itype = np.int32 if max(self.n, rows.size) < 2**31 else np.int64
        stored = _stored(rows).astype(itype, copy=False)
        rows = np.broadcast_to(stored, rows.shape)
        cols = cols.astype(itype, order="C", copy=False).ravel()
        self._order, self._starts = sorted_runs((rows, cols))
        self.col_indices = cols[self._order[self._starts]]
        # row i's runs begin at the run of its first triplet, which follows the
        # triplets of the rows below i, counted on the stored rows (a
        # broadcast view repeats each of them evenly)
        before = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(stored.ravel(), minlength=self.n), out=before[1:])
        before *= rows.size // max(stored.size, 1)
        self.row_offsets = np.searchsorted(self._starts, before).astype(itype)

    def matrix(self, vals) -> CsrMatrix:
        """The matrix of one value per triplet; duplicates are summed ``_BLOCK`` runs at a time."""
        vals = np.asarray(vals, dtype=np.float64).ravel()
        order, starts = self._order, self._starts
        if len(vals) != len(order):
            raise DimensionError("coo triplet arrays must have equal length")
        summed = np.empty(len(starts))
        for j in range(0, len(starts), _BLOCK):
            e0, e1 = starts[j], starts[j + _BLOCK] if j + _BLOCK < len(starts) else len(vals)
            block = vals[order[e0:e1].astype(np.intp)]  # numpy gathers fastest by intp
            summed[j:j + _BLOCK] = np.add.reduceat(block, starts[j:j + _BLOCK] - e0)
        return CsrMatrix(self.n, self.row_offsets, self.col_indices, summed, validate=False)


def add_scaled(alpha: float, a: CsrMatrix, beta: float, b: CsrMatrix) -> CsrMatrix:
    """alpha*A + beta*B; the result pattern is the union of both patterns."""
    if a.n != b.n:
        raise DimensionError("matrix dimension mismatch in add_scaled")
    if np.array_equal(a.row_offsets, b.row_offsets) and np.array_equal(
        a.col_indices, b.col_indices
    ):
        # each union entry would sum alpha*a_ij then beta*b_ij: the same sum
        values = alpha * a.values + beta * b.values
        return CsrMatrix(a.n, a.row_offsets, a.col_indices, values, validate=False)
    rows = np.concatenate([a._row_index(), b._row_index()])
    cols = np.concatenate([a.col_indices, b.col_indices])
    vals = np.concatenate([alpha * a.values, beta * b.values])
    return CsrMatrix.from_coo(a.n, rows, cols, vals)


def spmv(a: CsrMatrix, x, ledger: OpLedger | None = None) -> np.ndarray:
    """y = A x with 2*nz FLOPs and the CSR streaming byte model."""
    y = a.matvec_raw(x)
    if ledger is not None:
        ledger.count("spmv", a.n, a.nnz)
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
            ledger.count("jacobi_setup", a.n)

    def apply(self, r, ledger: OpLedger | None = None) -> np.ndarray:
        n = len(self._inv_diag)
        if len(r) != n:
            raise _mismatch(len(r), n)
        if ledger is not None:
            ledger.count("jacobi_apply", n)
        return r * self._inv_diag


def _ranges(starts, stops) -> np.ndarray:
    """The concatenation of ``arange(starts[j], stops[j])`` over every j."""
    lengths = stops - starts
    shift = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return shift + np.arange(len(shift))


def _wavefronts(n, lower_rows, lower_cols) -> np.ndarray:
    """Level of each row: 0 without strictly-lower entries, else one more than
    the highest level among the rows its lower entries sit in."""
    dependents = lower_rows[np.argsort(lower_cols, kind="stable")]
    dep_offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(lower_cols, minlength=n), out=dep_offs[1:])
    waiting = np.bincount(lower_rows, minlength=n)
    level = np.empty(n, dtype=np.int64)
    front, depth = np.flatnonzero(waiting == 0), 0
    while len(front):
        level[front] = depth
        rows, freed = np.unique(
            dependents[_ranges(dep_offs[front], dep_offs[front + 1])], return_counts=True
        )
        waiting[rows] -= freed
        front, depth = rows[waiting[rows] == 0], depth + 1
    return level


def ilu0_factor(a: CsrMatrix) -> tuple[np.ndarray, int]:
    """ILU(0) of ``a``: the factor values in its CSR order, and the FLOPs spent.

    Entries strictly below the diagonal hold L (whose unit diagonal is not
    stored), the others hold U.  Row i eliminates its lower entries k in
    increasing column order: l_ik = a_ik / u_kk, then a_ij -= l_ik * u_kj
    for every j > k in row k's pattern that is also in row i's.  Rows are
    scheduled by wavefront level (Saad, *Iterative Methods for Sparse
    Linear Systems*, 2nd ed.; Anderson & Saad 1989): a row
    depends only on rows of lower levels, so all rows of one level take
    their p-th elimination step together, one vectorised step per
    (level, p).  Every entry sees the same operations in the same order
    as in a row-by-row loop, so the values are bit-identical to it.
    """
    n, offs, cols = a.n, a.row_offsets, a.col_indices
    row_idx = a._row_index()
    diag_pos = np.full(n, -1, dtype=np.int64)
    on_diag = row_idx == cols
    diag_pos[cols[on_diag]] = np.flatnonzero(on_diag)
    missing = np.flatnonzero(diag_pos < 0)
    if missing.size:
        raise FactorizationError(f"missing diagonal entry in row {missing[0]}")

    # symbolic pass: one step per lower entry (row i, position p in the row),
    # ordered by (level of i, p); one (target, source) pair per u_kj it uses,
    # for a block of steps at a time.  scipy's csr_sample_offsets finds each
    # a_ij by a search in row i alone, or -1 when row i holds no entry j.
    step = np.flatnonzero(cols < row_idx)
    step_row = row_idx[step]
    level = _wavefronts(n, step_row, cols[step])
    order, starts = sorted_runs((level[step_row], step - offs[step_row]))
    itype = cols.dtype  # positions in the CSR arrays fit their index type
    step, step_row = step[order], step_row[order].astype(itype)
    pivot, stop = diag_pos[cols[step]], offs[cols[step] + 1]
    pairs = [(np.zeros(0, dtype=itype),) * 3]
    for s0 in range(0, len(step), _ILU0_BLOCK):
        blk = slice(s0, s0 + _ILU0_BLOCK)
        source = _ranges(pivot[blk] + 1, stop[blk])
        owner = np.repeat(np.arange(s0, s0 + len(pivot[blk]), dtype=itype),
                          stop[blk] - pivot[blk] - 1)
        target = np.empty(len(source), dtype=itype)
        _csr_sample_offsets(n, n, offs, cols, len(source), step_row[owner], cols[source], target)
        hit = target >= 0
        pairs.append((source[hit].astype(itype), owner[hit], target[hit]))
    source, owner, target = (np.concatenate(p) for p in zip(*pairs))
    del pairs
    starts = np.append(starts, len(step))
    pair_starts = np.searchsorted(owner, starts)

    # numeric pass; a zero pivot feeds inf/nan only into later rows, so the
    # lowest row with a zero pivot is the one a row-by-row loop stops at
    val = a.values.copy()
    lik = np.empty(len(step))
    with np.errstate(divide="ignore", invalid="ignore"):
        for s0, s1, q0, q1 in zip(starts[:-1], starts[1:], pair_starts[:-1], pair_starts[1:]):
            idx = step[s0:s1]
            lik[s0:s1] = val[idx] / val[pivot[s0:s1]]
            val[idx] = lik[s0:s1]
            val[target[q0:q1]] -= lik[owner[q0:q1]] * val[source[q0:q1]]
    zero = np.flatnonzero(val[diag_pos] == 0.0)
    if zero.size:
        raise FactorizationError(f"zero pivot in row {zero[0]}")
    return val, len(step) + 2 * len(target)


class Ilu0Preconditioner:
    """Incomplete LU with zero fill: factors confined to the pattern of A.

    The factorization is :func:`ilu0_factor`: level-scheduled, with the
    operations of a row-by-row loop in the same order, so bit-identical to
    it.  ``apply`` is a forward solve with unit-diagonal L and a backward
    solve with U: two calls to SuperLU's ``gstrs`` on the operands that
    ``scipy.sparse.linalg.spsolve_triangular`` builds on every call, so its
    result is bit-identical to ``spsolve_triangular``'s.  The factors sit in
    A's sorted CSR pattern, diagonal included, and CSR arrays are those of
    the CSC transpose that ``gstrs`` solves, so each operand is one mask.
    """

    def __init__(self, a: CsrMatrix, ledger: OpLedger | None = None):
        # imported on first use: no other solve path loads scipy.sparse.linalg
        from scipy.sparse.linalg._dsolve._superlu import gstrs

        self._gstrs = gstrs
        val, flops = ilu0_factor(a)
        n, cols, row_idx = a.n, a.col_indices, a._row_index()
        on_diag = cols == row_idx
        self.n = n
        self.nnz = a.nnz
        self._inv_diag = 1 / val[on_diag]

        def operand(mask, values):
            """(N, nnz, data, indices, indptr) of the masked entries, as ``gstrs`` takes them."""
            indptr = np.zeros(n + 1, dtype=np.intc)
            np.cumsum(np.bincount(row_idx[mask], minlength=n), out=indptr[1:])
            return n, len(values), values, cols[mask].astype(np.intc, copy=False), indptr

        # L: the identity in gstrs's L slot, L with its unit diagonal stored as
        # 0 in the U slot.  U: U times its inverse diagonal in the L slot,
        # without the zeros that scipy's product with the diagonal drops.
        lower, l_val = cols <= row_idx, np.where(on_diag, 0.0, val)
        self._l_solve = operand(on_diag, np.ones(n)) + operand(lower, l_val[lower])
        u_val = val * self._inv_diag[cols]
        upper = (cols >= row_idx) & (u_val != 0)
        self._u_solve = operand(upper, u_val[upper]) + operand(np.zeros_like(upper), np.empty(0))
        if ledger is not None:  # the factors stream like one spmv
            ledger.record("ilu0_setup", flops, KERNEL_COSTS["spmv"](n, self.nnz)[1])

    def apply(self, r, ledger: OpLedger | None = None) -> np.ndarray:
        if len(r) != self.n:
            raise DimensionError("preconditioner dimension mismatch")
        # both solves are of the transposed CSC factors ("T"), as in scipy
        y, info_l = self._gstrs("T", *self._l_solve, np.array(r, dtype=np.float64))
        z, info_u = self._gstrs("T", *self._u_solve, y)
        if info_l or info_u:
            raise FactorizationError("triangular solve failed")
        if ledger is not None:
            ledger.count("ilu0_apply", self.n, self.nnz)
        return z * self._inv_diag


PRECONDITIONERS = ("none", "jacobi", "ilu0")


def make_preconditioner(a: CsrMatrix, name: str | None, ledger: OpLedger | None = None):
    """The preconditioner named in :data:`PRECONDITIONERS`; None means "none"."""
    if name not in (None, *PRECONDITIONERS):
        raise ValueError(f"unknown preconditioner {name!r}; use {PRECONDITIONERS}")
    if name == "jacobi":
        return JacobiPreconditioner(a, ledger)
    if name == "ilu0":
        return Ilu0Preconditioner(a, ledger)
    return IdentityPreconditioner()


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
    f_start, b_start = ledger.flops, ledger.bytes

    def finish(status: str, iterations: int, **fields) -> SolveReport:
        flops, nbytes = ledger.flops, ledger.bytes
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
    updated recursively).  Exceeding ``maxit`` (default max(1000, 10 n))
    returns status "max-iter"; an indefinite direction (p'Ap <= 0) raises
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
        maxit = max(1000, 10 * a.n)
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
    """Write every stored entry as ``coordinate real general``; values round-trip exactly."""
    from scipy import io as scipy_io  # loaded only where MatrixMarket is used

    with open(path, "wb") as fh:  # given a name, scipy would add ".mtx" to it
        scipy_io.mmwrite(fh, a.as_scipy(), symmetry="general")


_BLANK = np.frombuffer(b" \t\r\n\v\f", dtype=np.uint8)


def _entry_lines(raw: bytes, nnz: int) -> tuple[np.ndarray, np.ndarray]:
    """1-based numbers and token counts of the entry lines of a file scipy has read.

    Such a file holds its entries on its last ``nnz`` non-blank lines, each
    with at least 3 tokens; scipy ignores any further ones.
    """
    b = np.frombuffer(raw, dtype=np.uint8)
    blank = np.isin(b, _BLANK)
    token_starts = np.flatnonzero(~blank & np.concatenate(([True], blank[:-1])))
    line_of_token = np.searchsorted(np.flatnonzero(b == ord("\n")), token_starts)
    lines, width = np.unique(line_of_token, return_counts=True)
    return lines[len(lines) - nnz:] + 1, width[len(width) - nnz:]


def read_matrix_market(path) -> CsrMatrix:
    """Read a square ``coordinate real general|symmetric`` file; duplicates are summed."""
    from scipy import io as scipy_io  # loaded only where MatrixMarket is used

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        nrows, ncols, nnz, layout, field, symmetry = scipy_io.mminfo(io.BytesIO(raw))
        kind = f"{layout} {field} {symmetry}"
        if kind not in ("coordinate real general", "coordinate real symmetric") or nrows != ncols:
            raise ParseError(
                f"need a square 'coordinate real general|symmetric' matrix, got "
                f"{nrows}x{ncols} '{kind}'", str(path), 1
            )
        # a symmetric file comes back with its off-diagonal entries mirrored
        coo = scipy_io.mmread(io.BytesIO(raw))
    except ValueError as exc:
        # scipy names the line, if at all, only in the message: "Line N: ..."
        at = re.match(r"Line (\d+): ", str(exc))
        raise ParseError(str(exc), str(path), int(at.group(1)) if at else 0) from None
    # scipy returns the file's entries in file order, a symmetric file's
    # mirrored ones after them
    lines, width = _entry_lines(raw, nnz)
    for bad, message in ((width != 3, "entry must be 'i j value'"),
                         (~np.isfinite(coo.data[:nnz]), "entry value is not finite")):
        if bad.any():
            raise ParseError(message, str(path), int(lines[np.argmax(bad)]))
    return CsrMatrix.from_coo(nrows, coo.row, coo.col, coo.data)
