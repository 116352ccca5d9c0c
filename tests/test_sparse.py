import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve_triangular

from nndiff.errors import (
    DimensionError,
    FactorizationError,
    ParseError,
    SolverBreakdownError,
)
from nndiff.sparse import (
    CooPattern,
    CsrMatrix,
    Ilu0Preconditioner,
    JacobiPreconditioner,
    OpLedger,
    add_scaled,
    axpy,
    aypx,
    cg_solve,
    dot,
    ilu0_factor,
    make_preconditioner,
    norm2,
    read_matrix_market,
    scale,
    sorted_runs,
    spmv,
    vec_copy,
    write_matrix_market,
)
from golden import apply_inputs, reduced_matrix


def random_spd(n, rng, shift=None):
    a = rng.standard_normal((n, n))
    if shift is None:
        shift = n
    return a.T @ a + shift * np.eye(n)


def random_sparse_spd(n, rng, density=0.1, shift=None):
    a = rng.standard_normal((n, n))
    a[rng.random((n, n)) > density] = 0.0
    dense = a.T @ a + (shift if shift is not None else n) * np.eye(n)
    return CsrMatrix.from_dense(dense), dense


# ---------------------------------------------------------------------------
# Ledger byte/flop accounting
# ---------------------------------------------------------------------------

class TestLedger:
    def test_dot_bytes_n1(self):
        led = OpLedger()
        dot(np.ones(1), np.ones(1), led)
        assert led.bytes == 24

    def test_norm_zero_vector_n5(self):
        led = OpLedger()
        assert norm2(np.zeros(5), led) == 0.0
        assert led.bytes == 48

    def test_axpy_zero_coefficient(self):
        led = OpLedger()
        y = np.arange(4.0)
        axpy(y, 0.0, np.ones(4), led)
        assert np.array_equal(y, np.arange(4.0))
        assert led.bytes == 24 * 4

    def test_spmv_byte_formula(self):
        rng = np.random.default_rng(3)
        n, nz_target = 100, 500
        rows = rng.integers(0, n, nz_target)
        cols = rng.integers(0, n, nz_target)
        a = CsrMatrix.from_coo(n, rows, cols, rng.standard_normal(nz_target))
        led = OpLedger()
        spmv(a, np.ones(n), led)
        nz = a.nnz
        assert led.bytes == 4 * (n + nz) + 8 * (2 * n + nz)
        assert led.flops == 2 * nz

    def test_all_kernel_formulas(self):
        n = 17
        x, y = np.ones(n), np.ones(n)
        cases = {
            "norm": (lambda led: norm2(x, led), 2 * n, 8 * (n + 1)),
            "dot": (lambda led: dot(x, y, led), 2 * n, 8 * (2 * n + 1)),
            "copy": (lambda led: vec_copy(x, led), 0, 16 * n),
            "scale": (lambda led: scale(y.copy(), 2.0, led), n, 16 * n),
            "axpy": (lambda led: axpy(y.copy(), 2.0, x, led), 2 * n, 24 * n),
            "aypx": (lambda led: aypx(y.copy(), 2.0, x, led), 2 * n, 24 * n),
        }
        for name, (fn, flops, nbytes) in cases.items():
            led = OpLedger()
            fn(led)
            assert led.flops == flops, name
            assert led.bytes == nbytes, name
            assert list(led.breakdown()) == [name]

    def test_scripted_sequence_totals_match_closed_form(self):
        # ledger totals must equal the independently summed per-op formulas
        rng = np.random.default_rng(11)
        led = OpLedger()
        expect_flops = expect_bytes = 0
        for _ in range(200):
            n = int(rng.integers(1, 40))
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            op = rng.integers(0, 4)
            if op == 0:
                norm2(x, led)
                expect_flops += 2 * n
                expect_bytes += 8 * (n + 1)
            elif op == 1:
                dot(x, y, led)
                expect_flops += 2 * n
                expect_bytes += 8 * (2 * n + 1)
            elif op == 2:
                axpy(y, 0.5, x, led)
                expect_flops += 2 * n
                expect_bytes += 24 * n
            else:
                scale(y, 1.5, led)
                expect_flops += n
                expect_bytes += 16 * n
        assert led.flops == expect_flops
        assert led.bytes == expect_bytes
        bd = led.breakdown()
        assert sum(t["flops"] for t in bd.values()) == expect_flops
        assert sum(t["bytes"] for t in bd.values()) == expect_bytes

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            dot(np.ones(3), np.ones(4))
        with pytest.raises(DimensionError):
            axpy(np.ones(3), 1.0, np.ones(2))


# ---------------------------------------------------------------------------
# CSR structure
# ---------------------------------------------------------------------------

class TestCsrMatrix:
    def test_from_coo_sums_duplicates(self):
        a = CsrMatrix.from_coo(2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0])
        assert a.nnz == 2
        assert a.to_dense()[0, 1] == 5.0

    def test_dense_roundtrip(self):
        rng = np.random.default_rng(0)
        d = rng.standard_normal((8, 8))
        d[rng.random((8, 8)) > 0.4] = 0.0
        assert np.array_equal(CsrMatrix.from_dense(d).to_dense(), d)

    def test_identity_spmv(self):
        a = CsrMatrix.identity(6)
        x = np.arange(6.0)
        assert np.array_equal(spmv(a, x), x)

    def test_spmv_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        a, dense = random_sparse_spd(50, rng, density=0.1)
        x = rng.standard_normal(50)
        assert np.max(np.abs(spmv(a, x) - dense @ x)) < 1e-13

    def test_diagonal_and_transpose(self):
        d = np.array([[1.0, 2.0], [0.0, 3.0]])
        a = CsrMatrix.from_dense(d)
        assert np.array_equal(a.diagonal(), [1.0, 3.0])
        assert np.array_equal(a.transpose().to_dense(), d.T)

    def test_submatrix(self):
        rng = np.random.default_rng(1)
        d = rng.standard_normal((6, 6))
        a = CsrMatrix.from_dense(d)
        keep = np.array([0, 2, 5])
        assert np.allclose(a.submatrix(keep).to_dense(), d[np.ix_(keep, keep)])

    def test_add_scaled_union_pattern(self):
        a = CsrMatrix.from_coo(3, [0, 1], [0, 2], [1.0, 1.0])
        b = CsrMatrix.from_coo(3, [1, 2], [2, 0], [2.0, 5.0])
        c = add_scaled(2.0, a, 1.0, b)
        assert c.nnz == 3
        assert c.to_dense()[1, 2] == 4.0

    def test_submatrix_repeated_index(self):
        a = CsrMatrix.from_dense([[4.0, 1.0, 0.0], [1.0, 5.0, 2.0], [0.0, 2.0, 6.0]])
        assert np.array_equal(a.submatrix([0, 0]).to_dense(), [[4.0, 4.0], [4.0, 4.0]])
        assert np.array_equal(a.submatrix([2, 1, 2]).to_dense(),
                              [[6.0, 2.0, 6.0], [2.0, 5.0, 2.0], [6.0, 2.0, 6.0]])

    def test_validation_rejects_bad_offsets(self):
        with pytest.raises(DimensionError):
            CsrMatrix(2, [0, 1], [0], [1.0])

    @pytest.mark.parametrize("n, offsets, cols, vals", [
        (2, [0, 1], [0], [1.0]),
        (2, [1, 1, 2], [0, 1], [1.0, 2.0]),
        (3, [0, 2, 1, 2], [0, 1], [1.0, 2.0]),
        (2, [0, 1, 1], [0, 1], [1.0, 2.0]),
        (2, [0, 1, 3], [0, 1], [1.0, 2.0]),
        (2, [0, 1, 2], [0, 2], [1.0, 2.0]),
        (2, [0, 1, 2], [0, -1], [1.0, 2.0]),
        (2, [0, 2, 2], [1, 0], [1.0, 2.0]),
        (2, [0, 2, 2], [1, 1], [1.0, 2.0]),
        (2, [0, 1, 2], [0, 1], [1.0]),
    ], ids=["offsets-length", "offsets-start", "offsets-decrease", "offsets-end-before-nnz",
            "offsets-end-after-nnz", "column-too-large", "column-negative",
            "columns-unsorted", "columns-repeated", "values-length"])
    def test_constructor_rejects_malformed_csr(self, n, offsets, cols, vals):
        """Offsets ending before nnz are the case scipy itself drops silently."""
        with pytest.raises(DimensionError):
            CsrMatrix(n, offsets, cols, vals)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: CsrMatrix.from_dense(np.ones((2, 3))), DimensionError, "must be square"),
        (lambda: CsrMatrix.from_dense(np.ones(3)), DimensionError, "must be square"),
        (lambda: CooPattern(3, [0, 1], [0]), DimensionError, "equal length"),
        (lambda: CooPattern(3, [0, 1], [0, 1]).matrix([1.0]), DimensionError, "equal length"),
        (lambda: add_scaled(1.0, CsrMatrix.identity(2), 1.0, CsrMatrix.identity(3)),
         DimensionError, "mismatch in add_scaled"),
        (lambda: JacobiPreconditioner(CsrMatrix.identity(3)).apply(np.ones(2)),
         DimensionError, "length mismatch: 2 != 3"),
        (lambda: Ilu0Preconditioner(CsrMatrix.identity(3)).apply(np.ones(4)),
         DimensionError, "preconditioner dimension mismatch"),
        (lambda: cg_solve(CsrMatrix.identity(3), np.ones(2)), DimensionError,
         "cg_solve dimension mismatch"),
        (lambda: make_preconditioner(CsrMatrix.identity(3), "ssor"), ValueError,
         "unknown preconditioner 'ssor'"),
    ], ids=["from-dense-rectangular", "from-dense-vector", "coo-lengths", "coo-values",
            "add-scaled-orders", "jacobi-apply", "ilu0-apply", "cg-rhs", "unknown-precond"])
    def test_shape_and_length_checks(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_as_scipy_holds_the_very_arrays(self):
        pattern = CooPattern(3, [0, 1, 1, 2, 0], [0, 1, 2, 2, 0])
        a = pattern.matrix([1.0, 2.0, 3.0, 4.0, 5.0])
        b = pattern.matrix([1.0, 1.0, 1.0, 1.0, 1.0])
        built = {
            "constructor": CsrMatrix(3, [0, 1, 3, 4], [0, 1, 2, 2], [1.0, 2.0, 3.0, 4.0]),
            "from_coo": CsrMatrix.from_coo(3, [2, 0], [1, 1], [1.0, 2.0]),
            "pattern": a,
            "submatrix": a.submatrix([2, 0, 2]),
            "add_scaled-same-pattern": add_scaled(2.0, a, 1.0, b),
            "add_scaled-union": add_scaled(2.0, a, 1.0, CsrMatrix.identity(3)),
        }
        for name, m in built.items():
            s = m.as_scipy()
            assert s.indptr is m.row_offsets, name
            assert s.indices is m.col_indices, name
            assert s.data is m.values, name
            assert m.row_offsets.dtype == m.col_indices.dtype == np.int32, name
        # one pattern's matrices, and their sum on it, store its index arrays once
        same = built["add_scaled-same-pattern"]
        for m in (a, b, same):
            assert np.shares_memory(m.col_indices, pattern.col_indices)
            assert np.shares_memory(m.row_offsets, pattern.row_offsets)

    def test_validation_accepts_leading_empty_rows(self):
        a = CsrMatrix(3, [0, 0, 1, 3], [2, 0, 1], [1.0, 2.0, 3.0])
        assert np.array_equal(a.to_dense(), [[0, 0, 0], [0, 0, 1], [2, 3, 0]])
        with pytest.raises(DimensionError, match="sorted"):
            CsrMatrix(3, [0, 0, 1, 3], [2, 1, 1], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# Preconditioners
# ---------------------------------------------------------------------------

class TestPreconditioners:
    def test_jacobi_on_identity(self):
        p = JacobiPreconditioner(CsrMatrix.identity(4))
        r = np.arange(4.0)
        assert np.array_equal(p.apply(r), r)

    def test_jacobi_zero_diagonal(self):
        a = CsrMatrix.from_coo(2, [0, 0, 1], [0, 1, 0], [1.0, 1.0, 1.0])
        with pytest.raises(FactorizationError, match="row 1"):
            JacobiPreconditioner(a)

    def test_ilu0_diagonal_equals_jacobi(self):
        d = np.diag([2.0, 4.0, 8.0])
        a = CsrMatrix.from_dense(d)
        r = np.array([1.0, 1.0, 1.0])
        assert np.array_equal(
            Ilu0Preconditioner(a).apply(r), JacobiPreconditioner(a).apply(r)
        )

    def test_ilu0_tridiagonal_exact(self):
        # tridiagonal has no fill, so ILU(0) must equal the full factorization
        n = 10
        main = np.full(n, 4.0)
        off = np.full(n - 1, -1.0)
        dense = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
        a = CsrMatrix.from_dense(dense)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(n)
        p = Ilu0Preconditioner(a)
        assert np.max(np.abs(p.apply(dense @ x) - x)) < 1e-12

        # independent dense Doolittle factorization oracle
        lo = np.eye(n)
        up = dense.copy()
        for k in range(n - 1):
            for i in range(k + 1, n):
                if up[i, k] != 0.0:
                    lo[i, k] = up[i, k] / up[k, k]
                    up[i, :] -= lo[i, k] * up[k, :]
        z_oracle = np.linalg.solve(up, np.linalg.solve(lo, x))
        assert np.max(np.abs(p.apply(x) - z_oracle)) < 1e-12

    def test_ilu0_zero_pivot_names_row(self):
        a = CsrMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(FactorizationError, match="row 0"):
            Ilu0Preconditioner(a)

    def test_ilu0_zero_pivot_raises_before_any_warning(self):
        # row 2 divides by row 1's zero pivot if the factorization goes on
        a = CsrMatrix.from_dense(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FactorizationError, match="zero pivot in row 1"):
                Ilu0Preconditioner(a)

    def test_ilu0_apply_bytes_match_spmv_formula(self):
        rng = np.random.default_rng(9)
        a, _ = random_sparse_spd(30, rng, density=0.2)
        p = Ilu0Preconditioner(a)
        led = OpLedger()
        p.apply(np.ones(30), led)
        n, nz = a.n, a.nnz
        assert led.bytes == 4 * (n + nz) + 8 * (2 * n + nz)


def _ilu0_reference(a):
    """Row-by-row ILU(0), the loop the level-scheduled factorization replaced:
    (factor values in the CSR order of ``a``, FLOPs), or FactorizationError."""
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
    return val, flops


def _factor_or_error(factor, a):
    try:
        return factor(a)
    except FactorizationError as exc:
        return str(exc)


@st.composite
def ilu0_matrices(draw):
    """A sparse SPD matrix of small integers times 0.3 (so sums round), stored
    with its whole diagonal; some with permuted rows (zero pivots likely),
    some diagonal-only, some with rows emptied left of the diagonal."""
    n = draw(st.integers(1, 10))
    b = np.array(draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n)),
                 dtype=float).reshape(n, n)
    b[np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)] = 0
    dense = 0.3 * (b.T @ b + draw(st.integers(0, 3)) * np.eye(n))
    kind = draw(st.sampled_from(["spd", "permuted", "diagonal", "no-lower-rows"]))
    if kind == "permuted":
        dense = dense[draw(st.permutations(range(n)))]
    elif kind == "diagonal":
        dense = np.diag(np.diag(dense))
    elif kind == "no-lower-rows":
        for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
            dense[i, :i] = 0.0
    rows, cols = np.nonzero(dense + np.eye(n))
    return CsrMatrix.from_coo(n, rows, cols, dense[rows, cols])


def _random_factored(seed, n=40, density=0.15):
    """A random nonsymmetric matrix with a dominant diagonal: random factors."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    dense += np.diag(n * (1.0 + rng.random(n)))
    return CsrMatrix.from_dense(dense)


def _scipy_triangular_apply(a, r):
    """Unit-lower L, then U, through the public ``spsolve_triangular``."""
    val, _ = ilu0_factor(a)
    rows = a._row_index()
    lower = a.col_indices < rows
    l_csr = csr_matrix((val[lower], (rows[lower], a.col_indices[lower])), shape=a.shape)
    u_csr = csr_matrix((val[~lower], (rows[~lower], a.col_indices[~lower])), shape=a.shape)
    y = spsolve_triangular(l_csr, np.asarray(r, dtype=float), lower=True, unit_diagonal=True)
    return spsolve_triangular(u_csr, y, lower=False)


class TestIlu0Oracle:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(ilu0_matrices())
    def test_level_schedule_matches_row_loop_bit_for_bit(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _factor_or_error(ilu0_factor, a)
        want = _factor_or_error(_ilu0_reference, a)
        if isinstance(want, str):
            assert got == want
            return
        assert not isinstance(got, str), got
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        led = OpLedger()
        Ilu0Preconditioner(a, led)
        assert led.breakdown()["ilu0_setup"]["flops"] == want[1]

    @pytest.mark.parametrize("seed", range(6))
    def test_apply_equals_spsolve_triangular_on_random_factors(self, seed):
        a = _random_factored(seed)
        r = np.random.default_rng(100 + seed).standard_normal(a.n)
        assert np.array_equal(Ilu0Preconditioner(a).apply(r), _scipy_triangular_apply(a, r))

    @pytest.mark.parametrize("case", ["hole-n18-tet4", "hole-n18-hex8"])
    def test_apply_equals_spsolve_triangular_on_galerkin_factors(self, case):
        a = reduced_matrix(case)
        p = Ilu0Preconditioner(a)
        for r in apply_inputs(a.n):
            assert np.array_equal(p.apply(r), _scipy_triangular_apply(a, r))

    def test_apply_keeps_r_and_takes_a_list(self):
        a = _random_factored(7, n=12)
        p = Ilu0Preconditioner(a)
        r = np.random.default_rng(8).standard_normal(12)
        kept = r.copy()
        z = p.apply(r)
        assert np.array_equal(r, kept)
        assert np.array_equal(p.apply(r.tolist()), z)
        assert np.array_equal(p.apply(r), z)


# ---------------------------------------------------------------------------
# Conjugate gradient
# ---------------------------------------------------------------------------

class TestCg:
    def test_zero_rhs(self):
        a = CsrMatrix.identity(5)
        x, rep = cg_solve(a, np.zeros(5))
        assert rep.iterations == 0 and rep.converged
        assert np.array_equal(x, np.zeros(5))

    def test_identity_one_iteration(self):
        a = CsrMatrix.identity(7)
        b = np.arange(1.0, 8.0)
        x, rep = cg_solve(a, b, rtol=1e-12)
        assert rep.iterations == 1 and rep.converged
        assert np.max(np.abs(x - b)) < 1e-14

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(30)
        dense = random_spd(30, rng, shift=30)
        a = CsrMatrix.from_dense(dense)
        b = rng.standard_normal(30)
        x, rep = cg_solve(a, b, rtol=1e-10)
        assert rep.converged
        assert np.max(np.abs(x - np.linalg.solve(dense, b))) < 1e-8

    @pytest.mark.parametrize("precond_name", ["jacobi", "ilu0"])
    def test_preconditioned_matches_plain(self, precond_name):
        rng = np.random.default_rng(42)
        a, _ = random_sparse_spd(120, rng, density=0.08)
        b = rng.standard_normal(120)
        x_plain, _ = cg_solve(a, b, rtol=1e-12)
        x_pc, rep = cg_solve(a, b, precond=make_preconditioner(a, precond_name),
                             rtol=1e-12)
        assert rep.converged
        assert np.max(np.abs(x_pc - x_plain)) < 1e-8

    def test_final_residual_below_initial(self):
        rng = np.random.default_rng(8)
        for seed in range(3):
            a, _ = random_sparse_spd(40, np.random.default_rng(seed))
            b = rng.standard_normal(40)
            _, rep = cg_solve(a, b, rtol=1e-8)
            assert rep.residual_norm < np.linalg.norm(b)

    def test_maxit_returns_nonconverged_report(self):
        rng = np.random.default_rng(12)
        dense = random_spd(50, rng, shift=0.01)
        a = CsrMatrix.from_dense(dense)
        x, rep = cg_solve(a, rng.standard_normal(50), rtol=1e-14, maxit=2)
        assert not rep.converged
        assert rep.iterations == 2

    def test_indefinite_breakdown(self):
        a = CsrMatrix.from_dense(np.diag([1.0, -1.0]))
        with pytest.raises(SolverBreakdownError):
            cg_solve(a, np.array([0.0, 1.0]))

    def test_warm_start_zero_iterations(self):
        rng = np.random.default_rng(4)
        dense = random_spd(10, rng)
        a = CsrMatrix.from_dense(dense)
        b = rng.standard_normal(10)
        x_exact = np.linalg.solve(dense, b)
        _, rep = cg_solve(a, b, x0=x_exact, rtol=1e-6)
        assert rep.iterations == 0 and rep.converged

    def test_report_ledger_delta(self):
        led = OpLedger()
        norm2(np.ones(100), led)  # pre-existing traffic
        before = (led.flops, led.bytes)
        a = CsrMatrix.identity(9)
        _, rep = cg_solve(a, np.ones(9), ledger=led)
        assert rep.flops == led.flops - before[0]
        assert rep.bytes == led.bytes - before[1]


@st.composite
def spd_systems(draw):
    """(dense SPD matrix, rhs, exact solution) with n <= 8."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = random_spd(n, rng, shift=draw(st.floats(0.05, 10.0)))
    b = rng.standard_normal(n)
    return dense, b, np.linalg.solve(dense, b)


class TestTrustRegionCg:
    """Steihaug truncation: the iterate never leaves the ball ||x|| <= radius."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(spd_systems(), st.floats(0.01, 2.0), st.sampled_from(["none", "jacobi"]))
    def test_stays_in_ball_and_boundary_is_exact(self, system, fraction, pc):
        dense, b, x_star = system
        a = CsrMatrix.from_dense(dense)
        radius = fraction * np.linalg.norm(x_star)
        x, rep = cg_solve(a, b, make_preconditioner(a, pc), rtol=1e-10, radius=radius)
        assert np.linalg.norm(x) <= radius * (1 + 1e-12)
        if rep.status == "boundary":
            assert abs(np.linalg.norm(x) - radius) <= 1e-12 * radius
        else:
            assert rep.converged

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(spd_systems(), st.sampled_from(["none", "jacobi"]))
    def test_far_radius_is_plain_cg(self, system, pc):
        dense, b, x_star = system
        a = CsrMatrix.from_dense(dense)
        precond = make_preconditioner(a, pc)
        x_plain, rep_plain = cg_solve(a, b, precond, rtol=1e-10)
        x, rep = cg_solve(a, b, precond, rtol=1e-10, radius=1e8 * np.linalg.norm(x_star))
        assert np.array_equal(x, x_plain)
        assert (rep.status, rep.iterations) == (rep_plain.status, rep_plain.iterations)

    def test_radius_needs_cold_start(self):
        with pytest.raises(ValueError, match="cold start"):
            cg_solve(CsrMatrix.identity(2), np.ones(2), x0=np.zeros(2), radius=1.0)


# ---------------------------------------------------------------------------
# CSR operations against dense oracles
# ---------------------------------------------------------------------------

@st.composite
def coo_triplets(draw, dyadic=True):
    """(n, rows, cols, vals) with duplicates likely.  Dyadic values (k/8,
    |k| <= 2^10) make every sum exact, so the dense oracle is exact too."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(0, 60))
    index = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    rows, cols = draw(index), draw(index)
    if dyadic:
        vals = [k / 8.0 for k in draw(st.lists(st.integers(-1024, 1024), min_size=m,
                                               max_size=m))]
    else:
        vals = draw(st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m))
    return n, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(vals)


def dense_of(n, rows, cols, vals):
    d = np.zeros((n, n))
    np.add.at(d, (rows, cols), vals)
    return d


def same_csr(a, b):
    return (a.n == b.n and np.array_equal(a.row_offsets, b.row_offsets)
            and np.array_equal(a.col_indices, b.col_indices)
            and np.array_equal(a.values, b.values))


def bincount_matvec(a, x):
    """The scatter product ``matvec_raw`` used before scipy's CSR product."""
    rows = np.repeat(np.arange(a.n), np.diff(a.row_offsets))
    return np.bincount(rows, weights=a.values * x[a.col_indices], minlength=a.n)


class TestCsrOracle:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(coo_triplets())
    def test_from_coo_sums_duplicates_exactly(self, coo):
        n, rows, cols, vals = coo
        a = CsrMatrix.from_coo(n, rows, cols, vals)
        a._validate()  # sorted, unique columns per row
        assert a.nnz == len(set(zip(rows.tolist(), cols.tolist())))
        assert np.array_equal(a.to_dense(), dense_of(n, rows, cols, vals))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(coo_triplets(), st.data())
    def test_submatrix_sorted_and_unsorted_keep(self, coo, data):
        """``keep`` in any order with repeats, or sorted and unique."""
        n, rows, cols, vals = coo
        a = CsrMatrix.from_coo(n, rows, cols, vals)
        keep = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)),
                        dtype=np.int64)
        if data.draw(st.booleans()):
            keep = np.unique(keep)
        sub = a.submatrix(keep)
        sub._validate()
        assert np.array_equal(sub.to_dense(), a.to_dense()[np.ix_(keep, keep)])
        # stored entries (explicit zeros too) are exactly those of the kept pairs
        stored, sub_stored = np.zeros((n, n), bool), np.zeros((len(keep),) * 2, bool)
        stored[a._row_index(), a.col_indices] = True
        sub_stored[sub._row_index(), sub.col_indices] = True
        assert np.array_equal(sub_stored, stored[np.ix_(keep, keep)])

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(coo_triplets(dyadic=False), st.data())
    def test_add_scaled_equal_patterns_matches_union_sum(self, coo, data):
        n, rows, cols, vals = coo
        a = CsrMatrix.from_coo(n, rows, cols, vals)
        other = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=a.nnz,
                                             max_size=a.nnz)))
        b = CsrMatrix(n, a.row_offsets.copy(), a.col_indices.copy(), other)
        alpha, beta = data.draw(st.floats(-1e3, 1e3)), data.draw(st.floats(-1e3, 1e3))
        union = CsrMatrix.from_coo(
            n, np.concatenate([a._row_index(), b._row_index()]),
            np.concatenate([a.col_indices, b.col_indices]),
            np.concatenate([alpha * a.values, beta * b.values]),
        )
        assert same_csr(add_scaled(alpha, a, beta, b), union)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(coo_triplets(), coo_triplets(), st.integers(-8, 8), st.integers(-8, 8))
    def test_add_scaled_differing_patterns_matches_dense(self, coo_a, coo_b, ka, kb):
        n = min(coo_a[0], coo_b[0])
        a = CsrMatrix.from_coo(n, *(v[(coo_a[1] < n) & (coo_a[2] < n)] for v in coo_a[1:]))
        b = CsrMatrix.from_coo(n, *(v[(coo_b[1] < n) & (coo_b[2] < n)] for v in coo_b[1:]))
        c = add_scaled(ka / 4.0, a, kb / 4.0, b)
        c._validate()
        assert np.array_equal(c.to_dense(), ka / 4.0 * a.to_dense() + kb / 4.0 * b.to_dense())

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(coo_triplets(dyadic=False))
    def test_transpose_matches_dense(self, coo):
        a = CsrMatrix.from_coo(*coo)
        t = a.transpose()
        t._validate()
        assert np.array_equal(t.to_dense(), a.to_dense().T)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(coo_triplets(dyadic=False), st.data())
    def test_matvec_matches_dense_and_old_scatter_bit_for_bit(self, coo, data):
        a = CsrMatrix.from_coo(*coo)
        x = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=a.n,
                                         max_size=a.n)))
        y = a.matvec_raw(x)
        assert y.tobytes() == bincount_matvec(a, x).tobytes()
        dense = a.to_dense()
        bound = 1e-12 * (np.abs(dense) @ np.abs(x) + 1e-300)
        assert np.all(np.abs(y - dense @ x) <= bound)

    def test_scipy_private_entry_points_and_matvec_raw(self):
        """The two private scipy kernels nndiff binds still import, and
        ``matvec_raw`` through one of them is ``as_scipy() @ x`` to the byte."""
        from scipy.sparse._sparsetools import csr_matvec  # noqa: F401
        from scipy.sparse.linalg._dsolve._superlu import gstrs  # noqa: F401

        rng = np.random.default_rng(4)
        a = CsrMatrix.from_coo(6, [0, 0, 2, 3, 3, 5, 5], [1, 4, 2, 0, 5, 5, 3],
                               rng.standard_normal(7))
        assert np.diff(a.row_offsets)[[1, 4]].tolist() == [0, 0]  # empty rows
        strided = rng.standard_normal(12)[::2]
        for x in (strided, strided.tolist()):
            y = a.matvec_raw(x)
            assert y.tobytes() == (a.as_scipy() @ np.asarray(x)).tobytes()
            assert y.dtype == np.float64 and y.flags.owndata
            assert not np.shares_memory(y, strided)
        with pytest.raises(DimensionError):
            a.matvec_raw(np.zeros(5))

    def test_matvec_on_assembled_operator_matches_old_scatter(self):
        from nndiff import generate_cube_with_hole
        from nndiff.fem import DiffusivityField, DispersionParams, assemble
        from nndiff.mesh import BoundarySpec

        mesh = generate_cube_with_hole(9, "tet4")
        diffusivity = DiffusivityField.dispersion(DispersionParams(1.0, 0.001, 0.0),
                                                  np.ones(3))
        system = assemble(mesh, None, BoundarySpec(dirichlet={1: 0.0, 2: 1.0}),
                          diffusivity)
        x = np.random.default_rng(0).standard_normal(system.n)
        for m in (system.stiffness, system.mass, add_scaled(50.0, system.mass, 1.0,
                                                             system.stiffness)):
            assert m.matvec_raw(x).tobytes() == bincount_matvec(m, x).tobytes()


@st.composite
def key_rows(draw):
    """(n, k) integer rows, n in [0, 40] and k in [1, 4]; repeats likely."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(0, 40))
    vals = draw(st.lists(st.integers(-3, 3), min_size=n * k, max_size=n * k))
    return np.array(vals, dtype=np.int64).reshape(n, k)


class TestSortedRuns:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(key_rows())
    @example(np.zeros((0, 3), dtype=np.int64))
    @example(np.array([[5, -1]]))
    @example(np.full((7, 2), 4))
    def test_groups_and_counts_match_unique(self, keys):
        from nndiff.mesh import _groups

        order, starts = sorted_runs(keys.T)
        uniq, index, inverse, counts = np.unique(
            keys, axis=0, return_index=True, return_inverse=True, return_counts=True
        )
        ends = np.append(starts[1:], len(keys))
        assert np.array_equal(np.sort(order), np.arange(len(keys)))
        assert np.array_equal(keys[order[starts]], uniq)
        assert np.array_equal(ends - starts, counts)
        # stable: every run lists its rows in input order
        assert all(np.all(np.diff(order[a:b]) > 0) for a, b in zip(starts, ends))
        groups = np.empty(len(keys), dtype=np.int64)
        groups[order] = np.searchsorted(starts, np.arange(len(keys)), side="right") - 1
        assert np.array_equal(groups, inverse.reshape(-1))
        mesh_groups, first = _groups(keys)
        assert np.array_equal(mesh_groups, groups)
        assert np.array_equal(first, index)


_WIDE = 2**62


@st.composite
def wide_key_rows(draw):
    """Key rows whose columns mix values near +-2**62 with small and negative ones."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(0, 30))
    value = st.one_of(
        st.integers(-3, 3),
        st.integers(-_WIDE, _WIDE),
        st.sampled_from([-_WIDE, -_WIDE + 1, _WIDE - 1, _WIDE]),
    )
    vals = draw(st.lists(value, min_size=n * k, max_size=n * k))
    return np.array(vals, dtype=np.int64).reshape(n, k)


class TestSortedRunsWideKeys:
    """The counting passes rank a column whose range is far wider than its
    row count, so keys anywhere in int64 sort as ``np.lexsort`` does."""

    @staticmethod
    def check(keys):
        order, starts = sorted_runs(keys.T)
        assert order.dtype == np.int32 and starts.dtype == np.int64  # order in its sort's index type
        assert np.array_equal(order, np.lexsort(keys.T[::-1]))
        uniq, counts = np.unique(keys, axis=0, return_counts=True)
        assert np.array_equal(keys[order[starts]], uniq)
        assert np.array_equal(np.diff(starts, append=len(keys)), counts)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(wide_key_rows())
    def test_matches_lexsort_and_unique(self, keys):
        self.check(keys)

    @pytest.mark.parametrize("keys", [
        np.zeros((0, 2), dtype=np.int64),
        np.array([[_WIDE, -_WIDE]]),
        np.full((9, 3), -_WIDE),
        np.full((5, 2), 7),
        np.array([[-_WIDE, 0], [_WIDE, -1], [-_WIDE, -_WIDE], [_WIDE, _WIDE], [0, 0],
                  [-_WIDE, 0], [-1, 3], [-_WIDE, -_WIDE]]),
        np.array([[-5, 2], [-7, 2], [-5, -9], [-7, 2]]),
    ], ids=["0-rows", "1-row", "all-equal-wide", "all-equal", "extremes", "negative"])
    def test_edge_cases(self, keys):
        self.check(keys)

    @pytest.mark.parametrize("top", [10**6, _WIDE])
    def test_wide_column_allocates_by_rows_not_range(self, top):
        import tracemalloc

        rows = 1000
        col = np.random.default_rng(3).integers(0, top, rows)
        col[:2] = 0, top
        tracemalloc.start()
        try:
            order, _ = sorted_runs((col,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(order, np.argsort(col, kind="stable"))
        assert peak < 100 * rows  # bytes; one bucket per value would need 4 * top

def _coo_pattern_reference(n, rows, cols, vals):
    """The two-column ``np.lexsort`` pattern, the reference for
    ``CooPattern``'s counting passes over (rows, cols)."""
    order = np.lexsort((cols, rows))
    new_run = np.zeros(len(order), dtype=bool)
    new_run[:1] = True
    new_run[1:] |= rows[order][1:] != rows[order][:-1]
    new_run[1:] |= cols[order][1:] != cols[order][:-1]
    starts = np.flatnonzero(new_run)
    first = order[starts]
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[first], minlength=n), out=row_offsets[1:])
    summed = np.add.reduceat(vals[order], starts)
    return order, starts, row_offsets, cols[first], summed


def _corner_triplets(n, m, seed):
    """m triplets whose indices hit 0 and n - 1 on both axes, with repeats."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    rows[:2], cols[:2] = n - 1, (n - 1, 0)
    return n, rows, cols, rng.standard_normal(m)


class TestCooPatternOracle:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(coo_triplets(dyadic=False))
    @example((1, np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)))
    @example((5, np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)))
    @example((1, np.zeros(4, np.int64), np.zeros(4, np.int64), np.array([0.1, 0.2, 0.3, -1.0])))
    @example(_corner_triplets(3, 40, 0))
    @example(_corner_triplets(1000, 5000, 1))
    def test_packed_key_matches_lexsort_bit_for_bit(self, coo):
        n, rows, cols, vals = coo
        pattern = CooPattern(n, rows, cols)
        order, starts, row_offsets, col_indices, summed = _coo_pattern_reference(
            n, rows, cols, vals
        )
        assert np.array_equal(pattern._order, order)
        assert np.array_equal(pattern._starts, starts)
        assert np.array_equal(pattern.row_offsets, row_offsets)
        assert np.array_equal(pattern.col_indices, col_indices)
        assert pattern.col_indices.dtype == np.int32
        a = pattern.matrix(vals)
        assert a.values.tobytes() == summed.tobytes()
        a._validate()

    def test_broadcast_cell_pattern_matches_lexsort(self):
        cells = np.random.default_rng(2).integers(0, 50, (300, 4))
        rows = np.broadcast_to(cells[:, :, None], (300, 4, 4))
        cols = np.broadcast_to(cells[:, None, :], (300, 4, 4))
        pattern = CooPattern(50, rows, cols)
        ref = _coo_pattern_reference(50, rows.ravel(), cols.ravel(), np.zeros(rows.size))
        assert np.array_equal(pattern._order, ref[0])
        assert np.array_equal(pattern._starts, ref[1])

    @pytest.mark.parametrize("rows, cols", [([0, 3], [0, 0]), ([0, 0], [-1, 0]),
                                            ([-1, 0], [2, 0]), ([0, 1], [0, 3])])
    def test_index_out_of_range(self, rows, cols):
        with pytest.raises(DimensionError, match="out of range"):
            CooPattern(3, np.array(rows), np.array(cols))

    @pytest.mark.parametrize("bad", [2**32 + 3, 2**31, -(2**32) + 1])
    def test_index_that_would_wrap_into_int32_range_rejected(self, bad):
        # 2**32 + 3 narrows to 3, inside [0, 10): only a check before the cast sees it
        rows = np.array([0, bad], dtype=np.int64)
        for r, c in ((rows, rows[::-1]), (rows[::-1], rows)):
            with pytest.raises(DimensionError, match="out of range"):
                CooPattern(10, r, c)

    def test_broadcast_index_out_of_range(self):
        cells = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
        rows = np.broadcast_to(cells[:, :, None], (2, 4, 4))
        cols = np.broadcast_to(cells[:, None, :], (2, 4, 4))
        CooPattern(5, rows, cols)
        with pytest.raises(DimensionError, match="out of range"):
            CooPattern(4, rows, cols)


# ---------------------------------------------------------------------------
# MatrixMarket
# ---------------------------------------------------------------------------

class TestMatrixMarket:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(77)
        a, _ = random_sparse_spd(12, rng, density=0.3)
        path = tmp_path / "a.mtx"
        write_matrix_market(a, path)
        b = read_matrix_market(path)
        assert np.array_equal(a.to_dense(), b.to_dense())

    def test_roundtrip_writes_exactly_the_given_path(self, tmp_path):
        a = CsrMatrix.from_dense([[2.0, 0.0], [1.0 / 3.0, 5e-324]])
        path = tmp_path / "h.txt"
        path.write_text("stale")
        write_matrix_market(a, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.txt"]
        b = read_matrix_market(path)
        assert b.values.tobytes() == a.values.tobytes()
        assert b.col_indices.tolist() == a.col_indices.tolist()

    def test_symmetric_storage(self, tmp_path):
        path = tmp_path / "s.mtx"
        for off_diagonal in ("2 1 -1.0", "1 2 -1.0"):  # lower or upper triangle
            path.write_text(
                "%%MatrixMarket matrix coordinate real symmetric\n"
                f"2 2 2\n1 1 2.0\n{off_diagonal}\n"
            )
            a = read_matrix_market(path)
            assert np.array_equal(a.to_dense(), [[2.0, -1.0], [-1.0, 0.0]])

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 oops 3\n"
        )
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    @pytest.mark.parametrize("body, line", [
        ("2 2 1\n1 1 2 5\n", 3),  # an extra value
        ("2 2 1\n1 1 2 % note\n", 3),  # a trailing comment
        ("% c\n\n2 2 3\n1 1 2\n\n2 2 3\n2 1 4 4\n\n", 8),  # after blank lines
    ])
    def test_entry_with_extra_tokens_names_line(self, symmetry, body, line, tmp_path):
        path = tmp_path / "w.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n" + body)
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == line

    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    @pytest.mark.parametrize("body, line", [
        ("2 2 2\n1 1 2\n2 2 nan\n", 4),
        ("2 2 3\n2 1 1\n1 1 inf\n2 2 nan\n", 4),  # the first of two
        ("% c\n\n2 2 2\n\n2 1 1\n\n2 2 -inf\n", 8),  # after blank lines
    ])
    def test_non_finite_entry_names_line(self, symmetry, body, line, tmp_path):
        path = tmp_path / "nan.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n" + body)
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert (str(err.value), err.value.line) == (
            f"{path}:{line}: entry value is not finite", line)

    def test_blank_lines_and_crlf_accepted(self, tmp_path):
        path = tmp_path / "b.mtx"
        path.write_bytes(
            b"%%MatrixMarket matrix coordinate real general\r\n% c\r\n2 2 2\r\n"
            b"\r\n 1\t1  2.5 \r\n\r\n2 2 3\r\n\r\n"
        )
        assert read_matrix_market(path).to_dense().tolist() == [[2.5, 0.0], [0.0, 3.0]]

    def test_rejects_rectangular(self, tmp_path):
        path = tmp_path / "rect.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 3 0\n")
        with pytest.raises(ParseError):
            read_matrix_market(path)

    @pytest.mark.parametrize("text", [
        "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1.0 0.0\n",
        "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 1\n",
        "%%MatrixMarket matrix array real general\n2 2\n1.0\n0.0\n0.0\n1.0\n",
        "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n",
    ])
    def test_rejects_unsupported_header(self, text, tmp_path):
        path = tmp_path / "h.mtx"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("body", [
        "2 2 1\n1 1 3.0\n2 2 4.0\n",  # too many entries
        "2 2 3\n1 1 3.0\n2 2 4.0\n",  # too few entries
    ])
    def test_rejects_wrong_entry_count(self, body, tmp_path):
        path = tmp_path / "n.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n" + body)
        with pytest.raises(ParseError):
            read_matrix_market(path)

    def test_comment_in_data_names_line(self, tmp_path):
        # the format allows comments only between the header and the size line
        path = tmp_path / "c.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n% header comment\n"
            "2 2 2\n1 1 3.0\n% data comment\n2 2 4.0\n"
        )
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == 5

    def test_duplicates_summed_as_from_coo_in_file_order(self, tmp_path):
        path = tmp_path / "d.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 4\n1 1 0.1\n1 1 0.2\n2 2 1.0\n1 1 0.3\n"
        )
        a = read_matrix_market(path)
        b = CsrMatrix.from_coo(2, [0, 0, 1, 0], [0, 0, 1, 0], [0.1, 0.2, 1.0, 0.3])
        assert a.values.tobytes() == b.values.tobytes()
        assert a.col_indices.tolist() == [0, 1]
