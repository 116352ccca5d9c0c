import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nndiff.errors import (
    DimensionError,
    FactorizationError,
    ParseError,
    SolverBreakdownError,
)
from nndiff.sparse import (
    CsrMatrix,
    Ilu0Preconditioner,
    JacobiPreconditioner,
    OpLedger,
    add_scaled,
    axpy,
    aypx,
    cg_solve,
    dot,
    make_preconditioner,
    norm2,
    pointwise_mult,
    read_matrix_market,
    scale,
    spmv,
    vec_copy,
    vec_set,
    write_matrix_market,
)


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
            "set": (lambda led: vec_set(y.copy(), 2.0, led), 0, 16 * n),
            "scale": (lambda led: scale(y.copy(), 2.0, led), n, 16 * n),
            "axpy": (lambda led: axpy(y.copy(), 2.0, x, led), 2 * n, 24 * n),
            "aypx": (lambda led: aypx(y.copy(), 2.0, x, led), 2 * n, 24 * n),
            "pointwise_mult": (lambda led: pointwise_mult(x, y, led), n, 24 * n),
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
            op = rng.integers(0, 5)
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
            elif op == 3:
                scale(y, 1.5, led)
                expect_flops += n
                expect_bytes += 16 * n
            else:
                pointwise_mult(x, y, led)
                expect_flops += n
                expect_bytes += 24 * n
        assert led.flops == expect_flops
        assert led.bytes == expect_bytes
        bd = led.breakdown()
        assert sum(t.flops for t in bd.values()) == expect_flops
        assert sum(t.bytes for t in bd.values()) == expect_bytes

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

    def test_is_symmetric(self):
        rng = np.random.default_rng(5)
        a, _ = random_sparse_spd(20, rng)
        assert a.is_symmetric()
        skew = CsrMatrix.from_dense(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert not skew.is_symmetric()

    def test_validation_rejects_bad_offsets(self):
        with pytest.raises(DimensionError):
            CsrMatrix(2, [0, 1], [0], [1.0])


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

    def test_ilu0_apply_bytes_match_spmv_formula(self):
        rng = np.random.default_rng(9)
        a, _ = random_sparse_spd(30, rng, density=0.2)
        p = Ilu0Preconditioner(a)
        led = OpLedger()
        p.apply(np.ones(30), led)
        n, nz = a.n, a.nnz
        assert led.bytes == 4 * (n + nz) + 8 * (2 * n + nz)


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
        before = led.totals()
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

    def test_symmetric_storage(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n1 1 2.0\n2 1 -1.0\n"
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

    def test_rejects_rectangular(self, tmp_path):
        path = tmp_path / "rect.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 3 0\n")
        with pytest.raises(ParseError):
            read_matrix_market(path)
