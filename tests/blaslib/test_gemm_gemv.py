"""Unit tests for gemm / gemv / ger against numpy references."""

import numpy as np
import pytest

import _oracle_kernels as oracle  # tests/ is on sys.path (conftest.py)
from repro import blaslib


#: What an uninitialised scratch buffer may hold.
JUNK = [np.nan, np.inf, -np.inf]

#: The kernel each ``backend`` id runs: production, or the oracle's loops.
GEMM = {"numpy": blaslib.gemm, "reference": oracle.reference_gemm}
GEMV = {"numpy": blaslib.gemv, "reference": oracle.reference_gemv}


def small_ints(rng, shape):
    """Integer-valued float32: products and sums are exact in float32
    and in the reference oracle's Python floats alike."""
    return rng.integers(-4, 5, size=shape).astype(np.float32)


@pytest.fixture
def mats(rng):
    a = rng.standard_normal((4, 3)).astype(np.float32)
    b = rng.standard_normal((3, 5)).astype(np.float32)
    c = rng.standard_normal((4, 5)).astype(np.float32)
    return a, b, c


class TestGemm:
    def test_plain(self, mats):
        a, b, c = mats
        expected = a @ b
        blaslib.gemm(False, False, 1.0, a, b, 0.0, c)
        assert np.allclose(c, expected, atol=1e-5)

    def test_alpha_beta(self, mats):
        a, b, c = mats
        expected = 2.0 * (a @ b) + 0.5 * c
        blaslib.gemm(False, False, 2.0, a, b, 0.5, c)
        assert np.allclose(c, expected, atol=1e-5)

    @pytest.mark.parametrize("trans_b", [False, True])
    def test_unit_accumulate_bytes(self, rng, trans_b):
        """alpha == beta == 1 (every dW update) skips the scaling passes;
        scaling by one changes no bit, so the general path must agree."""
        a = rng.standard_normal((32, 75)).astype(np.float32)
        b = rng.standard_normal((75, 64)).astype(np.float32)
        c = rng.standard_normal((32, 64)).astype(np.float32)
        op_b = np.ascontiguousarray(b.T) if trans_b else b
        general = c.copy()
        general *= np.float32(1.0)
        general += np.float32(1.0) * (a @ b)
        blaslib.gemm(False, trans_b, 1.0, a, op_b, 1.0, c)
        assert c.tobytes() == general.tobytes()

    def test_unit_overwrite_bytes(self, rng):
        """alpha == 1, beta == 0 into a strided C (no ``out=`` for
        matmul) skips the scaled temporary; the general path agrees."""
        a = rng.standard_normal((32, 75)).astype(np.float32)
        b = rng.standard_normal((75, 64)).astype(np.float32)
        c = np.full((64, 32), 7.0, dtype=np.float32).T
        blaslib.gemm(False, False, 1.0, a, b, 0.0, c)
        assert c.tobytes() == (np.float32(1.0) * (a @ b)).tobytes()

    @pytest.mark.parametrize("junk", JUNK)
    @pytest.mark.parametrize("contiguous", [True, False])
    @pytest.mark.parametrize("trans_a", [False, True])
    @pytest.mark.parametrize("trans_b", [False, True])
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_beta_zero_never_reads_c(self, rng, alpha, trans_b, trans_a,
                                     contiguous, junk):
        """With beta == 0, C is write-only, as in BLAS: scratch comes
        uninitialised from the pool and NaN * 0 is NaN.  Operands are
        small integers, so both backends are exact and their bytes must
        be equal."""
        op_a, op_b = small_ints(rng, (4, 3)), small_ints(rng, (3, 5))
        a = np.ascontiguousarray(op_a.T) if trans_a else op_a
        b = np.ascontiguousarray(op_b.T) if trans_b else op_b
        want = (np.float32(alpha) * (op_a @ op_b)).tobytes()

        def run(gemm):
            c = (np.full((4, 5), junk, np.float32) if contiguous
                 else np.full((5, 4), junk, np.float32).T)
            assert c.flags["C_CONTIGUOUS"] is contiguous
            gemm(trans_a, trans_b, alpha, a, b, 0.0, c)
            return c

        numpy_c = run(blaslib.gemm)
        reference_c = run(oracle.reference_gemm)
        assert np.isfinite(numpy_c).all() and np.isfinite(reference_c).all()
        assert numpy_c.tobytes() == want == reference_c.tobytes()

    @pytest.mark.parametrize("backend", ["numpy", "reference"])
    def test_beta_nonzero_still_reads_c(self, rng, backend):
        a, b = small_ints(rng, (4, 3)), small_ints(rng, (3, 5))
        c = small_ints(rng, (4, 5))
        want = 2.0 * (a @ b) + 0.5 * c
        GEMM[backend](False, False, 2.0, a, b, 0.5, c)
        assert c.tobytes() == want.astype(np.float32).tobytes()
        c[0, 0] = np.nan  # beta != 0 propagates what C held
        GEMM[backend](False, False, 1.0, a, b, 1.0, c)
        assert np.isnan(c[0, 0]) and np.isfinite(c.ravel()[1:]).all()

    def test_trans_a(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((3, 5)).astype(np.float32)
        c = np.zeros((4, 5), dtype=np.float32)
        blaslib.gemm(True, False, 1.0, a, b, 0.0, c)
        assert np.allclose(c, a.T @ b, atol=1e-5)

    def test_trans_b(self, rng):
        a = rng.standard_normal((4, 3)).astype(np.float32)
        b = rng.standard_normal((5, 3)).astype(np.float32)
        c = np.zeros((4, 5), dtype=np.float32)
        blaslib.gemm(False, True, 1.0, a, b, 0.0, c)
        assert np.allclose(c, a @ b.T, atol=1e-5)

    def test_both_trans(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((5, 3)).astype(np.float32)
        c = np.zeros((4, 5), dtype=np.float32)
        blaslib.gemm(True, True, 1.0, a, b, 0.0, c)
        assert np.allclose(c, a.T @ b.T, atol=1e-5)

    def test_inner_mismatch(self, rng):
        a = rng.standard_normal((4, 3)).astype(np.float32)
        b = rng.standard_normal((4, 5)).astype(np.float32)
        with pytest.raises(ValueError, match="inner dimension"):
            blaslib.gemm(False, False, 1.0, a, b, 0.0,
                         np.zeros((4, 5), np.float32))

    def test_output_shape_mismatch(self, mats):
        a, b, _ = mats
        with pytest.raises(ValueError, match="C has shape"):
            blaslib.gemm(False, False, 1.0, a, b, 0.0,
                         np.zeros((2, 2), np.float32))

    def test_reference_backend(self, rng):
        a = rng.standard_normal((2, 3)).astype(np.float32)
        b = rng.standard_normal((3, 2)).astype(np.float32)
        c1 = np.zeros((2, 2), dtype=np.float32)
        c2 = np.zeros((2, 2), dtype=np.float32)
        blaslib.gemm(False, False, 1.0, a, b, 0.0, c1)
        oracle.reference_gemm(False, False, 1.0, a, b, 0.0, c2)
        assert np.allclose(c1, c2, atol=1e-5)


class TestGemmStack:
    """A leading stack axis: one product per entry, each the bytes and
    the accounting of its own 2-D call; a 2-D A or B is shared."""

    @staticmethod
    def operands(rng, trans_a, trans_b, shared, products=3, m=8, k=40,
                 n=24):
        """(a, b, c) with ``shared`` (None, "A" or "B") left 2-D."""
        a_shape = (k, m) if trans_a else (m, k)
        b_shape = (n, k) if trans_b else (k, n)
        a = rng.standard_normal(
            a_shape if shared == "A" else (products, *a_shape))
        b = rng.standard_normal(
            b_shape if shared == "B" else (products, *b_shape))
        c = rng.standard_normal((products, m, n))
        return a.astype(np.float32), b.astype(np.float32), c.astype(np.float32)

    @pytest.mark.parametrize("backend", ["numpy", "reference"])
    @pytest.mark.parametrize("beta", [0.0, 1.0, 0.5])
    @pytest.mark.parametrize("shared", [None, "A", "B"])
    @pytest.mark.parametrize("trans_a", [False, True])
    @pytest.mark.parametrize("trans_b", [False, True])
    def test_stacked_equals_the_per_product_loop_bytes(
            self, rng, backend, beta, shared, trans_a, trans_b):
        a, b, c = self.operands(rng, trans_a, trans_b, shared)
        looped = c.copy()
        gemm = GEMM[backend]
        for i in range(len(c)):
            gemm(trans_a, trans_b, 1.0, a if shared == "A" else a[i],
                 b if shared == "B" else b[i], beta, looped[i])
        gemm(trans_a, trans_b, 1.0, a, b, beta, c)
        assert c.tobytes() == looped.tobytes()

    def test_counter_sees_one_op_per_product(self, rng):
        a, b, c = self.operands(rng, False, True, "A", products=5)
        with blaslib.op_counter() as one:
            blaslib.gemm(False, True, 1.0, a, b[0], 0.0, c[0])
        with blaslib.op_counter() as stacked:
            blaslib.gemm(False, True, 1.0, a, b, 0.0, c)
        assert stacked.calls["gemm"] == 5
        assert stacked.flops["gemm"] == 5 * one.flops["gemm"]
        assert stacked.bytes_moved["gemm"] == 5 * one.bytes_moved["gemm"]
        assert one.flops["gemm"] == 2 * 8 * 40 * 24

    @pytest.mark.parametrize("shapes, operand", [
        (((1, 2, 8, 40), (40, 24), (2, 8, 24)), "operand A"),
        (((8, 40), (2, 40, 24, 1), (2, 8, 24)), "operand B"),
        (((8, 40), (40, 24), (1, 2, 8, 24)), "operand C"),
        (((3, 8, 40), (2, 40, 24), (3, 8, 24)), "A has 3, B has 2"),
        (((3, 8, 40), (40, 24), (2, 8, 24)), "A has 3, C has 2"),
        (((3, 8, 40), (40, 24), (8, 24)), "C has shape"),
        (((8, 40), (40, 24), (3, 8, 25)), "C has shape"),
    ])
    def test_bad_stacks_name_the_operand(self, shapes, operand):
        a, b, c = (np.zeros(shape, np.float32) for shape in shapes)
        with pytest.raises(ValueError, match=operand):
            blaslib.gemm(False, False, 1.0, a, b, 0.0, c)


class TestGemv:
    def test_plain(self, rng):
        a = rng.standard_normal((4, 3)).astype(np.float32)
        x = rng.standard_normal(3).astype(np.float32)
        y = np.zeros(4, dtype=np.float32)
        blaslib.gemv(False, 1.0, a, x, 0.0, y)
        assert np.allclose(y, a @ x, atol=1e-5)

    def test_trans(self, rng):
        a = rng.standard_normal((4, 3)).astype(np.float32)
        x = rng.standard_normal(4).astype(np.float32)
        y = np.zeros(3, dtype=np.float32)
        blaslib.gemv(True, 1.0, a, x, 0.0, y)
        assert np.allclose(y, a.T @ x, atol=1e-5)

    @pytest.mark.parametrize("trans", [False, True])
    def test_unit_overwrite_bytes(self, rng, trans):
        a = rng.standard_normal((75, 75)).astype(np.float32)
        x = rng.standard_normal(75).astype(np.float32)
        y = np.full(75, 7.0, dtype=np.float32)
        blaslib.gemv(trans, 1.0, a, x, 0.0, y)
        op_a = a.T if trans else a
        assert y.tobytes() == (np.float32(1.0) * (op_a @ x)).tobytes()

    @pytest.mark.parametrize("junk", JUNK)
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_beta_zero_never_reads_y(self, rng, alpha, trans, junk):
        a, x = small_ints(rng, (4, 3)), small_ints(rng, 4 if trans else 3)
        op_a = a.T if trans else a
        want = (np.float32(alpha) * (op_a @ x)).tobytes()

        def run(gemv):
            y = np.full(len(op_a), junk, np.float32)
            gemv(trans, alpha, a, x, 0.0, y)
            return y

        numpy_y = run(blaslib.gemv)
        reference_y = run(oracle.reference_gemv)
        assert np.isfinite(numpy_y).all() and np.isfinite(reference_y).all()
        assert numpy_y.tobytes() == want == reference_y.tobytes()

    @pytest.mark.parametrize("backend", ["numpy", "reference"])
    def test_beta_nonzero_still_reads_y(self, rng, backend):
        a, x = small_ints(rng, (4, 3)), small_ints(rng, 3)
        y = small_ints(rng, 4)
        want = 2.0 * (a @ x) + 0.5 * y
        y[0] = np.nan
        GEMV[backend](False, 2.0, a, x, 0.5, y)
        assert np.isnan(y[0])
        assert y[1:].tobytes() == want[1:].astype(np.float32).tobytes()

    def test_beta_accumulate(self, rng):
        a = rng.standard_normal((2, 2)).astype(np.float32)
        x = rng.standard_normal(2).astype(np.float32)
        y = np.ones(2, dtype=np.float32)
        expected = 0.5 * (a @ x) + 2.0 * y
        blaslib.gemv(False, 0.5, a, x, 2.0, y)
        assert np.allclose(y, expected, atol=1e-5)

    def test_shape_errors(self, rng):
        a = rng.standard_normal((4, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="x has shape"):
            blaslib.gemv(False, 1.0, a, np.zeros(4, np.float32),
                         0.0, np.zeros(4, np.float32))
        with pytest.raises(ValueError, match="y has shape"):
            blaslib.gemv(False, 1.0, a, np.zeros(3, np.float32),
                         0.0, np.zeros(3, np.float32))

    def test_reference_backend(self, rng):
        a = rng.standard_normal((3, 2)).astype(np.float32)
        x = rng.standard_normal(2).astype(np.float32)
        y1 = np.zeros(3, dtype=np.float32)
        y2 = np.zeros(3, dtype=np.float32)
        blaslib.gemv(False, 1.0, a, x, 0.0, y1)
        oracle.reference_gemv(False, 1.0, a, x, 0.0, y2)
        assert np.allclose(y1, y2, atol=1e-5)


class TestGer:
    def test_rank1_update(self, rng):
        x = rng.standard_normal(3).astype(np.float32)
        y = rng.standard_normal(4).astype(np.float32)
        a = rng.standard_normal((3, 4)).astype(np.float32)
        expected = a + 2.0 * np.outer(x, y)
        blaslib.ger(2.0, x, y, a)
        assert np.allclose(a, expected, atol=1e-5)

    def test_reference(self, rng):
        x = rng.standard_normal(2).astype(np.float32)
        y = rng.standard_normal(2).astype(np.float32)
        a1 = np.zeros((2, 2), dtype=np.float32)
        a2 = np.zeros((2, 2), dtype=np.float32)
        blaslib.ger(1.0, x, y, a1)
        oracle.reference_ger(1.0, x, y, a2)
        assert np.allclose(a1, a2, atol=1e-5)
