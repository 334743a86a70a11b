"""Unit tests for im2col / col2im."""

import numpy as np
import pytest

import _oracle_kernels as oracle  # tests/ is on sys.path (conftest.py)
from repro import blaslib
from repro.blaslib.im2col import conv_out_size


class TestConvOutSize:
    def test_basic(self):
        assert conv_out_size(28, 5, 0, 1) == 24
        assert conv_out_size(24, 2, 0, 2) == 12
        assert conv_out_size(32, 5, 2, 1) == 32

    def test_invalid(self):
        with pytest.raises(ValueError, match="positive"):
            conv_out_size(8, 0, 0, 1)
        with pytest.raises(ValueError, match="pad"):
            conv_out_size(8, 3, -1, 1)
        with pytest.raises(ValueError, match="does not fit"):
            conv_out_size(2, 5, 0, 1)


class TestIm2col:
    def test_identity_kernel(self, rng):
        image = rng.standard_normal((2, 3, 3)).astype(np.float32)
        col = blaslib.im2col(image, 1, 1, 0, 0, 1, 1)
        assert col.shape == (2, 9)
        assert np.allclose(col, image.reshape(2, 9))

    def test_matches_reference(self, rng):
        image = rng.standard_normal((3, 6, 5)).astype(np.float32)
        fast = blaslib.im2col(image, 3, 2, 1, 1, 2, 1)
        slow = oracle.reference_im2col(image, 3, 2, 1, 1, 2, 1)
        assert np.array_equal(fast, slow)

    def test_convolution_via_gemm(self, rng):
        """im2col + gemm equals direct convolution."""
        image = rng.standard_normal((2, 5, 5)).astype(np.float32)
        weights = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        col = blaslib.im2col(image, 3, 3, 0, 0, 1, 1)
        out = (weights.reshape(3, -1) @ col).reshape(3, 3, 3)
        direct = np.zeros((3, 3, 3), dtype=np.float32)
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    direct[k, i, j] = np.sum(
                        image[:, i : i + 3, j : j + 3] * weights[k]
                    )
        assert np.allclose(out, direct, atol=1e-4)

    def test_padding_zeros(self):
        image = np.ones((1, 2, 2), dtype=np.float32)
        col = blaslib.im2col(image, 2, 2, 1, 1, 1, 1)
        # top-left window sees only the bottom-right image pixel
        assert col.shape == (4, 9)
        assert col[0, 0] == 0.0  # padded corner

    def test_out_buffer(self, rng):
        image = rng.standard_normal((1, 4, 4)).astype(np.float32)
        out = np.empty((4, 9), dtype=np.float32)
        result = blaslib.im2col(image, 2, 2, 0, 0, 1, 1, out=out)
        assert result is out

    def test_bad_out_shape(self, rng):
        image = rng.standard_normal((1, 4, 4)).astype(np.float32)
        with pytest.raises(ValueError, match="out has shape"):
            blaslib.im2col(image, 2, 2, 0, 0, 1, 1,
                           out=np.empty((3, 3), np.float32))

    def test_rejects_2d_image(self):
        with pytest.raises(ValueError, match=r"\(C, H, W\)"):
            blaslib.im2col(np.zeros((4, 4), np.float32), 2, 2, 0, 0, 1, 1)


class TestCol2im:
    def test_adjoint_of_im2col(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint
        property that makes conv backward correct."""
        x = rng.standard_normal((2, 5, 6)).astype(np.float64)
        args = (3, 2, 1, 0, 2, 1)  # kh kw ph pw sh sw
        col_x = blaslib.im2col(x.astype(np.float32), *args).astype(np.float64)
        y = rng.standard_normal(col_x.shape).astype(np.float64)
        folded = blaslib.col2im(
            y.astype(np.float32), 2, 5, 6, *args
        ).astype(np.float64)
        assert np.dot(col_x.ravel(), y.ravel()) == pytest.approx(
            np.dot(x.ravel(), folded.ravel()), rel=1e-4
        )

    def test_matches_reference(self, rng):
        col = rng.standard_normal((2 * 3 * 2, 3 * 5)).astype(np.float32)
        fast = blaslib.col2im(col, 2, 6, 6, 3, 2, 1, 0, 2, 1)
        slow = oracle.reference_col2im(col, 2, 6, 6, 3, 2, 1, 0, 2, 1)
        assert np.allclose(fast, slow, atol=1e-5)

    def test_overlap_accumulates(self):
        # kernel 2, stride 1 on width 3: middle pixel is in two windows.
        col = np.ones((2, 2), dtype=np.float32)
        out = blaslib.col2im(col, 1, 1, 3, 1, 2, 0, 0, 1, 1)
        assert np.allclose(out.ravel(), [1, 2, 1])

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="col has shape"):
            blaslib.col2im(np.zeros((3, 3), np.float32),
                           1, 4, 4, 2, 2, 0, 0, 1, 1)


# ----------------------------------------------------------------------
# Frozen-oracle parity and caller-buffer validation
# ----------------------------------------------------------------------

#: (C, H, W, kh, kw, ph, pw, sh, sw): the three cifar10 convs' geometry
#: in small, lenet's pad-free one, lopsided strided cases, and pads past
#: the kernel under stride 3.
GEOMETRIES = [
    (3, 8, 8, 5, 5, 2, 2, 1, 1),
    (2, 6, 6, 5, 5, 0, 0, 1, 1),
    (3, 7, 5, 3, 2, 1, 0, 2, 1),
    (1, 4, 9, 2, 4, 1, 3, 3, 2),
    (2, 5, 6, 2, 3, 3, 4, 3, 3),
    (2, 7, 4, 1, 3, 2, 0, 1, 3),
]


def padded_shape(c, h, w, ph, pw):
    return (c, h + 2 * ph, w + 2 * pw)


@pytest.mark.parametrize("geometry", GEOMETRIES)
class TestOracleParity:
    def test_im2col_bytes(self, rng, geometry):
        c, h, w, kh, kw, ph, pw, sh, sw = geometry
        image = rng.standard_normal((c, h, w)).astype(np.float32)
        args = (kh, kw, ph, pw, sh, sw)
        want = oracle.im2col(image, *args)
        work = np.full(padded_shape(c, h, w, ph, pw), np.nan, np.float32)
        out = np.full_like(want, 7.0)
        assert blaslib.im2col(image, *args, out=out, work=work) is out
        assert out.tobytes() == want.tobytes()
        assert blaslib.im2col(image, *args).tobytes() == want.tobytes()
        assert oracle.reference_im2col(image, *args).tobytes() == (
            want.tobytes())

    def test_im2col_runs_kept_columns_bytes(self, rng, geometry):
        """Every kept column of the row runs is ``im2col``'s, bit for
        bit, with a NaN ``work`` plane and a dirty ``out`` on entry."""
        c, h, w, kh, kw, ph, pw, sh, sw = geometry
        image = rng.standard_normal((c, h, w)).astype(np.float32)
        args = (kh, kw, ph, pw, sh, sw)
        want = oracle.im2col(image, *args).tobytes()
        layout = blaslib.runs_layout(c, h, w, *args)

        def kept(runs):
            return np.ascontiguousarray(runs.reshape(
                -1, layout.out_h, layout.run_w)[:, :, :layout.out_w]
            ).tobytes()

        work = np.full(layout.work, np.nan, np.float32)
        out = np.full(layout.cols, 7.0, np.float32)
        assert blaslib.im2col_runs(image, *args, out=out, work=work) is out
        assert kept(out) == want
        assert np.isfinite(out).all()  # no run reads past the plane
        assert kept(blaslib.im2col_runs(image, *args)) == want
        assert kept(oracle.reference_im2col_runs(image, *args)) == want

    def test_col2im_bytes(self, rng, geometry):
        c, h, w, kh, kw, ph, pw, sh, sw = geometry
        args = (c, h, w, kh, kw, ph, pw, sh, sw)
        shape = oracle.im2col(np.zeros((c, h, w), np.float32),
                              kh, kw, ph, pw, sh, sw).shape
        col = rng.standard_normal(shape).astype(np.float32)
        want = oracle.col2im(col, *args)
        work = np.full(padded_shape(c, h, w, ph, pw), np.nan, np.float32)
        out = np.full((c, h, w), 7.0, np.float32)
        assert blaslib.col2im(col, *args, out=out, work=work) is out
        assert out.tobytes() == want.tobytes()
        assert blaslib.col2im(col, *args).tobytes() == want.tobytes()
        assert oracle.reference_col2im(col, *args).tobytes() == (
            want.tobytes())


#: (C, H, W, kh, kw, ph, pw, sh, sw): padded and unpadded, stride 1 and 2.
STACK_GEOMETRIES = [
    (3, 8, 8, 5, 5, 2, 2, 1, 1),
    (2, 6, 6, 5, 5, 0, 0, 1, 1),
    (3, 7, 5, 3, 2, 1, 0, 2, 1),
    (2, 7, 7, 3, 3, 0, 0, 2, 2),
]


@pytest.mark.parametrize("geometry", STACK_GEOMETRIES)
class TestStackedIm2col:
    """A stack ``(N, C, H, W)`` is N one-image calls in one: the same
    bytes per image, and N ``im2col`` ops of one image's bytes each."""

    @staticmethod
    def stack(rng, geometry, n=3):
        c, h, w = geometry[:3]
        return rng.standard_normal((n, c, h, w)).astype(np.float32)

    def test_equals_the_per_image_loop_bytes(self, rng, geometry):
        c, h, w, kh, kw, ph, pw, sh, sw = geometry
        args = (kh, kw, ph, pw, sh, sw)
        images = self.stack(rng, geometry)
        want = np.stack([blaslib.im2col(one, *args) for one in images])
        out = np.full_like(want, 7.0)
        work = np.full((3, *padded_shape(c, h, w, ph, pw)), np.nan,
                       np.float32)
        assert blaslib.im2col(images, *args, out=out, work=work) is out
        assert out.tobytes() == want.tobytes()
        assert blaslib.im2col(images, *args).tobytes() == want.tobytes()
        assert oracle.reference_im2col(images, *args).tobytes() == (
            want.tobytes())

    def test_non_contiguous_images(self, rng, geometry):
        """A channel slice of a wider stack, as a grouped conv hands
        over, goes through ``work`` when unpadded."""
        c, h, w, kh, kw, ph, pw, sh, sw = geometry
        args = (kh, kw, ph, pw, sh, sw)
        images = self.stack(rng, (2 * c, h, w))[:, c:]
        want = np.stack([blaslib.im2col(np.ascontiguousarray(one), *args)
                         for one in images])
        work = np.full((3, *padded_shape(c, h, w, ph, pw)), np.nan,
                       np.float32)
        got = blaslib.im2col(images, *args, work=work)
        assert got.tobytes() == want.tobytes()
        assert blaslib.im2col(images, *args).tobytes() == want.tobytes()

    def test_counts_one_op_per_image(self, rng, geometry):
        args = geometry[3:]
        images = self.stack(rng, geometry)
        with blaslib.op_counter() as one:
            blaslib.im2col(images[0], *args)
        with blaslib.op_counter() as stacked:
            blaslib.im2col(images, *args)
        assert stacked.calls["im2col"] == 3
        assert stacked.flops["im2col"] == 0
        assert stacked.bytes_moved["im2col"] == 3 * one.bytes_moved["im2col"]


class TestCallerBuffers:
    """``out`` and ``work`` are written in place, so a buffer that cannot
    be — wrong shape, another dtype, a non-contiguous ``out`` — is a
    ``ValueError`` naming the argument, never a silent cast or a write
    into a temporary copy."""

    IMAGE = np.ones((2, 4, 4), np.float32)
    ARGS = (3, 3, 1, 1, 1, 1)  # -> col (18, 16), padded plane (2, 6, 6)

    def im2col(self, **buffers):
        return blaslib.im2col(self.IMAGE, *self.ARGS, **buffers)

    def im2col_runs(self, **buffers):
        # -> runs (18, 4 * 6), flat plane 2 * 6 * 6 + 2 of slack
        return blaslib.im2col_runs(self.IMAGE, *self.ARGS, **buffers)

    def col2im(self, **buffers):
        return blaslib.col2im(np.ones((18, 16), np.float32), 2, 4, 4,
                              *self.ARGS, **buffers)

    @pytest.mark.parametrize("bad, match", [
        (dict(out=np.empty((16, 18), np.float32)), "im2col out has shape"),
        (dict(out=np.empty((18, 16), np.float64)), "im2col out has dtype"),
        (dict(out=np.empty((16, 18), np.float32).T),
         "im2col out must be C-contiguous"),
        (dict(work=np.empty((2, 4, 4), np.float32)), "im2col work has shape"),
        (dict(work=np.empty((2, 6, 6), np.float64)), "im2col work has dtype"),
    ])
    def test_im2col_rejects(self, bad, match):
        with pytest.raises(ValueError, match=match):
            self.im2col(**bad)

    @pytest.mark.parametrize("bad, match", [
        (dict(out=np.empty((18, 16), np.float32)),
         "im2col_runs out has shape"),
        (dict(out=np.empty((18, 24), np.float64)),
         "im2col_runs out has dtype"),
        (dict(out=np.empty((24, 18), np.float32).T),
         "im2col_runs out must be C-contiguous"),
        (dict(work=np.empty((2, 6, 6), np.float32)),
         "im2col_runs work has shape"),
        (dict(work=np.empty(74, np.float64)), "im2col_runs work has dtype"),
        (dict(work=np.empty(148, np.float32)[::2]),
         "im2col_runs work must be C-contiguous"),
    ])
    def test_im2col_runs_rejects(self, bad, match):
        with pytest.raises(ValueError, match=match):
            self.im2col_runs(**bad)

    def test_im2col_runs_rejects_a_2d_image(self):
        with pytest.raises(ValueError, match=r"im2col_runs expects"):
            blaslib.im2col_runs(np.zeros((4, 4), np.float32),
                                2, 2, 0, 0, 1, 1)

    @pytest.mark.parametrize("bad, match", [
        (dict(out=np.empty((2, 4, 5), np.float32)), "col2im out has shape"),
        (dict(out=np.empty((2, 4, 4), np.float64)), "col2im out has dtype"),
        (dict(work=np.empty((2, 6, 5), np.float32)), "col2im work has shape"),
        (dict(work=np.empty((2, 6, 6), np.int32)), "col2im work has dtype"),
    ])
    def test_col2im_rejects(self, bad, match):
        with pytest.raises(ValueError, match=match):
            self.col2im(**bad)

    STACK = np.ones((3, 2, 4, 4), np.float32)

    @pytest.mark.parametrize("image, buffers, match", [
        (np.ones((1, 3, 2, 4, 4), np.float32), {}, "im2col image must be"),
        (STACK, dict(out=np.empty((2, 18, 16), np.float32)),
         "im2col out has shape"),
        (STACK, dict(work=np.empty((2, 2, 6, 6), np.float32)),
         "im2col work has shape"),
        (STACK, dict(out=np.empty((3, 16, 18), np.float32).swapaxes(1, 2)),
         "im2col out must be C-contiguous"),
        (STACK, dict(work=np.empty((6, 2, 6, 6), np.float32)[::2]),
         "im2col work must be C-contiguous"),
    ])
    def test_stacked_im2col_rejects(self, image, buffers, match):
        with pytest.raises(ValueError, match=match):
            blaslib.im2col(image, *self.ARGS, **buffers)

    def test_rejected_out_is_left_untouched(self):
        out = np.full((16, 18), 7.0, np.float32).T
        with pytest.raises(ValueError):
            self.im2col(out=out)
        assert (out == 7.0).all()
