"""Unit tests for the Convolution layer."""

import itertools
import math

import _oracle_kernels as oracle  # tests/ is on sys.path (conftest.py)
import numpy as np
import pytest

from repro.framework.blob import Blob
from repro.framework.layer import create_layer
from repro.framework.layers import conv
from repro.framework.layers.conv import ConvolutionLayer

from repro.testing import make_blob, spec


def conv_layer(**params):
    defaults = dict(num_output=2, kernel_size=3, filler_seed=11,
                    weight_filler={"type": "gaussian", "std": 0.5},
                    bias_filler={"type": "constant", "value": 0.1})
    defaults.update(params)
    return create_layer(spec("conv", "Convolution", **defaults))


def reference_conv(x, weights, bias, stride=1, pad=0):
    """Direct convolution, no im2col."""
    n, c, h, w = x.shape
    k, _, kh, kw = weights.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (x.shape[2] - kh) // stride + 1
    ow = (x.shape[3] - kw) // stride + 1
    out = np.zeros((n, k, oh, ow), dtype=np.float64)
    for s in range(n):
        for f in range(k):
            for i in range(oh):
                for j in range(ow):
                    patch = x[s, :, i * stride : i * stride + kh,
                              j * stride : j * stride + kw]
                    out[s, f, i, j] = np.sum(patch * weights[f]) + bias[f]
    return out


class TestForward:
    def test_matches_direct_convolution(self, rng):
        layer = conv_layer()
        bottom = [make_blob((2, 3, 6, 6), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        expected = reference_conv(
            bottom[0].data, layer.blobs[0].data, layer.blobs[1].data
        )
        assert top[0].shape == (2, 2, 4, 4)
        assert np.allclose(top[0].data, expected, atol=1e-4)

    def test_stride_and_pad(self, rng):
        layer = conv_layer(stride=2, pad=1)
        bottom = [make_blob((1, 2, 5, 5), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        expected = reference_conv(
            bottom[0].data, layer.blobs[0].data, layer.blobs[1].data,
            stride=2, pad=1,
        )
        assert np.allclose(top[0].data, expected, atol=1e-4)

    def test_rectangular_kernel(self, rng):
        layer = conv_layer(kernel_h=3, kernel_w=2)
        bottom = [make_blob((1, 1, 5, 5), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        assert top[0].shape == (1, 2, 3, 4)

    def test_no_bias(self, rng):
        layer = conv_layer(bias_term=False)
        bottom = [make_blob((1, 1, 4, 4), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        assert len(layer.blobs) == 1

    def test_grouped_convolution(self, rng):
        layer = conv_layer(num_output=4, group=2)
        bottom = [make_blob((1, 4, 5, 5), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        # group 0 outputs depend only on channels 0-1
        x2 = Blob((1, 4, 5, 5), name="x2")
        x2.set_data(bottom[0].flat_data)
        x2.data[0, 2:] = 0  # zero group-1 channels
        top2 = [Blob()]
        out1 = top[0].data.copy()
        layer.forward([x2], top2)
        assert np.allclose(out1[0, :2], top2[0].data[0, :2], atol=1e-5)

    def test_group_divisibility_error(self, rng):
        layer = conv_layer(num_output=3, group=2)
        with pytest.raises(ValueError, match="group"):
            layer.setup([make_blob((1, 4, 5, 5), rng=rng)], [Blob()])

    def test_chunked_forward_equals_full(self, rng):
        layer = conv_layer()
        bottom = [make_blob((4, 3, 6, 6), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        full = top[0].data.copy()
        top[0].zero_data()
        for s in range(4):
            layer.forward_chunk(bottom, top, s, s + 1)
        assert np.array_equal(top[0].data, full)

    def test_needs_4d_bottom(self, rng):
        layer = conv_layer()
        with pytest.raises(ValueError, match="4-d"):
            layer.setup([make_blob((2, 3), rng=rng)], [Blob()])


class TestForwardBlocks:
    """Forward lowers a block of samples per stacked ``im2col`` and
    ``gemm``: where the blocks and the chunks are cut changes no byte,
    and every byte is the per-sample exact-``im2col`` forward's."""

    CHUNKS = [(0, 2), (2, 5), (5, 7)]  # 7 samples, cut mid-block

    @pytest.mark.parametrize("params", [
        dict(kernel_size=3),
        dict(kernel_size=3, stride=2, pad=1),
        dict(num_output=4, group=2, kernel_h=3, kernel_w=2, pad=1),
        dict(num_output=6, group=2, kernel_size=2, stride=2,
             bias_term=False),
    ])
    def test_block_and_chunk_cuts_change_no_byte(self, rng, monkeypatch,
                                                 params):
        x = rng.standard_normal((7, 4, 7, 6)).astype(np.float32)

        def forward(column_bytes):
            monkeypatch.setattr(conv, "_COLUMN_BYTES", column_bytes)
            layer = conv_layer(**params)
            bottom, top = [make_blob(x.shape, values=x)], [Blob()]
            layer.setup(bottom, top)
            top[0].data[...] = np.nan
            for lo, hi in self.CHUNKS:
                layer.forward_chunk(bottom, top, lo, hi)
            return layer, bottom, top

        layer, bottom, top = forward(conv._COLUMN_BYTES)
        assert layer._block == 7
        sample_bytes = 4 * math.prod(layer._col_shape)
        want = top[0].data.tobytes()
        for column_bytes, block in ((1, 1), (3 * sample_bytes, 3)):
            layer, _, top = forward(column_bytes)
            assert layer._block == block
            assert top[0].data.tobytes() == want, block
        top[0].data[...] = np.nan
        oracle.conv_forward_chunk(layer, bottom, top, 0, 7)
        assert top[0].data.tobytes() == want


class TestBackwardDataBlocks:
    """Backward-data lowers a block of samples' interleaved top-diff
    planes per stacked ``im2col`` and ``gemm``, straight into the bottom
    diff: where the blocks and the chunks are cut changes no byte, and
    every byte is the per-sample exact-``im2col`` correlation's."""

    CHUNKS = TestForwardBlocks.CHUNKS

    @pytest.mark.parametrize("params", [
        dict(kernel_size=3),
        dict(kernel_size=3, stride=2, pad=1),
        dict(num_output=4, group=2, kernel_h=3, kernel_w=2, pad=1),
        dict(num_output=6, group=2, kernel_size=2, stride=2, pad=3),
    ])
    def test_block_and_chunk_cuts_change_no_byte(self, rng, monkeypatch,
                                                 params):
        x = rng.standard_normal((7, 4, 7, 6)).astype(np.float32)

        def backward_data(column_bytes):
            monkeypatch.setattr(conv, "_COLUMN_BYTES", column_bytes)
            layer = conv_layer(**params)
            bottom, top = [make_blob(x.shape, values=x)], [Blob()]
            layer.setup(bottom, top)
            top[0].diff[...] = np.random.default_rng(5).standard_normal(
                top[0].shape)
            bottom[0].diff[...] = np.nan
            for lo, hi in self.CHUNKS:
                layer._backward_data_chunk(top, bottom, lo, hi)
            return layer, bottom, top

        layer, bottom, top = backward_data(conv._COLUMN_BYTES)
        assert layer._dy_block == 7
        sample_bytes = 4 * math.prod(layer._dy_col_shape)
        want = bottom[0].diff.tobytes()
        for column_bytes, block in ((1, 1), (3 * sample_bytes, 3)):
            layer, bottom, _ = backward_data(column_bytes)
            assert layer._dy_block == block
            assert bottom[0].diff.tobytes() == want, block
        bottom[0].diff[...] = np.nan
        oracle.conv_correlation_data_chunk(layer, top, bottom, 0, 7)
        assert bottom[0].diff.tobytes() == want


class TestBackward:
    def test_gradient_check(self, rng):
        from repro.framework.gradient_check import check_gradient
        layer = conv_layer(num_output=2, kernel_size=2)
        bottom = [make_blob((2, 2, 4, 4), rng=rng)]
        check_gradient(layer, bottom, [Blob()])

    def test_gradient_check_stride_pad(self, rng):
        from repro.framework.gradient_check import check_gradient
        for params, shape in (
            (dict(kernel_size=3, stride=2, pad=1), (2, 1, 5, 5)),
            # pad >= kernel: the border windows lie wholly in the padding
            (dict(kernel_size=2, pad=3), (2, 1, 3, 3)),
            # stride 3 drops the last 2 input rows/cols
            (dict(kernel_size=3, stride=3), (2, 1, 8, 8)),
            (dict(num_output=4, group=2, kernel_h=3, kernel_w=2, pad=1),
             (2, 4, 4, 5)),
        ):
            layer = conv_layer(**{"num_output": 2, **params})
            bottom = [make_blob(shape, rng=rng)]
            check_gradient(layer, bottom, [Blob()])

    def test_param_grads_accumulate(self, rng):
        layer = conv_layer()
        bottom = [make_blob((2, 3, 6, 6), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        top[0].flat_diff[:] = 1.0
        for blob in layer.blobs:
            blob.zero_diff()
        layer.backward(top, [True], bottom)
        once = layer.blobs[0].flat_diff.copy()
        layer.backward(top, [True], bottom)
        assert np.allclose(layer.blobs[0].flat_diff, 2 * once, rtol=1e-5)

    def test_propagate_down_false_skips_bottom(self, rng):
        layer = conv_layer()
        bottom = [make_blob((1, 3, 5, 5), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        top[0].flat_diff[:] = 1.0
        bottom[0].flat_diff[:] = 7.0
        for blob in layer.blobs:
            blob.zero_diff()
        layer.backward(top, [False], bottom)
        assert np.allclose(bottom[0].flat_diff, 7.0)  # untouched
        assert layer.blobs[0].asum_diff() > 0  # weights still updated


#: ``(extent, kernel, stride, pad)`` per axis.  Height: every kernel 1-3
#: and stride 1-3 at pad 0 up to kernel + 1, on an even and an odd extent
#: (stride 3 drops rows on both).  Width: a sparser set, so kernels are
#: rectangular.  72 x 16 x group 1-2 = 2304 geometries.
_HEIGHTS = [(e, k, s, p) for e in (6, 7) for k in (1, 2, 3)
            for s in (1, 2, 3) for p in range(k + 2)]
_WIDTHS = [(7, k, s, p) for k in (1, 3) for s in (1, 3)
           for p in (0, 1, k, k + 1)]


class TestBackwardDataCorrelation:
    """``_backward_data_chunk`` (a correlation of the interleaved top diff
    with the rotated filter bank) against the ``col2im(W_gT @ dY_g)``
    adjoint it replaced, frozen in ``tests/_oracle_kernels.py``."""

    @staticmethod
    def backward(layer, bottom, top):
        for blob in layer.blobs:
            blob.zero_diff()
        bottom[0].flat_diff[:] = np.nan  # every cell must be written
        layer.backward(top, [True], bottom)
        return (bottom[0].diff.copy(),
                [blob.diff.tobytes() for blob in layer.blobs])

    @pytest.mark.parametrize("group", [1, 2])
    def test_matches_col2im_adjoint(self, group, rng, monkeypatch):
        for (h, kh, sh, ph), (w, kw, sw, pw) in itertools.product(
                _HEIGHTS, _WIDTHS):
            geometry = (h, w, kh, kw, sh, sw, ph, pw)
            layer = conv_layer(
                num_output=3 * group, group=group, kernel_h=kh, kernel_w=kw,
                stride_h=sh, stride_w=sw, pad_h=ph, pad_w=pw)
            bottom = [make_blob((2, 2 * group, h, w), rng=rng)]
            top = [Blob()]
            layer.setup(bottom, top)
            layer.forward(bottom, top)
            top[0].flat_diff[:] = rng.standard_normal(top[0].count)
            dx, grads = self.backward(layer, bottom, top)
            with monkeypatch.context() as patch:
                patch.setattr(ConvolutionLayer, "_backward_data_chunk",
                              oracle.conv_backward_data_chunk)
                want_dx, want_grads = self.backward(layer, bottom, top)
            np.testing.assert_allclose(dx, want_dx, rtol=1e-5, atol=1e-6,
                                       err_msg=str(geometry))
            assert grads == want_grads, geometry
