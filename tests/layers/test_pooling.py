"""Unit tests for the Pooling layer (MAX and AVE)."""

import numpy as np
import pytest

from repro.framework.blob import Blob
from repro.framework.layer import create_layer
from repro.framework.layers.pooling import pool_out_size
from repro.testing import make_blob, spec


def pool_layer(**params):
    defaults = dict(pool="MAX", kernel_size=2, stride=2)
    defaults.update(params)
    return create_layer(spec("pool", "Pooling", **defaults))


def reference_pool(x, kernel, stride, pad, method):
    n, c, h, w = x.shape
    oh = pool_out_size(h, kernel, pad, stride)
    ow = pool_out_size(w, kernel, pad, stride)
    out = np.zeros((n, c, oh, ow), dtype=np.float64)
    for s in range(n):
        for ch in range(c):
            for i in range(oh):
                for j in range(ow):
                    h0, w0 = i * stride - pad, j * stride - pad
                    h1, w1 = min(h0 + kernel, h), min(w0 + kernel, w)
                    h0c, w0c = max(h0, 0), max(w0, 0)
                    window = x[s, ch, h0c:h1, w0c:w1]
                    if method == "MAX":
                        out[s, ch, i, j] = window.max()
                    else:
                        # Caffe divisor: clipped to the padded image
                        h1p = min(h0 + kernel, h + pad)
                        w1p = min(w0 + kernel, w + pad)
                        out[s, ch, i, j] = window.sum() / (
                            (h1p - h0) * (w1p - w0)
                        )
    return out


class TestOutSize:
    def test_exact_fit(self):
        assert pool_out_size(24, 2, 0, 2) == 12

    def test_ceil_overhang(self):
        # CIFAR pool1: 32 with kernel 3 stride 2 -> ceil((32-3)/2)+1 = 16
        assert pool_out_size(32, 3, 0, 2) == 16

    def test_pad_clip(self):
        # last window must start inside the padded image
        assert pool_out_size(4, 3, 1, 2) == 3


class TestMaxForward:
    def test_matches_reference(self, rng):
        layer = pool_layer(kernel_size=3, stride=2)
        bottom = [make_blob((2, 3, 7, 7), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        expected = reference_pool(bottom[0].data, 3, 2, 0, "MAX")
        assert np.allclose(top[0].data, expected)

    def test_overhanging_window(self, rng):
        layer = pool_layer(kernel_size=3, stride=2)
        bottom = [make_blob((1, 1, 6, 6), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        assert top[0].shape == (1, 1, 3, 3)
        expected = reference_pool(bottom[0].data, 3, 2, 0, "MAX")
        assert np.allclose(top[0].data, expected)

    def test_with_padding(self, rng):
        layer = pool_layer(kernel_size=3, stride=2, pad=1)
        bottom = [make_blob((1, 2, 5, 5), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        expected = reference_pool(bottom[0].data, 3, 2, 1, "MAX")
        assert np.allclose(top[0].data, expected)

    def test_chunked_equals_full(self, rng):
        layer = pool_layer(kernel_size=3, stride=2)
        bottom = [make_blob((3, 4, 6, 6), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        full = top[0].data.copy()
        top[0].zero_data()
        space = layer.forward_space(bottom, top)
        assert space == 12  # 3 samples x 4 channels
        for lo in range(0, space, 5):
            layer.forward_chunk(bottom, top, lo, min(lo + 5, space))
        assert np.array_equal(top[0].data, full)


class TestAveForward:
    def test_matches_reference(self, rng):
        layer = pool_layer(pool="AVE", kernel_size=3, stride=2)
        bottom = [make_blob((2, 2, 7, 7), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        expected = reference_pool(bottom[0].data, 3, 2, 0, "AVE")
        assert np.allclose(top[0].data, expected, atol=1e-5)

    def test_with_padding_divisor(self, rng):
        layer = pool_layer(pool="AVE", kernel_size=3, stride=2, pad=1)
        bottom = [make_blob((1, 1, 5, 5), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        expected = reference_pool(bottom[0].data, 3, 2, 1, "AVE")
        assert np.allclose(top[0].data, expected, atol=1e-5)


class TestBackward:
    def test_max_routes_to_argmax(self):
        layer = pool_layer(kernel_size=2, stride=2)
        bottom = [make_blob((1, 1, 2, 2), values=[1, 5, 2, 3])]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        top[0].flat_diff[:] = 1.0
        layer.backward(top, [True], bottom)
        assert np.allclose(bottom[0].flat_diff, [0, 1, 0, 0])

    def test_max_gradient_check(self, rng):
        from repro.framework.gradient_check import check_gradient
        # Distinct values avoid argmax ties, which break finite differences.
        values = rng.permutation(2 * 2 * 5 * 5).astype(np.float32)
        layer = pool_layer(kernel_size=3, stride=2)
        bottom = [make_blob((2, 2, 5, 5), values=values)]
        check_gradient(layer, bottom, [Blob()], step=1e-1)

    def test_ave_gradient_check(self, rng):
        from repro.framework.gradient_check import check_gradient
        layer = pool_layer(pool="AVE", kernel_size=3, stride=2, pad=1)
        bottom = [make_blob((2, 2, 5, 5), rng=rng)]
        check_gradient(layer, bottom, [Blob()])

    def test_ave_spreads_uniformly(self):
        layer = pool_layer(pool="AVE", kernel_size=2, stride=2)
        bottom = [make_blob((1, 1, 2, 2), values=[1, 2, 3, 4])]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        top[0].flat_diff[:] = 4.0
        layer.backward(top, [True], bottom)
        assert np.allclose(bottom[0].flat_diff, 1.0)


class TestScratchRouting:
    """The padded planes run through the pooled scratch buffers
    (no per-chunk allocation), so results must stay bitwise
    stable across pool reuse and any chunking."""

    @pytest.mark.parametrize("method", ["MAX", "AVE"])
    def test_forward_bitwise_stable_across_pool_reuse(self, rng, method):
        layer = pool_layer(pool=method, kernel_size=3, stride=2, pad=1)
        bottom = [make_blob((2, 3, 6, 6), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        first = top[0].data.copy()
        # dirty the pool with a different geometry, then recompute
        other = pool_layer(pool=method, kernel_size=2, stride=2)
        other_bottom = [make_blob((1, 2, 8, 8), rng=rng)]
        other_top = [Blob()]
        other.setup(other_bottom, other_top)
        other.forward(other_bottom, other_top)
        top[0].zero_data()
        layer.forward(bottom, top)
        assert np.array_equal(top[0].data, first)

    @pytest.mark.parametrize("method", ["MAX", "AVE"])
    def test_backward_chunked_equals_full(self, rng, method):
        layer = pool_layer(pool=method, kernel_size=3, stride=2, pad=1)
        values = rng.permutation(3 * 2 * 6 * 6).astype(np.float32)
        bottom = [make_blob((3, 2, 6, 6), values=values)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        top[0].flat_diff[:] = rng.standard_normal(top[0].data.size)
        layer.backward(top, [True], bottom)
        full = bottom[0].diff.copy()
        bottom[0].zero_diff()
        space = layer.backward_space(top, bottom)
        for lo in range(0, space, 2):
            layer.backward_chunk(top, [True], bottom, lo,
                                 min(lo + 2, space), [])
        assert np.array_equal(bottom[0].diff, full)


class TestValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="pool method"):
            pool_layer(pool="STOCHASTIC").setup(
                [make_blob((1, 1, 4, 4))], [Blob()]
            )

    def test_pad_too_large(self):
        with pytest.raises(ValueError, match="pad"):
            pool_layer(kernel_size=2, pad=2).setup(
                [make_blob((1, 1, 4, 4))], [Blob()]
            )


# ----------------------------------------------------------------------
# Frozen-oracle parity: the MAX kernels against tests/_oracle_kernels.py
# ----------------------------------------------------------------------
import _oracle_kernels as oracle  # noqa: E402  (tests/ is on sys.path)
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.framework.layers import pooling  # noqa: E402
from repro.testing import NAN_BYTE, dirty_scratch_pool  # noqa: E402

NEG_NAN = np.float32(np.nan).view(np.uint32) | np.uint32(0x80000000)
SPECIALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, NEG_NAN.view(np.float32)],
    dtype=np.float32,
)


CONTENTS = ["normal", "quantised", "constant", "inf", "specials"]


@st.composite
def pool_case(draw, contents=CONTENTS):
    kh, kw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    sh, sw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    ph, pw = draw(st.integers(0, kh - 1)), draw(st.integers(0, kw - 1))
    h = draw(st.integers(max(1, kh - 2 * ph), 11))
    w = draw(st.integers(max(1, kw - 2 * pw), 11))
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return dict(
        geometry=dict(kernel_h=kh, kernel_w=kw, stride_h=sh, stride_w=sw,
                      pad_h=ph, pad_w=pw),
        shape=(n, c, h, w),
        content=draw(st.sampled_from(contents)),
        seed=draw(st.integers(0, 2**16)),
        block=draw(st.integers(1, 4)),
        cuts=draw(st.lists(st.integers(0, n * c), max_size=3)),
    )


def case_input(shape, content, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(np.float32)
    if content == "quantised":  # ties, and both zeros
        x = np.round(x * 2) / 2
    elif content == "constant":
        x[:] = rng.choice(SPECIALS[:3])
    elif content == "inf":
        mask = rng.random(shape) < 0.4
        x[mask] = rng.choice(SPECIALS[2:4], int(mask.sum()))
    elif content == "specials":
        mask = rng.random(shape) < 0.3
        x[mask] = rng.choice(SPECIALS, int(mask.sum()))
    return x


def setup_case(case, pool="MAX"):
    layer = pool_layer(pool=pool, **case["geometry"])
    x = case_input(case["shape"], case["content"], case["seed"])
    bottom, top = [make_blob(x.shape, values=x)], [Blob()]
    layer.setup(bottom, top)
    # Plane counts that are not a multiple of the block, tiny blocks.
    layer._block = case["block"]
    space = layer.forward_space(bottom, top)
    bounds = sorted({0, space, *case["cuts"]})
    return layer, bottom, top, list(zip(bounds, bounds[1:]))


class TestMaxOracleParity:
    @given(case=pool_case())
    @settings(max_examples=300, deadline=None)
    def test_forward_bytes_and_indices(self, case):
        layer, bottom, top, chunks = setup_case(case)
        if top[0].count == 0:
            return
        for warm in (True, False):  # the second pass finds dirty buffers
            for lo, hi in chunks:
                layer.forward_chunk(bottom, top, lo, hi)
            if warm:
                dirty_scratch_pool()
                top[0].data[...] = 7.0
                layer._max_idx[...] = -99
        got, got_idx = top[0].data.tobytes(), layer._max_idx.copy()
        top[0].data[...] = 7.0
        layer._max_idx[...] = -99
        oracle.max_pool_forward_chunk(layer, bottom, top, 0, chunks[-1][1])
        assert got == top[0].data.tobytes()
        assert np.array_equal(got_idx, layer._max_idx)

    @given(case=pool_case())
    @settings(max_examples=150, deadline=None)
    def test_backward_bytes(self, case):
        layer, bottom, top, chunks = setup_case(case)
        if top[0].count == 0:
            return
        layer.forward(bottom, top)
        rng = np.random.default_rng(case["seed"])
        top[0].diff[...] = rng.standard_normal(top[0].shape)
        space = chunks[-1][1]
        try:
            oracle.max_pool_backward_chunk(
                layer, top, [True], bottom, 0, space, [])
        except IndexError:
            # An all -inf window recorded a cell more than a plane away;
            # per-plane indexing refused it and so must the slab form.
            # (One more plane away on the positive side — kernel_w >=
            # in_w + 2 — it lands in a neighbour instead: accepted.)
            if layer._max_idx.min() < -layer.in_h * layer.in_w:
                with pytest.raises(IndexError):
                    layer.backward(top, [True], bottom)
            return
        want = bottom[0].diff.tobytes()
        for warm in (True, False):
            bottom[0].diff[...] = 5.0
            for lo, hi in chunks:
                layer.backward_chunk(top, [True], bottom, lo, hi, [])
            if warm:
                dirty_scratch_pool()
        assert bottom[0].diff.tobytes() == want


class TestAveOracleParity:
    """AVE forward adds the k**2 window offsets in a fixed order instead
    of ``windows.sum``: within tolerance of the frozen kernel, and the
    same bytes however the planes are cut."""

    @given(case=pool_case(contents=["normal", "quantised"]))
    @settings(max_examples=150, deadline=None)
    def test_forward_close_to_oracle_and_cut_invariant(self, case):
        layer, bottom, top, chunks = setup_case(case, pool="AVE")
        if top[0].count == 0:
            return
        space = chunks[-1][1]
        for warm in (True, False):  # the second pass finds a NaN pool
            for lo, hi in chunks:
                layer.forward_chunk(bottom, top, lo, hi)
            if warm:
                dirty_scratch_pool(NAN_BYTE)
                top[0].data[...] = 7.0
        got = top[0].data.copy()
        top[0].data[...] = 7.0
        layer.forward_chunk(bottom, top, 0, space)
        assert got.tobytes() == top[0].data.tobytes()
        top[0].data[...] = 7.0
        oracle.ave_pool_forward_chunk(layer, bottom, top, 0, space)
        np.testing.assert_allclose(got, top[0].data, rtol=1e-5, atol=1e-6)


class TestMaxRegressions:
    """The two cases tier-1 never covered before the kernel rewrite."""

    def run(self, values, shape, **geometry):
        layer = pool_layer(**geometry)
        bottom, top = [make_blob(shape, values=values)], [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        top[0].diff[...] = 1.0
        layer.backward(top, [True], bottom)
        return layer, bottom[0], top[0]

    def test_tie_routes_to_first_max_row_major(self):
        # Both 2x2 windows of a 2x4 plane hold their maximum three times.
        values = [5, 1, 2, 9,
                  5, 5, 9, 9]
        layer, bottom, top = self.run(values, (1, 1, 2, 4),
                                      kernel_size=2, stride=2)
        assert top.data.ravel().tolist() == [5.0, 9.0]
        assert layer._max_idx.ravel().tolist() == [0, 3]
        assert bottom.diff.ravel().tolist() == [1, 0, 0, 1, 0, 0, 0, 0]

    def test_overlapping_ties_accumulate_on_the_shared_cell(self):
        # kernel 2 stride 1: the middle 7 is the first max of one window
        # and the only max of its neighbour -> gradient 2 on one cell.
        values = [1, 7, 7,
                  0, 0, 0]
        layer, bottom, top = self.run(values, (1, 1, 2, 3),
                                      kernel_size=2, stride=1)
        assert layer._max_idx.ravel().tolist() == [1, 1]
        assert bottom.diff.ravel().tolist() == [0, 2, 0, 0, 0, 0]

    def test_signed_zero_keeps_the_first_zeros_sign(self):
        values = [-0.0, 0.0, 0.0, -0.0]
        layer, bottom, top = self.run(values, (1, 1, 1, 4),
                                      kernel_h=1, kernel_w=2, stride=2)
        assert np.signbit(top.data.ravel()).tolist() == [True, False]

    def test_nan_window_yields_nan_and_routes_to_first_nan(self):
        nan = np.nan
        values = [1, nan, 3, 4,
                  9, nan, 7, 8]
        layer, bottom, top = self.run(values, (1, 1, 2, 4),
                                      kernel_size=2, stride=2)
        out = top.data.ravel()
        assert np.isnan(out[0]) and out[1] == 8.0
        # first NaN row-major is cell 1, not the larger 9 nor the later NaN
        assert layer._max_idx.ravel().tolist() == [1, 7]
        assert bottom.diff.ravel().tolist() == [0, 1, 0, 0, 0, 0, 0, 1]

    def test_nan_payload_is_the_first_nans(self):
        values = np.array([1, 0, 2, 0], dtype=np.float32)
        values[[1, 3]] = SPECIALS[[5, 4]]  # -nan first, then +nan
        layer, bottom, top = self.run(values, (1, 1, 1, 4),
                                      kernel_h=1, kernel_w=4, stride=1)
        assert top.data.tobytes() == SPECIALS[5].tobytes()
        assert layer._max_idx.ravel().tolist() == [1]

    def test_result_does_not_depend_on_the_block_size(self, rng,
                                                      monkeypatch):
        x = np.round(rng.standard_normal((3, 5, 9, 7)) * 2) / 2
        outs = []
        for block_bytes in (1, pooling._BLOCK_BYTES):  # 1 plane / all 15
            monkeypatch.setattr(pooling, "_BLOCK_BYTES", block_bytes)
            layer = pool_layer(kernel_size=3, stride=2, pad=1)
            bottom, top = [make_blob(x.shape, values=x)], [Blob()]
            layer.setup(bottom, top)
            layer.forward(bottom, top)
            outs.append((top[0].data.tobytes(), layer._max_idx.tobytes()))
        assert outs[0] == outs[1]
