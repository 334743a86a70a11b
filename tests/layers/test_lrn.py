"""Unit tests for the LRN layer."""

import numpy as np
import pytest

from repro.framework.blob import Blob
from repro.framework.layer import create_layer
from repro.framework.gradient_check import check_gradient
from repro.testing import NAN_BYTE, dirty_scratch_pool, make_blob, spec

import _oracle_kernels as oracle  # tests/ is on sys.path (conftest.py)


def lrn_layer(**params):
    defaults = dict(local_size=3, alpha=0.5, beta=0.75, k=1.0)
    defaults.update(params)
    return create_layer(spec("norm", "LRN", **defaults))


def reference_lrn(x, local_size, alpha, beta, k):
    n, c, h, w = x.shape
    half = local_size // 2
    out = np.zeros_like(x, dtype=np.float64)
    for s in range(n):
        for ch in range(c):
            lo, hi = max(0, ch - half), min(c, ch + half + 1)
            window = (x[s, lo:hi].astype(np.float64) ** 2).sum(axis=0)
            scale = k + (alpha / local_size) * window
            out[s, ch] = x[s, ch] * scale ** (-beta)
    return out


class TestForward:
    def test_matches_reference(self, rng):
        layer = lrn_layer()
        bottom = [make_blob((2, 5, 3, 3), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        expected = reference_lrn(bottom[0].data, 3, 0.5, 0.75, 1.0)
        assert np.allclose(top[0].data, expected, atol=1e-4)

    def test_cifar_parameters(self, rng):
        layer = lrn_layer(local_size=3, alpha=5e-5, beta=0.75)
        bottom = [make_blob((2, 32, 4, 4), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        expected = reference_lrn(bottom[0].data, 3, 5e-5, 0.75, 1.0)
        assert np.allclose(top[0].data, expected, atol=1e-4)

    def test_single_channel(self, rng):
        layer = lrn_layer(local_size=1)
        bottom = [make_blob((1, 1, 2, 2), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        expected = reference_lrn(bottom[0].data, 1, 0.5, 0.75, 1.0)
        assert np.allclose(top[0].data, expected, atol=1e-5)

    def test_chunked_equals_full(self, rng):
        layer = lrn_layer()
        bottom = [make_blob((4, 6, 3, 3), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        full = top[0].data.copy()
        top[0].zero_data()
        layer.forward_chunk(bottom, top, 0, 1)
        layer.forward_chunk(bottom, top, 1, 4)
        assert np.array_equal(top[0].data, full)


class TestBackward:
    def test_gradient_check(self, rng):
        layer = lrn_layer(alpha=0.9, beta=0.6)
        bottom = [make_blob((2, 4, 2, 2), rng=rng)]
        check_gradient(layer, bottom, [Blob()], step=1e-2, threshold=2e-2)


class TestScratchRouting:
    """The window sums run through one pooled scratch buffer (no
    per-chunk allocation), so results must stay bitwise stable across
    pool reuse and any chunking."""

    def test_forward_bitwise_stable_across_pool_reuse(self, rng):
        layer = lrn_layer()
        bottom = [make_blob((3, 6, 4, 4), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        first = top[0].data.copy()
        # dirty the pool with a different geometry, then recompute
        other = lrn_layer()
        other_bottom = [make_blob((2, 8, 3, 3), rng=rng)]
        other_top = [Blob()]
        other.setup(other_bottom, other_top)
        other.forward(other_bottom, other_top)
        top[0].zero_data()
        layer.forward(bottom, top)
        assert np.array_equal(top[0].data, first)

    def test_backward_chunked_equals_full(self, rng):
        layer = lrn_layer()
        bottom = [make_blob((4, 6, 3, 3), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        top[0].flat_diff[:] = rng.standard_normal(top[0].data.size)
        layer.backward(top, [True], bottom)
        full = bottom[0].diff.copy()
        bottom[0].zero_diff()
        space = layer.backward_space(top, bottom)
        for lo in range(0, space, 3):
            layer.backward_chunk(top, [True], bottom, lo,
                                 min(lo + 3, space), [])
        assert np.array_equal(bottom[0].diff, full)


class TestScalePowerCache:
    """Backward reuses forward's ``scale ** -beta`` array instead of a
    second ``np.power`` over the blob; bits must not move."""

    def test_backward_equals_recomputed_power(self, rng):
        layer = lrn_layer(local_size=5, alpha=5e-5)
        bottom = [make_blob((3, 6, 4, 4), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        top[0].flat_diff[:] = rng.standard_normal(top[0].data.size)
        layer.backward(top, [True], bottom)
        cached = bottom[0].diff.tobytes()
        # Poison the cache with what backward used to compute itself.
        layer._scale_pow[...] = 0.0
        np.power(layer._scale, -layer.beta, out=layer._scale_pow)
        layer.backward(top, [True], bottom)
        assert bottom[0].diff.tobytes() == cached

    def test_cache_is_chunk_sliced(self, rng):
        layer = lrn_layer()
        bottom = [make_blob((4, 6, 3, 3), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer._scale_pow.fill(np.nan)
        layer.forward_chunk(bottom, top, 1, 3)
        assert np.isnan(layer._scale_pow[[0, 3]]).all()
        assert np.array_equal(
            layer._scale_pow[1:3],
            np.power(layer._scale[1:3], np.float32(-layer.beta)),
        )


class TestOracleParity:
    """float32 shifted adds against the frozen float64 prefix sums:
    within tolerance, a window wider than the channel count included
    (``local_size`` 9 over 1, 2 or 3 channels), and the same bytes for
    any sample cut on a NaN-filled scratch pool."""

    @pytest.mark.parametrize("channels", [1, 2, 3, 32])
    @pytest.mark.parametrize("local_size", [3, 5, 9])
    def test_close_to_oracle_and_cut_invariant(self, rng, local_size,
                                               channels):
        layer = lrn_layer(local_size=local_size, alpha=0.9)
        bottom, top = [make_blob((5, channels, 3, 4), rng=rng)], [Blob()]
        layer.setup(bottom, top)
        top[0].diff[...] = rng.standard_normal(top[0].shape)

        def run(forward_chunk, backward_chunk, cuts):
            top[0].data[...] = 7.0  # poison what the kernels must write
            bottom[0].diff[...] = 7.0
            for lo, hi in cuts:
                forward_chunk(layer, bottom, top, lo, hi)
            for lo, hi in cuts:
                backward_chunk(layer, top, [True], bottom, lo, hi, [])
            return top[0].data.copy(), bottom[0].diff.copy()

        new = type(layer).forward_chunk, type(layer).backward_chunk
        cuts = [(3, 5), (0, 1), (1, 3)]
        y, dx = run(*new, [(0, 5)])
        run(*new, cuts)  # warm: a fresh buffer is not yet a dirty one
        dirty_scratch_pool(NAN_BYTE)
        y_cut, dx_cut = run(*new, cuts)
        assert y_cut.tobytes() == y.tobytes()
        assert dx_cut.tobytes() == dx.tobytes()
        y_old, dx_old = run(oracle.lrn_forward_chunk,
                            oracle.lrn_backward_chunk, [(0, 5)])
        np.testing.assert_allclose(y, y_old, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(dx, dx_old, rtol=1e-5, atol=1e-6)

    def test_no_float64_scratch_left(self, rng):
        from repro.compiler import scratch

        layer = lrn_layer(local_size=5)
        bottom, top = [make_blob((2, 6, 3, 3), rng=rng)], [Blob()]
        layer.setup(bottom, top)
        scratch.clear_pool()
        layer.forward(bottom, top)
        layer.backward(top, [True], bottom)
        # one work array for both passes, float32 like the blobs
        assert list(scratch._state().buffers) == [
            ("lrn.work", (2, 6, 3, 3), np.dtype(np.float32).str)]
        assert layer._scale.dtype == layer._scale_pow.dtype == np.float32


class TestValidation:
    def test_even_local_size(self):
        with pytest.raises(ValueError, match="odd"):
            lrn_layer(local_size=4).setup([make_blob((1, 2, 2, 2))], [Blob()])

    def test_within_channel_unsupported(self):
        with pytest.raises(ValueError, match="ACROSS_CHANNELS"):
            lrn_layer(norm_region="WITHIN_CHANNEL").setup(
                [make_blob((1, 2, 2, 2))], [Blob()]
            )

    def test_needs_4d(self):
        with pytest.raises(ValueError, match="4-d"):
            lrn_layer().setup([make_blob((2, 3))], [Blob()])
