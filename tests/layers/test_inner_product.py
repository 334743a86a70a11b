"""Unit tests for the InnerProduct layer."""

import numpy as np
import pytest

from repro.framework.blob import Blob
from repro.framework.layer import create_layer
from repro.testing import make_blob, spec


def ip_layer(**params):
    defaults = dict(num_output=4, filler_seed=13,
                    weight_filler={"type": "gaussian", "std": 0.5},
                    bias_filler={"type": "constant", "value": 0.25})
    defaults.update(params)
    return create_layer(spec("ip", "InnerProduct", **defaults))


class TestForward:
    def test_matches_matmul(self, rng):
        layer = ip_layer()
        bottom = [make_blob((3, 5), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        expected = bottom[0].data @ layer.blobs[0].data.T + layer.blobs[1].data
        assert np.allclose(top[0].data, expected, atol=1e-5)

    def test_flattens_trailing_axes(self, rng):
        layer = ip_layer()
        bottom = [make_blob((2, 3, 4, 4), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        assert top[0].shape == (2, 4)
        flat = bottom[0].data.reshape(2, -1)
        expected = flat @ layer.blobs[0].data.T + layer.blobs[1].data
        assert np.allclose(top[0].data, expected, atol=1e-5)

    def test_no_bias(self, rng):
        layer = ip_layer(bias_term=False)
        bottom = [make_blob((2, 3), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        assert np.allclose(top[0].data, bottom[0].data @ layer.blobs[0].data.T,
                           atol=1e-5)

    def test_chunked_equals_full_bitwise(self, rng):
        layer = ip_layer(num_output=7)
        bottom = [make_blob((5, 6), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        full = top[0].data.copy()
        top[0].zero_data()
        layer.forward_chunk(bottom, top, 0, 2)
        layer.forward_chunk(bottom, top, 2, 5)
        # bitwise: the per-sample gemv makes values chunking-invariant
        assert np.array_equal(top[0].data, full)

    def test_inner_size_change_rejected(self, rng):
        layer = ip_layer()
        bottom = [make_blob((2, 5), rng=rng)]
        layer.setup(bottom, [Blob()])
        with pytest.raises(ValueError, match="inner size"):
            layer.reshape([make_blob((2, 6), rng=rng)], [Blob()])


class TestBackward:
    def test_gradient_check(self, rng):
        from repro.framework.gradient_check import check_gradient
        layer = ip_layer(num_output=3)
        bottom = [make_blob((4, 5), rng=rng)]
        check_gradient(layer, bottom, [Blob()])

    def test_weight_rows_chunking_invariant(self, rng):
        layer = ip_layer(num_output=6)
        bottom = [make_blob((4, 5), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        top[0].flat_diff[:] = rng.standard_normal(top[0].count)

        def grads_with_rows(splits):
            for blob in layer.blobs:
                blob.zero_diff()
            lo = 0
            for hi in splits:
                layer._backward_weight_rows(top, bottom, lo, hi)
                lo = hi
            return layer.blobs[0].flat_diff.copy()

        a = grads_with_rows([6])
        b = grads_with_rows([1, 4, 6])
        assert np.array_equal(a, b)

    def test_backward_loops_structure(self, rng):
        layer = ip_layer()
        bottom = [make_blob((3, 5), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        loops = layer.backward_loops(top, [True], bottom)
        assert len(loops) == 2
        assert not any(loop.reduction for loop in loops)  # row-parallel dW

    def test_backward_loops_skip_data_when_not_propagating(self, rng):
        layer = ip_layer()
        bottom = [make_blob((3, 5), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        loops = layer.backward_loops(top, [False], bottom)
        assert len(loops) == 1  # only the weight loop
