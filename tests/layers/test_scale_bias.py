"""Unit tests for the Scale and Bias layers."""

import numpy as np
import pytest

from repro.framework.blob import Blob
from repro.framework.layer import create_layer
from repro.framework.gradient_check import check_gradient
from repro.testing import make_blob, spec


def scale_layer(**params):
    defaults = dict(filler={"type": "gaussian", "std": 1.0},
                    filler_seed=17)
    defaults.update(params)
    return create_layer(spec("sc", "Scale", **defaults))


class TestScaleForward:
    def test_channel_scaling(self, rng):
        layer = scale_layer()
        bottom = [make_blob((2, 3, 4, 4), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        gamma = layer.blobs[0].data
        expected = bottom[0].data * gamma[None, :, None, None]
        assert np.allclose(top[0].data, expected, atol=1e-5)

    def test_with_bias(self, rng):
        layer = scale_layer(bias_term=True,
                            bias_filler={"type": "constant", "value": 0.5})
        bottom = [make_blob((2, 3, 2, 2), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        gamma = layer.blobs[0].data
        expected = bottom[0].data * gamma[None, :, None, None] + 0.5
        assert np.allclose(top[0].data, expected, atol=1e-5)

    def test_default_filler_is_identity(self, rng):
        layer = create_layer(spec("sc", "Scale"))
        bottom = [make_blob((2, 3, 2, 2), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        assert np.allclose(top[0].data, bottom[0].data)

    def test_2d_input(self, rng):
        layer = scale_layer()
        bottom = [make_blob((4, 5), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        expected = bottom[0].data * layer.blobs[0].data[None, :]
        assert np.allclose(top[0].data, expected, atol=1e-5)


class TestScaleBackward:
    def test_gradient_check(self, rng):
        layer = scale_layer(bias_term=True,
                            bias_filler={"type": "gaussian", "std": 0.2})
        check_gradient(layer, [make_blob((2, 3, 2, 2), rng=rng)], [Blob()])

    def test_channel_loop_chunking_invariant(self, rng):
        layer = scale_layer()
        bottom = [make_blob((3, 6, 2, 2), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        top[0].flat_diff[:] = rng.standard_normal(top[0].count)

        def grads(splits):
            layer.blobs[0].zero_diff()
            lo = 0
            for hi in splits:
                layer._backward_param_channels(top, bottom, lo, hi)
                lo = hi
            return layer.blobs[0].flat_diff.copy()

        assert np.array_equal(grads([6]), grads([1, 3, 6]))

    def test_backward_loops_reduction_free(self, rng):
        layer = scale_layer()
        bottom = [make_blob((2, 3, 2, 2), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        loops = layer.backward_loops(top, [True], bottom)
        assert len(loops) == 2
        assert not any(loop.reduction for loop in loops)


class TestBias:
    def test_forward(self, rng):
        layer = create_layer(spec("b", "Bias",
                                  filler={"type": "gaussian", "std": 1.0},
                                  filler_seed=19))
        bottom = [make_blob((2, 4, 3, 3), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        beta = layer.blobs[0].data
        assert np.allclose(top[0].data,
                           bottom[0].data + beta[None, :, None, None],
                           atol=1e-6)

    def test_gradient_check(self, rng):
        layer = create_layer(spec("b", "Bias",
                                  filler={"type": "gaussian", "std": 0.3},
                                  filler_seed=23))
        check_gradient(layer, [make_blob((2, 3, 2, 2), rng=rng)], [Blob()])


class TestScaleInParallelNet:
    def test_scale_trains_in_parallel_bitwise(self, rng):
        """A net with a Scale layer trains identically at any thread
        count — the new layer needed no parallelization work."""
        from repro.core import ParallelExecutor
        from repro.data import register_default_sources
        from repro.framework.net import Net
        from repro.framework.prototxt import parse_prototxt
        from repro.framework.solvers import SGDSolver, SolverParams

        register_default_sources()
        text = """
        layer { name: "d" type: "Data" top: "data" top: "label"
                data_param { source: "synth_mnist_train" batch_size: 16 } }
        layer { name: "sc" type: "Scale" bottom: "data" top: "scaled"
                scale_param { bias_term: true filler_seed: 31
                  filler { type: "gaussian" std: 0.5 }
                  bias_filler { type: "constant" } } }
        layer { name: "ip" type: "InnerProduct" bottom: "scaled" top: "ip"
                inner_product_param { num_output: 10 filler_seed: 32
                  weight_filler { type: "xavier" } } }
        layer { name: "loss" type: "SoftmaxWithLoss" bottom: "ip"
                bottom: "label" top: "loss" }
        """

        def run(executor=None):
            net = Net(parse_prototxt(text))
            solver = SGDSolver(SolverParams(base_lr=0.01, max_iter=5),
                               net, executor=executor)
            solver.step(5)
            return solver.loss_history

        sequential = run()
        with ParallelExecutor(num_threads=3, reduction="blockwise") as ex:
            parallel = run(ex)
        assert parallel == sequential
        assert sequential[-1] < sequential[0]
