"""Unit tests for the graph compiler's fused layers.

Two properties matter: each fused layer's forward pass is *bitwise*
identical to running the unfused chain with the same parameters, and
its analytic gradients check out numerically.
"""

import numpy as np
import pytest

from repro.framework.blob import Blob
from repro.framework.gradient_check import check_gradient
from repro.framework.layer import create_layer
from repro.framework.net_spec import LayerSpec
from repro.testing import make_blob


def lspec(name, type_, **params):
    return LayerSpec(name=name, type=type_, bottoms=["x"], tops=["t"],
                     params=params)


CONV_PARAMS = dict(num_output=3, kernel_size=3, filler_seed=11,
                   weight_filler={"type": "gaussian", "std": 0.5},
                   bias_filler={"type": "constant", "value": 0.1})
IP_PARAMS = dict(num_output=5, filler_seed=12,
                 weight_filler={"type": "gaussian", "std": 0.5},
                 bias_filler={"type": "constant", "value": 0.1})
SCALE_PARAMS = dict(filler={"type": "gaussian", "std": 1.0}, filler_seed=13)
BIAS_PARAMS = dict(filler={"type": "gaussian", "std": 0.5}, filler_seed=14)


def run_layer(layer, bottoms):
    top = [Blob()]
    layer.setup(bottoms, top)
    layer.forward(bottoms, top)
    return layer, top


def run_chain(bottoms, *specs):
    """Run standalone layers back to back, each out of place."""
    current = list(bottoms)
    for spec in specs:
        layer = create_layer(spec)
        top = [Blob()]
        layer.setup(current, top)
        layer.forward(current, top)
        current = top
    return current[0]


class TestForwardParity:
    """Same filler seeds => same parameters => bitwise-equal outputs."""

    def test_fused_ip_relu(self, rng):
        x = make_blob((4, 6), rng=rng)
        fused, top = run_layer(
            create_layer(lspec("ip", "FusedInnerProductReLU", **IP_PARAMS)),
            [x])
        ref = run_chain([x], lspec("ip", "InnerProduct", **IP_PARAMS),
                        lspec("r", "ReLU"))
        assert np.array_equal(top[0].data, ref.data)

    def test_fused_conv_relu(self, rng):
        x = make_blob((2, 3, 8, 8), rng=rng)
        fused, top = run_layer(
            create_layer(lspec("c", "FusedConv", fused_relu=True,
                               **CONV_PARAMS)),
            [x])
        ref = run_chain([x], lspec("c", "Convolution", **CONV_PARAMS),
                        lspec("r", "ReLU"))
        assert np.array_equal(top[0].data, ref.data)

    def test_fused_conv_scale_relu(self, rng):
        x = make_blob((2, 3, 6, 6), rng=rng)
        middle = {"name": "sc", "type": "Scale", "params": SCALE_PARAMS}
        fused, top = run_layer(
            create_layer(lspec("c", "FusedConv", fused_relu=True,
                               fused_middle=middle, **CONV_PARAMS)),
            [x])
        ref = run_chain([x], lspec("c", "Convolution", **CONV_PARAMS),
                        lspec("sc", "Scale", **SCALE_PARAMS),
                        lspec("r", "ReLU"))
        assert np.array_equal(top[0].data, ref.data)

    def test_fused_conv_bias_relu(self, rng):
        params = dict(CONV_PARAMS, bias_term=False)
        x = make_blob((2, 3, 6, 6), rng=rng)
        middle = {"name": "b", "type": "Bias", "params": BIAS_PARAMS}
        fused, top = run_layer(
            create_layer(lspec("c", "FusedConv", fused_relu=True,
                               fused_middle=middle, **params)),
            [x])
        ref = run_chain([x], lspec("c", "Convolution", **params),
                        lspec("b", "Bias", **BIAS_PARAMS),
                        lspec("r", "ReLU"))
        assert np.array_equal(top[0].data, ref.data)

    def test_fused_eltwise_relu(self, rng):
        a = make_blob((3, 7), rng=rng)
        b = make_blob((3, 7), rng=rng)
        fused, top = run_layer(
            create_layer(LayerSpec(name="e", type="FusedEltwiseReLU",
                                   bottoms=["a", "b"], tops=["t"],
                                   params={})),
            [a, b])
        summed = a.data + b.data
        assert np.array_equal(top[0].data, np.maximum(summed, 0.0))

    def test_fused_scale_bias(self, rng):
        x = make_blob((2, 3, 4, 4), rng=rng)
        middle = {"name": "b", "type": "Bias", "params": BIAS_PARAMS}
        fused, top = run_layer(
            create_layer(lspec("sc", "FusedScaleBias",
                               fused_middle=middle, **SCALE_PARAMS)),
            [x])
        ref = run_chain([x], lspec("sc", "Scale", **SCALE_PARAMS),
                        lspec("b", "Bias", **BIAS_PARAMS))
        assert np.array_equal(top[0].data, ref.data)

    def test_middle_params_are_learnable_blobs(self, rng):
        middle = {"name": "sc", "type": "Scale", "params": SCALE_PARAMS}
        layer = create_layer(lspec("c", "FusedConv", fused_relu=True,
                                   fused_middle=middle, **CONV_PARAMS))
        x = make_blob((2, 3, 6, 6), rng=rng)
        layer.setup([x], [Blob()])
        # conv weight + conv bias + scale gamma
        assert len(layer.blobs) == 3
        assert layer.blobs[2].shape == (3,)


def backward_parity(fused_spec_, chain_specs, x, rng):
    """Fused backward must produce the unfused chain's diffs bitwise.

    The numeric checker cannot handle the ReLU kink (a conv output near
    zero flips its mask across the finite-difference step), so the conv
    variants are held to the stricter standard instead: byte-for-byte
    the gradients of the standalone chain.
    """
    x_fused = make_blob(x.shape, values=x.data.copy())
    fused = create_layer(fused_spec_)
    fused_top = [Blob()]
    fused.setup([x_fused], fused_top)
    fused.forward([x_fused], fused_top)

    x_chain = make_blob(x.shape, values=x.data.copy())
    layers, bottoms_list, tops_list = [], [], []
    current = [x_chain]
    for spec in chain_specs:
        layer = create_layer(spec)
        top = [Blob()]
        layer.setup(current, top)
        layer.forward(current, top)
        layers.append(layer)
        bottoms_list.append(current)
        tops_list.append(top)
        current = top

    dy = rng.standard_normal(fused_top[0].count).astype(np.float32)
    fused_top[0].flat_diff[:] = dy
    current[0].flat_diff[:] = dy
    for layer in layers:
        for blob in layer.blobs:
            blob.zero_diff()
    for blob in fused.blobs:
        blob.zero_diff()

    fused.backward(fused_top, [True], [x_fused])
    for layer, bottoms, tops in zip(
            reversed(layers), reversed(bottoms_list), reversed(tops_list)):
        layer.backward(tops, [True], bottoms)

    assert np.array_equal(x_fused.flat_diff, x_chain.flat_diff)
    chain_params = [b for layer in layers for b in layer.blobs]
    assert len(fused.blobs) == len(chain_params)
    for got, want in zip(fused.blobs, chain_params):
        assert np.array_equal(got.flat_diff, want.flat_diff)


class TestGradients:
    def test_fused_ip_relu(self, rng):
        layer = create_layer(lspec("ip", "FusedInnerProductReLU",
                                   **IP_PARAMS))
        check_gradient(layer, [make_blob((3, 4), rng=rng)], [Blob()])

    def test_fused_conv_relu_backward_parity(self, rng):
        backward_parity(
            lspec("c", "FusedConv", fused_relu=True, **CONV_PARAMS),
            [lspec("c", "Convolution", **CONV_PARAMS), lspec("r", "ReLU")],
            make_blob((2, 3, 6, 6), rng=rng), rng)

    def test_fused_conv_scale_relu_backward_parity(self, rng):
        middle = {"name": "sc", "type": "Scale", "params": SCALE_PARAMS}
        backward_parity(
            lspec("c", "FusedConv", fused_relu=True, fused_middle=middle,
                  **CONV_PARAMS),
            [lspec("c", "Convolution", **CONV_PARAMS),
             lspec("sc", "Scale", **SCALE_PARAMS), lspec("r", "ReLU")],
            make_blob((2, 3, 6, 6), rng=rng), rng)

    def test_fused_conv_bias_relu_backward_parity(self, rng):
        params = dict(CONV_PARAMS, bias_term=False)
        middle = {"name": "b", "type": "Bias", "params": BIAS_PARAMS}
        backward_parity(
            lspec("c", "FusedConv", fused_relu=True, fused_middle=middle,
                  **params),
            [lspec("c", "Convolution", **params),
             lspec("b", "Bias", **BIAS_PARAMS), lspec("r", "ReLU")],
            make_blob((2, 3, 6, 6), rng=rng), rng)

    def test_fused_ip_relu_backward_parity(self, rng):
        backward_parity(
            lspec("ip", "FusedInnerProductReLU", **IP_PARAMS),
            [lspec("ip", "InnerProduct", **IP_PARAMS), lspec("r", "ReLU")],
            make_blob((4, 6), rng=rng), rng)

    def test_fused_conv_scale_numeric_without_relu(self, rng):
        # No ReLU => no kink; numerically validates the scale middle's
        # dgamma plumbing through the _prescale stash.
        middle = {"name": "sc", "type": "Scale", "params": SCALE_PARAMS}
        layer = create_layer(lspec("c", "FusedConv", fused_relu=False,
                                   fused_middle=middle, **CONV_PARAMS))
        check_gradient(layer, [make_blob((2, 3, 5, 5), rng=rng)], [Blob()])

    def test_fused_eltwise_relu(self, rng):
        layer = create_layer(LayerSpec(name="e", type="FusedEltwiseReLU",
                                       bottoms=["a", "b"], tops=["t"],
                                       params={}))
        check_gradient(
            layer,
            [make_blob((2, 6), rng=rng), make_blob((2, 6), rng=rng)],
            [Blob()])

    def test_fused_scale_bias(self, rng):
        middle = {"name": "b", "type": "Bias", "params": BIAS_PARAMS}
        layer = create_layer(lspec("sc", "FusedScaleBias",
                                   fused_middle=middle, **SCALE_PARAMS))
        check_gradient(layer, [make_blob((2, 3, 3, 3), rng=rng)], [Blob()])
