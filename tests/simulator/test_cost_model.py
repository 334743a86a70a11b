"""Unit tests for per-layer cost extraction."""

import numpy as np
import pytest

from repro.simulator import net_costs
from repro.simulator.cost_model import producer_dist
from repro.zoo import build_net


@pytest.fixture(scope="module")
def lenet_costs():
    net = build_net("lenet")
    net.forward()
    return net_costs(net)


def by_key(costs):
    return {cost.key: cost for cost in costs}


class TestLeNetCosts:
    def test_all_layers_present(self, lenet_costs):
        keys = {c.key for c in lenet_costs}
        for name in ("conv1", "pool1", "conv2", "pool2", "ip1", "ip2",
                     "relu1", "loss"):
            assert f"{name}.fwd" in keys and f"{name}.bwd" in keys
        assert "mnist.fwd" in keys  # data layer, forward only

    def test_conv_flops(self, lenet_costs):
        # conv1: 64 x 20 x 24 x 24 x (1 x 25) MACs x 2 + bias adds
        conv1 = by_key(lenet_costs)["conv1.fwd"]
        macs = 64 * 20 * 24 * 24 * 25
        assert conv1.flops == pytest.approx(2 * macs + 64 * 20 * 24 * 24)

    def test_conv_space_is_batch(self, lenet_costs):
        assert by_key(lenet_costs)["conv1.fwd"].space == 64

    def test_pooling_space_is_sample_channel(self, lenet_costs):
        assert by_key(lenet_costs)["pool1.fwd"].space == 64 * 20

    def test_relu_fully_coalesced(self, lenet_costs):
        relu = by_key(lenet_costs)["relu1.fwd"]
        assert relu.space == 64 * 500  # ip1 output elements

    def test_data_layer_serial(self, lenet_costs):
        data = by_key(lenet_costs)["mnist.fwd"]
        assert data.serial and data.dist == "serial"

    def test_only_conv_has_reduction(self, lenet_costs):
        reducers = {c.name for c in lenet_costs if c.reduction_bytes > 0}
        assert reducers == {"conv1", "conv2"}

    def test_conv_reduction_matches_param_bytes(self, lenet_costs):
        conv2 = by_key(lenet_costs)["conv2.bwd"]
        assert conv2.reduction_bytes == (50 * 20 * 25 + 50) * 4

    def test_dominant_layers(self, lenet_costs):
        """Paper Fig 4: conv+pool dominate the serial execution."""
        from repro.simulator import CPUModel
        model = CPUModel()
        times = model.layer_times(lenet_costs, 1)
        total = sum(times.values())
        convpool = sum(v for k, v in times.items()
                       if k.startswith(("conv", "pool")))
        assert convpool / total > 0.7

    def test_pooling_variant_recorded(self, lenet_costs):
        assert by_key(lenet_costs)["pool1.fwd"].variant == "MAX"


class TestProducerDist:
    def test_forward_chain(self, lenet_costs):
        costs = list(lenet_costs)
        index = next(i for i, c in enumerate(costs)
                     if c.key == "conv1.fwd")
        assert producer_dist(costs, index) == "serial"  # fed by data layer

    def test_backward_chain(self, lenet_costs):
        costs = list(lenet_costs)
        index = next(i for i, c in enumerate(costs)
                     if c.key == "conv2.bwd")
        # conv2's backward input comes from pool2's backward
        assert producer_dist(costs, index) == "sample-channel"

    def test_first_layer_has_no_producer(self, lenet_costs):
        costs = list(lenet_costs)
        index = next(i for i, c in enumerate(costs) if c.pass_ == "forward")
        assert producer_dist(costs, index) is None


class TestCifarCosts:
    def test_lrn_present(self):
        net = build_net("cifar10")
        net.forward()
        costs = net_costs(net)
        keys = {c.key for c in costs}
        assert "norm1.fwd" in keys and "norm2.bwd" in keys

    def test_ave_pooling_variant(self):
        net = build_net("cifar10")
        net.forward()
        variants = {c.name: c.variant for c in net_costs(net)
                    if c.type == "Pooling" and c.pass_ == "forward"}
        assert variants == {"pool1": "MAX", "pool2": "AVE", "pool3": "AVE"}


class TestOffZooParity:
    """One ladder: a layer type the zoo has never seen is priced the same
    from its spec as from the live net, in its base class's family."""

    @pytest.fixture
    def swish_type(self):
        """A throw-away NeuronLayer subclass + shape rule (the shape of
        ``examples/custom_layer.py``'s Swish), unregistered afterwards."""
        from repro.framework.layer import _REGISTRY, FootprintDecl, register_layer
        from repro.framework.layers.neuron import NeuronLayer, _neuron_shape_rule
        from repro.framework.shape_inference import (
            _SHAPE_RULES,
            register_shape_rule,
        )

        @register_layer("ThrowawaySwish")
        class ThrowawaySwish(NeuronLayer):
            write_footprint = FootprintDecl()

            def forward_chunk(self, bottom, top, lo, hi):
                x = bottom[0].flat_data[lo:hi]
                top[0].flat_data[lo:hi] = x / (1.0 + np.exp(-x))

        register_shape_rule("ThrowawaySwish", inplace_ok=True)(
            _neuron_shape_rule)
        yield "ThrowawaySwish"
        del _REGISTRY["throwawayswish"], _SHAPE_RULES["throwawayswish"]

    def test_user_neuron_subclass_priced_alike_from_spec_and_net(
            self, swish_type):
        from repro.framework.net import Net
        from repro.framework.net_spec import LayerSpec, NetSpec
        from repro.simulator.cost_model import spec_costs

        batch = 4
        spec = NetSpec(name="swish", layers=[
            LayerSpec(name="in", type="Input", tops=["x"],
                      params={"shape": {"dim": [batch, 3, 5, 5]}}),
            LayerSpec(name="sw", type=swish_type, bottoms=["x"], tops=["y"]),
        ])
        net = Net(spec)
        net.forward()
        live, symbolic = net_costs(net), spec_costs(spec)
        assert live == symbolic
        forward = by_key(live)["sw.fwd"]
        assert forward.type == swish_type
        assert forward.flops == batch * 3 * 5 * 5 > 0
        assert forward.segments == batch
