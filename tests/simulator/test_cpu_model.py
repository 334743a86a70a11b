"""Unit tests for the coarse-grain CPU model (Figures 4, 5, 7, 8)."""

import pytest

from repro.simulator import CPUModel, net_costs
from repro.simulator.cost_model import LayerCost, producer_dist
from repro.zoo import build_net


@pytest.fixture(scope="module")
def model():
    return CPUModel()


@pytest.fixture(scope="module")
def lenet_costs():
    net = build_net("lenet")
    net.forward()
    return net_costs(net)


@pytest.fixture(scope="module")
def cifar_costs():
    net = build_net("cifar10")
    net.forward()
    return net_costs(net)


def synthetic_cost(**kw):
    defaults = dict(name="x", type="Convolution", pass_="forward",
                    flops=1e8, bytes=1e6, space=64, segments=64,
                    dist="sample")
    defaults.update(kw)
    return LayerCost(**defaults)


class TestBuildingBlocks:
    def test_bandwidth_monotone(self, model):
        bws = [model.dram_bandwidth(t) for t in (1, 2, 4, 8, 12, 16)]
        assert bws == sorted(bws)

    def test_bandwidth_sublinear(self, model):
        assert model.dram_bandwidth(8) < 8 * model.dram_bandwidth(1)

    def test_effective_cores_numa_discount(self, model):
        assert model.effective_cores(8) == 8
        assert model.effective_cores(16) < 16

    def test_memory_time_cache_path(self, model):
        small = model.params.cache_resident_bytes * 2
        # at 4 threads, per-thread set fits cache -> faster than DRAM
        cached = model.memory_time(small, 4)
        assert cached < small / model.dram_bandwidth(4)

    def test_invalid_threads(self, model):
        with pytest.raises(ValueError):
            model.layer_time(synthetic_cost(), 0)


@pytest.mark.parametrize("threads", [1, 2, 8, 16])
def test_layer_time_is_plan_layer_time_default_call(
        model, lenet_costs, threads):
    """One formula: kept so a later edit cannot fork the two again."""
    costs = list(lenet_costs)
    for index, cost in enumerate(costs):
        for producer in (None, "serial", producer_dist(costs, index)):
            assert model.layer_time(cost, threads, producer) == (
                model.plan_layer_time(cost, threads, producer=producer))


class TestEdgeCases:
    """Degenerate inputs the planner and perfcheck may hand the model."""

    def test_threads_beyond_cores(self, model):
        """Oversubscription must not crash or predict negative time."""
        t = model.layer_time(synthetic_cost(), 32)
        assert t > 0
        # the NUMA discount keeps the gain over the full machine mild
        assert t > model.layer_time(synthetic_cost(), 16) / 4

    def test_zero_flop_layer(self, model):
        """A pure data-movement pass is priced by memory + dispatch."""
        cost = synthetic_cost(flops=0.0)
        t1 = model.layer_time(cost, 1)
        t8 = model.layer_time(cost, 8)
        assert t1 > 0
        assert 0 < t8 < t1

    def test_empty_iteration_space(self, model):
        """space=0 (nothing chunkable) degrades to serial + fork-join."""
        cost = synthetic_cost(space=0, segments=0)
        t1 = model.layer_time(cost, 1)
        t8 = model.layer_time(cost, 8)
        assert t1 > 0
        assert t8 >= t1  # threads only add overhead

    def test_bandwidth_monotone_nondecreasing_past_cores(self, model):
        bws = [model.dram_bandwidth(t) for t in range(1, 33)]
        assert all(b2 >= b1 for b1, b2 in zip(bws, bws[1:]))
        # saturates: the last doubling buys no bandwidth
        assert bws[31] == bws[15]


class TestLayerBehaviours:
    def test_serial_layer_never_speeds_up(self, model):
        cost = synthetic_cost(serial=True, dist="serial", type="Data")
        t1 = model.layer_time(cost, 1)
        t16 = model.layer_time(cost, 16)
        assert t16 == pytest.approx(t1)

    def test_compute_bound_scales(self, model):
        cost = synthetic_cost(flops=1e9, bytes=1e5, space=1024, segments=64)
        assert model.layer_time(cost, 1) / model.layer_time(cost, 8) > 5

    def test_imbalance_hurts_coarse_spaces(self, model):
        # space 9 over 8 threads: busiest thread does 2/9 of the work
        coarse = synthetic_cost(space=9, segments=9)
        fine = synthetic_cost(space=9 * 64, segments=9)
        assert (model.layer_time(fine, 8) <
                model.layer_time(coarse, 8))

    def test_reduction_cost_grows_with_threads(self, model):
        cost = synthetic_cost(pass_="backward", reduction_bytes=1e5,
                              flops=1e6)
        t4 = model.layer_time(cost, 4)
        t16 = model.layer_time(cost, 16)
        # reduction term is linear in T and dominates this tiny layer
        assert t16 > t4

    def test_serial_producer_locality_penalty(self, model):
        cost = synthetic_cost(input_bytes=5e6)
        clean = model.layer_time(cost, 8, producer="sample")
        dirty = model.layer_time(cost, 8, producer="serial")
        assert dirty > clean


class TestPaperShapes:
    """The headline qualitative results of Figures 4-8."""

    def test_mnist_overall_speedups(self, model, lenet_costs):
        s8 = model.speedup(lenet_costs, 8)
        s16 = model.speedup(lenet_costs, 16)
        assert 5.0 < s8 < 7.5      # paper: ~6x
        assert 7.0 < s16 < 9.5     # paper: ~8x
        assert s16 > s8

    def test_cifar_overall_speedups(self, model, cifar_costs):
        s8 = model.speedup(cifar_costs, 8)
        s16 = model.speedup(cifar_costs, 16)
        assert 5.0 < s8 < 8.5      # paper: ~6x
        assert 7.5 < s16 < 11.5    # paper: 8.83x

    def test_mnist_ip1_plateau(self, model, lenet_costs):
        """Paper Fig 5: ip1 stalls near 4.6-5.9x beyond 8 threads."""
        speedups = model.layer_speedups(lenet_costs, 8)
        s8 = speedups["ip1.fwd"]
        s16 = model.layer_speedups(lenet_costs, 16)["ip1.fwd"]
        assert 3.5 < s8 < 6.0
        assert s16 < s8 * 1.5  # plateau, not linear growth

    def test_mnist_conv1_slower_than_conv2(self, model, lenet_costs):
        """Paper: conv1 trails conv2 by ~10% (serial data layer
        footprint)."""
        speedups = model.layer_speedups(lenet_costs, 16)
        assert speedups["conv1.fwd"] < speedups["conv2.fwd"]

    def test_u_shape_small_layers_do_not_scale(self, model, lenet_costs):
        """The u-shape of Fig 5: the tiny loss/ip2 layers stay near 1x
        while conv layers scale."""
        speedups = model.layer_speedups(lenet_costs, 16)
        assert speedups["loss.fwd"] < 3.0
        assert speedups["conv2.fwd"] > 8.0

    def test_cifar_norm1_scales(self, model, cifar_costs):
        s16 = model.layer_speedups(cifar_costs, 16)["norm1.fwd"]
        assert 8.0 < s16 < 13.0  # paper: 10.8x

    def test_speedup_curve_monotone_to_8(self, model, lenet_costs):
        curve = model.speedup_curve(lenet_costs, [1, 2, 4, 8])
        assert curve == sorted(curve)
        assert curve[0] == pytest.approx(1.0)
