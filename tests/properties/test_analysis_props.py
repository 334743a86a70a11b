"""Property tests for the parallel-safety analyzer.

The contract under test: layers that honor the chunk protocol come out
clean from both passes at any thread count, and each seeded violation
archetype (whole-buffer write, hidden-state rebind, reduction bypass)
is flagged by BOTH the static classifier and the dynamic race detector.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_layer_class, run_dynamic
from repro.framework.blob import Blob
from repro.framework.layer import _REGISTRY, Layer, LayerContract
from repro.framework.net import Net
from repro.framework.net_spec import LayerSpec, NetSpec


# ----------------------------------------------------------------------
# seeded-violation layers (file-level so inspect.getsource works)
# ----------------------------------------------------------------------
class RacyForwardLayer(Layer):
    """Writes the WHOLE top buffer from every chunk."""

    contract = LayerContract()

    def reshape(self, bottom, top):
        top[0].reshape_like(bottom[0])

    def forward_chunk(self, bottom, top, lo, hi):
        top[0].flat_data[:] = bottom[0].flat_data * 2.0

    def backward_chunk(self, top, pd, bottom, lo, hi, param_grads):
        bottom[0].flat_diff[lo:hi] = top[0].flat_diff[lo:hi] * 2.0


class RacyHiddenStateLayer(Layer):
    """Rebinds undeclared layer state from inside the coalesced loop."""

    contract = LayerContract()

    def reshape(self, bottom, top):
        top[0].reshape_like(bottom[0])

    def forward_chunk(self, bottom, top, lo, hi):
        self._stash = np.maximum(bottom[0].flat_data[lo:hi], 0.0)
        top[0].flat_data[lo:hi] = self._stash

    def backward_chunk(self, top, pd, bottom, lo, hi, param_grads):
        bottom[0].flat_diff[lo:hi] = top[0].flat_diff[lo:hi]


class RacyReductionLayer(Layer):
    """Accumulates into the shared param diff, bypassing param_grads."""

    contract = LayerContract()

    def layer_setup(self, bottom, top):
        weight = Blob((3,), name=f"{self.name}.w")
        weight.flat_data.fill(0.5)
        self.blobs = [weight]

    def reshape(self, bottom, top):
        top[0].reshape_like(bottom[0])

    def forward_chunk(self, bottom, top, lo, hi):
        top[0].flat_data[lo:hi] = bottom[0].flat_data[lo:hi]

    def backward_chunk(self, top, pd, bottom, lo, hi, param_grads):
        dw = self.blobs[0].flat_diff
        dw += top[0].flat_diff[lo:hi].sum()


class CleanScaledLayer(Layer):
    """A correct sample-disjoint layer, the control group."""

    contract = LayerContract()

    def reshape(self, bottom, top):
        top[0].reshape_like(bottom[0])

    def forward_chunk(self, bottom, top, lo, hi):
        top[0].flat_data[lo:hi] = bottom[0].flat_data[lo:hi] * 2.0

    def backward_chunk(self, top, pd, bottom, lo, hi, param_grads):
        bottom[0].flat_diff[lo:hi] = top[0].flat_diff[lo:hi] * 2.0


_TEST_LAYERS = {
    "RacyForwardT": RacyForwardLayer,
    "RacyHiddenStateT": RacyHiddenStateLayer,
    "RacyReductionT": RacyReductionLayer,
    "CleanScaledT": CleanScaledLayer,
}
for _name, _cls in _TEST_LAYERS.items():
    _REGISTRY.setdefault(_name.lower(), _cls)


def tiny_net(layer_type: str, batch: int = 8, width: int = 5) -> Net:
    net = Net(NetSpec(name="probe", layers=[
        LayerSpec(name="in", type="Input", tops=["data"],
                  params={"shape": {"dim": [batch, width]}}),
        LayerSpec(name="probe", type=layer_type,
                  bottoms=["data"], tops=["out"]),
    ]))
    rng = np.random.default_rng(7)
    net.blob_map["data"].flat_data[:] = rng.standard_normal(batch * width)
    net.blob_map["out"].flat_diff[:] = rng.standard_normal(batch * width)
    return net


class TestSeededViolations:
    @pytest.mark.parametrize("cls,rule", [
        (RacyForwardLayer, "FP005"),
        (RacyHiddenStateLayer, "FP004"),
        (RacyReductionLayer, "FP003"),
    ])
    def test_static_pass_flags_each_archetype(self, cls, rule):
        report = analyze_layer_class(cls)
        assert not report.ok
        assert rule in {f.rule for f in report.findings}

    @pytest.mark.parametrize("layer_type,phase", [
        ("RacyForwardT", "forward"),
        ("RacyHiddenStateT", "forward"),
        ("RacyReductionT", "backward"),
    ])
    def test_dynamic_pass_flags_each_archetype(self, layer_type, phase):
        report = run_dynamic(tiny_net(layer_type), layer_type, 2)
        assert not report.ok
        assert any(r.layer == "probe" and r.phase == phase
                   for r in report.races)

    def test_clean_layer_is_clean_both_ways(self):
        assert analyze_layer_class(CleanScaledLayer).ok
        assert run_dynamic(tiny_net("CleanScaledT"), "clean", 4).ok


class TestDynamicProperties:
    @given(batch=st.integers(2, 16), threads=st.integers(2, 8),
           width=st.integers(1, 7))
    @settings(max_examples=15, deadline=None)
    def test_racy_forward_caught_at_any_geometry(self, batch, threads,
                                                 width):
        report = run_dynamic(
            tiny_net("RacyForwardT", batch, width), "probe", threads
        )
        # with >= 2 samples and >= 2 threads at least two simulated
        # threads own iterations, and each writes the whole top
        assert not report.ok

    @given(batch=st.integers(1, 16), threads=st.integers(1, 8),
           width=st.integers(1, 7))
    @settings(max_examples=15, deadline=None)
    def test_clean_layer_clean_at_any_geometry(self, batch, threads,
                                               width):
        report = run_dynamic(
            tiny_net("CleanScaledT", batch, width), "probe", threads
        )
        assert report.ok

    def test_single_thread_never_races(self):
        # one thread owns every iteration: no pair to race
        for layer_type in _TEST_LAYERS:
            report = run_dynamic(tiny_net(layer_type), layer_type, 1)
            assert report.ok, layer_type


class TestZooNetsClean:
    @pytest.mark.parametrize("name", ["lenet", "cifar10"])
    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_zoo_net_clean(self, name, threads):
        from repro.data import register_default_sources
        from repro.zoo.build import _SPECS

        register_default_sources()
        spec = _SPECS[name][0]()
        for layer_spec in spec.layers:
            if "batch_size" in layer_spec.params:
                layer_spec.params["batch_size"] = 4
        net = Net(spec, phase="TRAIN")
        report = run_dynamic(net, name, threads)
        assert report.ok, [r.to_json() for r in report.races]
        assert report.layers_checked
