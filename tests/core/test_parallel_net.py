"""Tests for the ParallelExecutor: the paper's correctness claims.

These are the load-bearing tests of the reproduction: batch-level
parallel execution must match sequential execution for every reduction
mode, thread count and network.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.plancheck import plan_spec
from repro.core import ParallelExecutor, ThreadTeam
from repro.core.scheduling import DynamicSchedule, StaticSchedule
from repro.data import register_default_sources
from repro.zoo import build_net, lenet_spec


def run_once(net, executor):
    net.clear_param_diffs()
    loss = executor.forward(net)
    executor.backward(net)
    grads = np.concatenate([b.flat_diff.copy() for b in net.learnable_params])
    activations = {
        name: blob.flat_data.copy() for name, blob in net.blob_map.items()
    }
    return loss, grads, activations


class SequentialRef:
    def forward(self, net):
        return net.forward()

    def backward(self, net):
        net.backward()


@pytest.fixture(scope="module")
def lenet_reference():
    net = build_net("lenet")
    state = net.state_dict()
    loss, grads, acts = run_once(net, SequentialRef())
    return state, loss, grads, acts


def fresh_lenet(state):
    net = build_net("lenet")
    net.load_state_dict(state)
    return net


class TestForwardEquivalence:
    @pytest.mark.parametrize("threads", [1, 2, 3, 4, 7])
    def test_forward_bitwise_equal(self, lenet_reference, threads):
        state, ref_loss, _, ref_acts = lenet_reference
        net = fresh_lenet(state)
        with ParallelExecutor(num_threads=threads) as executor:
            loss = executor.forward(net)
        assert loss == ref_loss
        for name, expected in ref_acts.items():
            assert np.array_equal(net.blob(name).flat_data, expected), name


class TestBackwardEquivalence:
    @pytest.mark.parametrize("threads", [2, 4, 5])
    @pytest.mark.parametrize("mode", ["ordered", "atomic", "tree"])
    def test_close_to_sequential(self, lenet_reference, threads, mode):
        state, ref_loss, ref_grads, _ = lenet_reference
        net = fresh_lenet(state)
        with ParallelExecutor(num_threads=threads, reduction=mode) as ex:
            loss, grads, _ = run_once(net, ex)
        assert loss == ref_loss
        assert np.allclose(grads, ref_grads, rtol=1e-3, atol=1e-6)

    @pytest.mark.parametrize("threads", [1, 2, 3, 4, 5, 8])
    def test_blockwise_bitwise_invariant(self, lenet_reference, threads):
        """The strongest convergence-invariance form: gradients bitwise
        identical to sequential at EVERY thread count."""
        state, _, ref_grads, _ = lenet_reference
        net = fresh_lenet(state)
        with ParallelExecutor(num_threads=threads, reduction="blockwise") as ex:
            _, grads, _ = run_once(net, ex)
        assert np.array_equal(grads, ref_grads)

    def test_ordered_deterministic_per_thread_count(self, lenet_reference):
        state = lenet_reference[0]
        results = []
        for _ in range(2):
            net = fresh_lenet(state)
            with ParallelExecutor(num_threads=4, reduction="ordered") as ex:
                _, grads, _ = run_once(net, ex)
            results.append(grads)
        assert np.array_equal(results[0], results[1])

    def test_one_thread_equals_sequential_bitwise(self, lenet_reference):
        state, _, ref_grads, _ = lenet_reference
        for mode in ("ordered", "atomic", "tree", "blockwise"):
            net = fresh_lenet(state)
            with ParallelExecutor(num_threads=1, reduction=mode) as ex:
                _, grads, _ = run_once(net, ex)
            assert np.array_equal(grads, ref_grads), mode


class TestSchedules:
    def test_dynamic_schedule_with_atomic(self, lenet_reference):
        state, ref_loss, ref_grads, _ = lenet_reference
        net = fresh_lenet(state)
        ex = ParallelExecutor(num_threads=4, reduction="atomic",
                              schedule=DynamicSchedule(chunk=2))
        with ex:
            loss, grads, _ = run_once(net, ex)
        assert loss == ref_loss
        assert np.allclose(grads, ref_grads, rtol=1e-3, atol=1e-6)

    def test_ordered_rejects_dynamic(self):
        with pytest.raises(ValueError, match="static"):
            ParallelExecutor(num_threads=2, reduction="ordered",
                             schedule=DynamicSchedule())

    def test_static_chunked(self, lenet_reference):
        state, ref_loss, _, _ = lenet_reference
        net = fresh_lenet(state)
        ex = ParallelExecutor(num_threads=3, schedule=StaticSchedule(chunk=4))
        with ex:
            loss = ex.forward(net)
        assert loss == ref_loss


class TestConfigValidation:
    def test_unknown_reduction(self):
        with pytest.raises(ValueError, match="reduction"):
            ParallelExecutor(reduction="magic")

    def test_shared_team_not_shut_down(self):
        from repro.core.team import ThreadTeam
        with ThreadTeam(2) as team:
            ex = ParallelExecutor(team=team)
            ex.close()
            # team still usable: close() must not shut a borrowed team
            team.parallel(lambda ctx: None)


class TestMemoryAccounting:
    def test_privatization_bounded_by_largest_reduction_layer(self):
        """Paper Section 3.2.1: extra memory = threads x largest
        reduction layer (the conv layers; ip uses the row-parallel
        decomposition and needs no privatization)."""
        net = build_net("lenet")
        threads = 8
        with ParallelExecutor(num_threads=threads, reduction="ordered") as ex:
            ex.forward(net)
            ex.backward(net)
            conv_bytes = max(
                sum(b.nbytes // 2 for b in layer.blobs)  # data half only
                for layer in net.layers if layer.type == "Convolution"
            )
            assert ex.privatization_high_water_bytes == threads * conv_bytes

    def test_extra_memory_small_fraction_of_total(self):
        """The paper reports ~5% overhead; ours stays the same order."""
        net = build_net("lenet")
        net.forward()
        with ParallelExecutor(num_threads=16, reduction="ordered") as ex:
            ex.forward(net)
            ex.backward(net)
            fraction = ex.privatization_high_water_bytes / net.memory_bytes()
        assert fraction < 0.25


class TestCifar:
    def test_cifar_blockwise_invariance(self):
        net = build_net("cifar10")
        state = net.state_dict()
        ref_loss, ref_grads, _ = run_once(net, SequentialRef())
        net2 = build_net("cifar10")
        net2.load_state_dict(state)
        with ParallelExecutor(num_threads=3, reduction="blockwise") as ex:
            loss, grads, _ = run_once(net2, ex)
        assert loss == ref_loss
        assert np.array_equal(grads, ref_grads)


def recording(loop, chunks, layer, phase):
    """``loop`` with a body that first logs ``(layer, phase, lo, hi)``."""
    def body(lo, hi, grads):
        chunks.append((layer, phase, lo, hi))  # append is GIL-atomic
        loop.body(lo, hi, grads)
    return replace(loop, body=body)


class TestChunkStream:
    """Every dispatched loop runs chunks that tile its iteration space
    exactly once — whichever route (region, blockwise window,
    per-thread walk, inline single call) the dispatch routine took."""

    @staticmethod
    def observe(threads, reduction, plan=None):
        net = build_net("lenet")
        spaces = {}  # (layer, phase) -> loop spaces in dispatch order
        chunks = []
        for layer in net.layers:
            def forward_loop(*args, _name=layer.name,
                             _loop=layer.forward_loop):
                return recording(_loop(*args), chunks, _name, "forward")

            def loops(*args, _name=layer.name, _loops=layer.backward_loops):
                out = _loops(*args)
                spaces[_name, "backward"] = [loop.space for loop in out]
                return [recording(loop, chunks, _name, "backward")
                        for loop in out]
            layer.forward_loop = forward_loop
            layer.backward_loops = loops
        with ThreadTeam(threads) as team:
            executor = ParallelExecutor(team=team, reduction=reduction,
                                        plan=plan)
            run_once(net, executor)
        for layer, bottom, top in zip(net.layers, net.bottoms, net.tops):
            spaces[layer.name, "forward"] = [layer.forward_space(bottom, top)]
        return spaces, chunks

    @staticmethod
    def assert_tiles(spaces, chunks):
        streams = {}
        for layer, phase, lo, hi in chunks:
            streams.setdefault((layer, phase), []).append((lo, hi))
        assert set(streams) == set(spaces)
        for key, stream in streams.items():
            # Loops of one layer run one after the other, so the stream
            # is the concatenation of one tiling per loop.
            for space in spaces[key]:
                covered, tiling = 0, []
                while covered < space:
                    assert stream, f"{key}: chunks stop short of {space}"
                    tiling.append(stream.pop(0))
                    covered += tiling[-1][1] - tiling[-1][0]
                edges = sorted(tiling)
                assert edges[0][0] == 0 and edges[-1][1] == space, key
                assert all(a[1] == b[0] for a, b in zip(edges, edges[1:])), key
            assert not stream, f"{key}: chunks beyond its loops: {stream}"

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("reduction",
                             ["ordered", "atomic", "tree", "blockwise"])
    def test_every_mode_tiles_every_space(self, reduction, threads):
        self.assert_tiles(*self.observe(threads, reduction))

    def test_planned_run_tiles_every_space(self):
        register_default_sources()  # the planner sizes the Data layer
        plan = plan_spec(lenet_spec(), net_name="lenet",
                         threads=2).plan
        assert any(lp.threads <= 1 for lp in plan.layers.values())
        self.assert_tiles(*self.observe(2, "blockwise", plan))
