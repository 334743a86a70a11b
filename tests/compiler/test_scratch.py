"""Tests for the per-thread scratch pool and the conv zero-alloc fix."""

import threading

import numpy as np
import pytest

from repro.compiler.scratch import (
    clear_pool,
    pool_stats,
    reset_pool_stats,
    scratch_buffer,
)
from repro.analysis.plancheck import plan_spec
from repro.compiler import apply_arena, fuse_spec
from repro.core import ParallelExecutor
from repro.framework.blob import Blob
from repro.framework.layer import create_layer
from repro.framework.net import Net
from repro.testing import make_blob, spec
from repro.zoo import zoo_spec


@pytest.fixture(autouse=True)
def _isolated_pool():
    clear_pool()
    yield
    clear_pool()


class TestPool:
    def test_same_key_same_array(self):
        a = scratch_buffer("t", (4, 5))
        b = scratch_buffer("t", (4, 5))
        assert a is b

    def test_distinct_tags_never_alias(self):
        a = scratch_buffer("a", (8,))
        b = scratch_buffer("b", (8,))
        assert a is not b
        assert not np.shares_memory(a, b)

    def test_shape_change_is_a_new_buffer(self):
        a = scratch_buffer("t", (4,))
        b = scratch_buffer("t", (5,))
        assert a is not b

    def test_stats_count_hits_and_misses(self):
        scratch_buffer("t", (4,))
        scratch_buffer("t", (4,))
        scratch_buffer("u", (4,))
        stats = pool_stats()
        assert stats["misses"] == 2
        assert stats["hits"] == 1
        assert stats["buffers"] == 2

    def test_reset_keeps_buffers_warm(self):
        a = scratch_buffer("t", (4,))
        reset_pool_stats()
        b = scratch_buffer("t", (4,))
        assert a is b
        assert pool_stats() == {
            "hits": 1, "misses": 0, "buffers": 1, "bytes": a.nbytes}

    def test_threads_get_private_buffers(self):
        mine = scratch_buffer("t", (16,))
        theirs = {}

        def worker():
            theirs["buf"] = scratch_buffer("t", (16,))

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert theirs["buf"] is not mine
        assert not np.shares_memory(theirs["buf"], mine)


class TestConvZeroAlloc:
    """The im2col scratch must never hit the allocator in steady state."""

    def _conv(self):
        return create_layer(spec(
            "conv", "Convolution", num_output=3, kernel_size=3,
            filler_seed=11, weight_filler={"type": "gaussian", "std": 0.5},
            bias_filler={"type": "constant", "value": 0.1},
        ))

    def test_forward_backward_steady_state_never_allocates(self, rng):
        layer = self._conv()
        bottom = [make_blob((2, 3, 8, 8), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)

        def one_iter():
            layer.forward(bottom, top)
            top[0].flat_diff[:] = 1.0
            layer.backward(top, [True], bottom)

        one_iter()  # warmup populates the pool
        reset_pool_stats()
        for _ in range(5):
            one_iter()
        stats = pool_stats()
        assert stats["misses"] == 0, (
            f"conv scratch hit the allocator in steady state: {stats}")
        assert stats["hits"] > 0


def _grad_state(net):
    """Concatenated parameter-gradient bytes; fusion keeps the
    learnable-parameter order, so fused and unfused nets compare."""
    return b"".join(
        np.ascontiguousarray(blob.diff).tobytes()
        for layer in net.layers for blob in layer.blobs
    )


class TestNetZeroAlloc:
    """A fused + arena + planned net at two threads: no scratch miss
    after the first iteration, and the gradients of the plain net."""

    def _run(self, spec, plan, arena):
        net = Net(spec, phase="TRAIN")
        if arena:
            apply_arena(net)
        executor = ParallelExecutor(2, reduction="blockwise", plan=plan)
        try:
            for it in range(3):
                if it == 1:
                    reset_pool_stats()
                net.clear_param_diffs()
                executor.forward(net)
                executor.backward(net)
            return _grad_state(net), pool_stats()["misses"]
        finally:
            executor.close()

    @pytest.mark.parametrize("name", ["lenet", "cifar10"])
    def test_fused_planned_net_never_allocates_and_matches(self, name):
        fused, _ = fuse_spec(zoo_spec(name, batch=4))
        plan = plan_spec(fused, net_name=name, threads=2).plan
        grads, misses = self._run(fused, plan, arena=True)
        assert misses == 0
        plain, _ = self._run(zoo_spec(name, batch=4), None, arena=False)
        assert grads == plain


class TestDeadStateRelease:
    """Pool states of exited threads must be reclaimed, not accumulated."""

    def _run_in_thread(self, fn):
        t = threading.Thread(target=fn)
        t.start()
        t.join()

    def test_release_drops_dead_thread_slabs(self):
        from repro.compiler.scratch import release_dead_states

        self._run_in_thread(lambda: scratch_buffer("w", (1024,)))
        # the dead worker's buffer bytes must vanish from the registry
        released = release_dead_states()
        assert released == 1
        stats = pool_stats()
        assert stats["buffers"] == 0
        assert stats["bytes"] == 0

    def test_retired_counters_survive_release(self):
        from repro.compiler.scratch import release_dead_states

        def work():
            scratch_buffer("w", (8,))   # miss
            scratch_buffer("w", (8,))   # hit

        self._run_in_thread(work)
        release_dead_states()
        stats = pool_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_release_is_idempotent_and_keeps_live_states(self):
        from repro.compiler.scratch import release_dead_states

        mine = scratch_buffer("live", (16,))
        self._run_in_thread(lambda: scratch_buffer("dead", (16,)))
        assert release_dead_states() == 1
        assert release_dead_states() == 0
        stats = pool_stats()
        assert stats["buffers"] == 1
        assert stats["bytes"] == mine.nbytes

    def test_team_shutdown_releases_worker_states(self):
        from repro.core.team import ThreadTeam

        def grab(ctx):
            scratch_buffer("t", (32,))

        team = ThreadTeam(2)
        team.parallel(grab)
        assert pool_stats()["buffers"] == 2
        team.shutdown()
        stats = pool_stats()
        assert stats["buffers"] == 1  # only the master's survives
        assert stats["misses"] == 2   # counters fold into retired totals

    def test_registry_stays_bounded_across_team_generations(self):
        from repro.compiler.scratch import _STATES, _STATES_LOCK
        from repro.core.team import ThreadTeam

        def grab(ctx):
            scratch_buffer("gen", (8,))

        for _ in range(5):
            team = ThreadTeam(2)
            team.parallel(grab)
            team.shutdown()
        with _STATES_LOCK:
            live = len(_STATES)
        # master + at most the threads of the last (shut-down) team
        assert live <= 2
