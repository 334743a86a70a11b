"""Unit tests for the shadow-memory machinery and executor validation."""

import numpy as np
import pytest

from repro.analysis.shadow import (
    PERTURB_EPS,
    RebindWatch,
    TrackedArray,
    owner_runs,
    thread_write_sets,
)
from repro.core import ParallelExecutor
from repro.core.parallel_net import iteration_owners


class TestOwnerRuns:
    def test_contiguous_static_plan(self):
        owners = iteration_owners(10, 3)
        runs = owner_runs(owners)
        assert runs == [(0, 4, 0), (4, 8, 1), (8, 10, 2)]

    def test_single_thread(self):
        assert owner_runs(iteration_owners(5, 1)) == [(0, 5, 0)]

    def test_covers_space_exactly_once(self):
        owners = iteration_owners(17, 4)
        runs = owner_runs(owners)
        covered = sorted(i for lo, hi, _ in runs for i in range(lo, hi))
        assert covered == list(range(17))


class TestTrackedArray:
    def test_diff_mask_catches_changed_values(self):
        arr = np.zeros(6)
        tracked = TrackedArray("t", arr)
        arr[2] = 5.0
        mask = tracked.diff_mask(tracked.baseline)
        assert list(np.flatnonzero(mask)) == [2]

    def test_perturbed_image_catches_same_value_writes(self):
        # Writing 0 over 0 is invisible against the baseline but visible
        # against the perturbed image — the reason for the double replay.
        arr = np.zeros(4)
        tracked = TrackedArray("t", arr)
        tracked.restore(tracked.perturbed)
        arr[1] = 0.0  # the "invisible" write
        mask = tracked.diff_mask(tracked.perturbed)
        assert list(np.flatnonzero(mask)) == [1]

    def test_int_arrays_not_perturbed(self):
        arr = np.array([1, 2, 3])
        tracked = TrackedArray("t", arr)
        assert (tracked.perturbed == tracked.baseline).all()

    def test_float_perturbation_is_small(self):
        arr = np.array([3.0])  # a label stored as float
        tracked = TrackedArray("t", arr)
        assert int(tracked.perturbed[0]) == 3
        assert tracked.perturbed[0] != 3.0
        assert abs(tracked.perturbed[0] - 3.0) == pytest.approx(PERTURB_EPS)

    def test_nan_scratch_not_flagged(self):
        arr = np.array([np.nan, 1.0])
        tracked = TrackedArray("t", arr)
        mask = tracked.diff_mask(tracked.baseline)
        assert not mask.any()


class TestThreadWriteSets:
    def test_disjoint_writers_do_not_overlap(self):
        arr = np.zeros(8)
        tracked = [TrackedArray("t", arr)]

        def run_chunks(tid):
            lo, hi = (0, 4) if tid == 0 else (4, 8)
            arr[lo:hi] = tid + 1.0

        masks, rebinds = thread_write_sets(tracked, 2, run_chunks)
        assert not (masks[0][0] & masks[1][0]).any()
        assert rebinds == [set(), set()]
        # arrays restored to baseline afterwards
        assert (arr == 0).all()

    def test_overlapping_writers_intersect(self):
        arr = np.zeros(8)
        tracked = [TrackedArray("t", arr)]

        def run_chunks(tid):
            arr[:] = tid + 1.0  # every thread writes everything

        masks, _ = thread_write_sets(tracked, 2, run_chunks)
        assert (masks[0][0] & masks[1][0]).all()


class TestRebindWatch:
    class _FakeLayer:
        pass

    def test_detects_rebind_and_restores(self):
        layer = self._FakeLayer()
        original = np.zeros(3)
        layer.scratch = original
        watch = RebindWatch(layer)
        layer.scratch = np.ones(3)
        layer.extra = np.ones(2)
        assert watch.rebound() == {"scratch", "extra"}
        watch.restore()
        assert layer.scratch is original
        assert not hasattr(layer, "extra")

    def test_in_place_write_is_not_a_rebind(self):
        layer = self._FakeLayer()
        layer.scratch = np.zeros(3)
        watch = RebindWatch(layer)
        layer.scratch[1] = 7.0
        assert watch.rebound() == set()


class TestExecutorValidation:
    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError, match="num_threads >= 1"):
            ParallelExecutor(num_threads=0)

    def test_negative_threads_rejected(self):
        with pytest.raises(ValueError, match="num_threads >= 1"):
            ParallelExecutor(num_threads=-2)

    def test_one_thread_accepted(self):
        with ParallelExecutor(num_threads=1):
            pass

    def test_empty_forward_space_rejected(self):
        from repro.framework.net import Net
        from repro.framework.net_spec import LayerSpec, NetSpec

        net = Net(NetSpec(layers=[
            LayerSpec(name="in", type="Input", tops=["d"],
                      params={"shape": {"dim": [2, 3]}}),
            LayerSpec(name="r", type="ReLU", bottoms=["d"], tops=["r"]),
        ]))
        relu = net.layers[net.layer_names.index("r")]
        relu.forward_space = lambda bottom, top: 0
        with ParallelExecutor(num_threads=2) as executor:
            with pytest.raises(ValueError, match="empty coalesced forward"):
                executor.forward(net)

    def test_empty_backward_loop_rejected(self):
        from repro.framework.layer import LoopSpec

        with ParallelExecutor(num_threads=2) as executor:
            loop = LoopSpec(space=0, body=lambda lo, hi, grads: None)
            with pytest.raises(ValueError, match="empty iteration space"):
                executor._dispatch("probe", "backward", loop)
