"""Unit and integration tests for the deterministic fault injector.

Every fault class fires at its exact iteration, surfaces the
:class:`InjectedFault` sentinel (never a masked secondary error), and —
crucially — the runtime recovers: the thread team stays usable, guards
contain the damage, and a resumed run rejoins the reference trajectory.
"""

import numpy as np
import pytest

from repro.analysis.detcheck import capture_trajectory
from repro.core import ParallelExecutor
from repro.core.team import WorkerError
from repro.resilience import (
    ChunkAbort,
    FaultPlan,
    HealthGuard,
    InjectedFault,
    LayerRaise,
    NaNBlob,
    NumericFault,
    corrupt_checkpoint,
    inject,
    truncate_checkpoint,
)
from repro.zoo import build_solver


def _params(solver):
    return [b.flat_data.copy() for b in solver.net.learnable_params]


class TestFaultPlan:
    def test_rejects_non_fault_entries(self):
        with pytest.raises(TypeError, match="FaultPlan entries"):
            FaultPlan("not a fault")

    def test_layer_raise_validates_phase(self):
        with pytest.raises(ValueError, match="phase"):
            LayerRaise(layer="fc1", iteration=0, phase="sideways")


class TestNaNBlob:
    def test_poisons_named_blob_at_exact_iteration(self):
        solver = build_solver("mlp", 4, batch=4)
        solver.guard = HealthGuard(policy="halt")
        solver.step(1)  # iteration 0 runs clean
        plan = FaultPlan(NaNBlob(blob="fc1", iteration=1))
        with inject(solver, plan):
            with pytest.raises(NumericFault) as info:
                solver.step(3)
        assert info.value.event.iteration == 1
        assert all(np.all(np.isfinite(p)) for p in _params(solver))

    def test_sequential_run_unaffected_before_fault_iteration(self):
        reference = build_solver("mlp", 4, batch=4)
        reference.step(2)

        solver = build_solver("mlp", 4, batch=4)
        plan = FaultPlan(NaNBlob(blob="fc1", iteration=3))
        with inject(solver, plan):
            solver.step(2)  # fault iteration never reached
        assert solver.loss_history == reference.loss_history


class TestLayerRaise:
    @pytest.mark.parametrize("phase", ["forward", "backward"])
    def test_raises_injected_fault_in_phase(self, phase):
        solver = build_solver("mlp", 4, batch=4)
        solver.step(1)
        plan = FaultPlan(
            LayerRaise(layer="fc1", iteration=1, phase=phase))
        with inject(solver, plan):
            with pytest.raises(InjectedFault, match=phase):
                solver.step(1)

    def test_patches_removed_on_exit(self):
        solver = build_solver("mlp", 4, batch=4)
        plan = FaultPlan(
            LayerRaise(layer="fc1", iteration=0, phase="forward"))
        with inject(solver, plan):
            with pytest.raises(InjectedFault):
                solver.step(1)
        solver.step(1)  # same solver, clean run: patches are gone
        assert solver.iteration == 1

    @pytest.mark.parametrize("phase", ["forward", "backward"])
    def test_raises_under_parallel_executor(self, phase):
        # The parallel executor runs each layer through the same pass
        # body as the sequential one, so patching that body is enough.
        with ParallelExecutor(num_threads=2, reduction="blockwise") as ex:
            solver = build_solver("mlp", 4, batch=4, executor=ex)
            layer = solver.net.layer("fc1")
            plan = FaultPlan(
                LayerRaise(layer="fc1", iteration=0, phase=phase))
            with inject(solver, plan):
                with pytest.raises(InjectedFault, match=phase):
                    solver.step(1)
            assert phase not in vars(layer)
            solver.net.clear_param_diffs()
            solver.step(1)  # same solver and team, patches gone
            assert solver.iteration == 1

    def test_guard_contains_and_state_survives(self):
        solver = build_solver("mlp", 4, batch=4)
        solver.guard = HealthGuard(policy="halt")
        solver.step(1)
        before = _params(solver)
        plan = FaultPlan(
            LayerRaise(layer="fc1", iteration=1, phase="forward"))
        with inject(solver, plan):
            with pytest.raises(InjectedFault):
                solver.step(1)
        for got, want in zip(_params(solver), before):
            np.testing.assert_array_equal(got, want)
        assert solver.guard.events[-1].action == "contain"


class TestChunkAbort:
    def test_surfaces_root_cause_and_team_recovers(self):
        executor = ParallelExecutor(num_threads=2, reduction="blockwise")
        try:
            solver = build_solver("mlp", 4, batch=4, executor=executor)
            plan = FaultPlan(ChunkAbort(layer="fc1", iteration=0))
            with inject(solver, plan):
                with pytest.raises(WorkerError) as info:
                    solver.step(1)
            assert isinstance(info.value.original, InjectedFault)
            assert info.value.layer == "fc1"
            assert info.value.phase == "forward"
            # the same team must run the next iteration cleanly
            solver.net.clear_param_diffs()
            solver.step(1)
            assert solver.iteration == 1
        finally:
            executor.close()

    def test_never_fires_under_sequential_executor(self):
        solver = build_solver("mlp", 4, batch=4)
        plan = FaultPlan(ChunkAbort(layer="fc1", iteration=0))
        with inject(solver, plan):
            solver.step(1)  # no parallel region exists to abort
        assert solver.iteration == 1

    def test_post_crash_resume_rejoins_reference(self, tmp_path):
        iters, crash_at = 4, 2
        path = str(tmp_path / "ck.rckp")
        reference = capture_trajectory("mlp", iters, 4, threads=2,
                                       mode="blockwise")

        executor = ParallelExecutor(num_threads=2, reduction="blockwise")
        try:
            crasher = build_solver("mlp", iters, batch=4, executor=executor)
            crasher.guard = HealthGuard(policy="halt")
            crasher.step(crash_at)
            crasher.save_state(path)
            plan = FaultPlan(
                LayerRaise(layer="fc1", iteration=crash_at))
            with inject(crasher, plan):
                # chunked execution wraps the fault in WorkerError
                with pytest.raises((InjectedFault, WorkerError)) as info:
                    crasher.step(1)
            if isinstance(info.value, WorkerError):
                assert isinstance(info.value.original, InjectedFault)
        finally:
            executor.close()

        executor = ParallelExecutor(num_threads=2, reduction="blockwise")
        try:
            survivor = build_solver("mlp", iters, batch=4, executor=executor)
            survivor.load_state(path)
            survivor.step(iters - crash_at)
            for snapshot, params in zip(
                reference.snapshots[-1].params,
                (b.flat_data for b in survivor.net.learnable_params),
            ):
                np.testing.assert_array_equal(params, snapshot)
            assert [s.loss for s in reference.snapshots] == \
                survivor.loss_history
        finally:
            executor.close()


class TestFileDamage:
    def test_corrupt_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        payload = bytes(range(256)) * 4
        for path in (a, b):
            path.write_bytes(payload)
            corrupt_checkpoint(str(path), seed=3)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != payload

    def test_corrupt_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="empty"):
            corrupt_checkpoint(str(path))

    def test_truncate_keeps_fraction(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"z" * 100)
        truncate_checkpoint(str(path), fraction=0.25)
        assert len(path.read_bytes()) == 25

    def test_truncate_validates_fraction(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"z" * 10)
        with pytest.raises(ValueError, match="fraction"):
            truncate_checkpoint(str(path), fraction=1.0)
