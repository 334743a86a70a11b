"""Inference engine: staging idempotence, quarantine, recovery, reload."""

import numpy as np
import pytest

from repro.compiler.scratch import pool_stats
from repro.resilience.checkpoint import CheckpointMismatch
from repro.resilience.faults import InjectedFault
from repro.serve.clock import ManualClock
from repro.serve.engine import EngineFault, InferenceEngine, StagedSource
from repro.zoo import build_net


@pytest.fixture
def engine():
    eng = InferenceEngine(
        lambda: build_net("mlp", phase="TEST"),
        num_threads=2, max_batch=4, clock=ManualClock(), backoff_s=0.001,
    )
    yield eng
    eng.close()


def _samples(engine, k, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.random(engine.sample_shape, dtype=np.float32)
            for _ in range(k)]


class TestStagedSource:
    def test_idempotent_replay(self):
        src = StagedSource((3,))
        batch = np.arange(6, dtype=np.float32).reshape(2, 3)
        src.stage(batch)
        first, _ = src.next_batch(2)
        second, _ = src.next_batch(2)
        assert np.array_equal(first, second)
        assert src.batches_served == 2

    def test_shape_and_size_validated(self):
        src = StagedSource((3,))
        with pytest.raises(ValueError, match="shape"):
            src.stage(np.zeros((2, 4), dtype=np.float32))
        src.stage(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="asked for"):
            src.next_batch(5)

    def test_unstaged_read_is_loud(self):
        with pytest.raises(RuntimeError, match="no batch staged"):
            StagedSource((3,)).next_batch(1)


class TestRunBatch:
    def test_happy_path_full_batch(self, engine):
        result = engine.run_batch(_samples(engine, 4))
        assert len(result.outputs) == 4
        assert all(out is not None for out in result.outputs)
        assert result.quarantined_input == []
        assert result.attempts == 1

    def test_partial_batch_zero_padded(self, engine):
        result = engine.run_batch(_samples(engine, 2))
        assert len(result.outputs) == 2
        assert engine.batch_log[-1].images.shape[0] == engine.max_batch

    def test_batch_size_bounds(self, engine):
        with pytest.raises(ValueError, match="outside"):
            engine.run_batch([])
        with pytest.raises(ValueError, match="outside"):
            engine.run_batch(_samples(engine, 5))

    @pytest.mark.parametrize("ids", [["a", "b", "c"], ["a"]])
    def test_request_ids_must_match_samples(self, engine, ids):
        # Refused before staging: no batch runs, no record claims a
        # padding row (or a missing one) for an id.
        with pytest.raises(ValueError, match="request_ids holds"):
            engine.run_batch(_samples(engine, 2), ids)
        assert engine.batches_executed == 0
        assert engine.batch_log == []

    def test_poisoned_input_quarantined_not_batch_killing(self, engine):
        samples = _samples(engine, 3)
        samples[1] = np.full(engine.sample_shape, np.nan, dtype=np.float32)
        result = engine.run_batch(samples, ["a", "b", "c"])
        assert result.quarantined_input == [1]
        assert result.outputs[1] is None
        # Batch-mates are served normally despite the poison.
        assert result.outputs[0] is not None
        assert result.outputs[2] is not None
        assert np.all(np.isfinite(result.outputs[0]))

    def test_poison_does_not_leak_into_neighbors(self, engine):
        clean = _samples(engine, 2, seed=7)
        baseline = engine.run_batch(clean, ["a", "b"])
        poisoned = [clean[0],
                    np.full(engine.sample_shape, np.nan, dtype=np.float32)]
        result = engine.run_batch(poisoned, ["c", "d"])
        # Same clean sample, bitwise same output, poison alongside or not.
        assert np.array_equal(baseline.outputs[0], result.outputs[0])


class TestScratch:
    def test_no_scratch_per_batch_size(self):
        """Conv and pool size their work arrays from the layer's shapes,
        never from how many rows a batch serves: once one full batch has
        run, no batch size allocates scratch again."""
        eng = InferenceEngine(
            lambda: build_net("lenet", phase="TEST"),
            num_threads=2, max_batch=8, clock=ManualClock(),
        )
        try:
            eng.run_batch(_samples(eng, 8))
            misses = pool_stats()["misses"]
            for k in range(1, 9):
                result = eng.run_batch(_samples(eng, k, seed=k))
                assert all(out is not None for out in result.outputs)
                assert pool_stats()["misses"] == misses, k
        finally:
            eng.close()


class TestRecovery:
    def _arm_crashes(self, engine, n_failures):
        """Patch the first parameterized layer to raise n times."""
        layer = next(l for l in engine.net.layers if l.blobs)
        original = layer.forward_chunk
        state = {"remaining": n_failures}

        def patched(bottom, top, lo, hi):
            if state["remaining"] > 0:
                state["remaining"] -= 1
                raise InjectedFault("test: worker crash")
            return original(bottom, top, lo, hi)

        layer.forward_chunk = patched
        return layer

    def test_transient_fault_retried_with_restart(self, engine):
        layer = self._arm_crashes(engine, n_failures=1)
        t0 = engine.clock.now()
        result = engine.run_batch(_samples(engine, 2))
        layer.__dict__.pop("forward_chunk", None)
        assert result.attempts == 2
        assert engine.restarts == 1
        assert all(out is not None for out in result.outputs)
        # Backoff went through the injected clock (virtual time moved).
        assert engine.clock.now() > t0

    def test_retries_exhausted_is_coded_engine_fault(self, engine):
        layer = self._arm_crashes(engine, n_failures=100)
        with pytest.raises(EngineFault, match="retries exhausted"):
            engine.run_batch(_samples(engine, 1))
        layer.__dict__.pop("forward_chunk", None)
        # max_retries=2 -> 3 total attempts, a restart per failure.
        assert engine.restarts == engine.max_retries

    def test_retry_replays_identical_batch(self, engine):
        samples = _samples(engine, 2, seed=3)
        clean = engine.run_batch(samples, ["x", "y"])
        layer = self._arm_crashes(engine, n_failures=1)
        retried = engine.run_batch(samples, ["x2", "y2"])
        layer.__dict__.pop("forward_chunk", None)
        for a, b in zip(clean.outputs, retried.outputs):
            assert np.array_equal(a, b)


class TestReload:
    def test_reload_from_npz_roundtrip(self, engine, tmp_path):
        path = str(tmp_path / "weights.npz")
        engine.net.save(path)
        before = engine.run_batch(_samples(engine, 2), ["a", "b"])
        assert engine.reload(path) == 1
        after = engine.run_batch(_samples(engine, 2), ["c", "d"])
        # Same weights back in: outputs bitwise unchanged.
        for x, y in zip(before.outputs, after.outputs):
            assert np.array_equal(x, y)

    def test_reload_rejects_wrong_net(self, engine, tmp_path):
        path = str(tmp_path / "other.npz")
        other = build_net("lenet", phase="TEST")
        other.save(path)
        with pytest.raises(CheckpointMismatch):
            engine.reload(path)
        assert engine.reloads == 0

    def test_failed_reload_leaves_weights_untouched(self, engine, tmp_path):
        baseline = engine.run_batch(_samples(engine, 1), ["a"])
        path = str(tmp_path / "other.npz")
        build_net("lenet", phase="TEST").save(path)
        with pytest.raises(CheckpointMismatch):
            engine.reload(path)
        after = engine.run_batch(_samples(engine, 1), ["b"])
        assert np.array_equal(baseline.outputs[0], after.outputs[0])
