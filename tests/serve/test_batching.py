"""Bounded queueing, admission shedding, and batch formation.

Every assertion here runs at exact virtual instants — no wall-clock
reads anywhere in the tested paths."""

import numpy as np
import pytest

from repro.serve.admission import AdmissionController, BoundedDeque, QueueFull
from repro.serve.batcher import DynamicBatcher
from repro.serve.pit import PendingRequestTable
from repro.serve.request import InferenceRequest


def _entry(pit, rid, deadline, submitted_at=0.0):
    handle = pit.add(InferenceRequest(
        request_id=rid,
        sample=np.zeros(2, dtype=np.float32),
        deadline=deadline,
        submitted_at=submitted_at,
    ))
    return handle._entry


class TestBoundedDeque:
    def test_rejects_loudly_at_capacity(self):
        q = BoundedDeque(2)
        q.push("a")
        q.push("b")
        with pytest.raises(QueueFull):
            q.push("c")
        # Nothing was dropped silently: both originals still queued.
        assert q.pop_upto(10) == ["a", "b"]

    def test_capacity_is_mandatory_and_positive(self):
        with pytest.raises(ValueError):
            BoundedDeque(0)

    def test_fifo_and_pop_upto(self):
        q = BoundedDeque(8)
        for item in "abcd":
            q.push(item)
        assert q.pop_upto(3) == ["a", "b", "c"]
        assert len(q) == 1

    def test_prune_counts_removed(self):
        q = BoundedDeque(8)
        for item in (1, 2, 3, 4):
            q.push(item)
        assert q.prune(lambda x: x % 2 == 0) == 2
        assert q.pop_upto(10) == [2, 4]

    def test_high_water(self):
        q = BoundedDeque(8)
        for item in "abc":
            q.push(item)
        q.pop_upto(3)
        assert q.high_water == 3


class TestAdmission:
    def test_admit_then_shed_at_capacity(self):
        pit = PendingRequestTable()
        ctl = AdmissionController(capacity=2)
        assert ctl.try_admit(_entry(pit, "a", 5.0), now=0.0) is None
        assert ctl.try_admit(_entry(pit, "b", 5.0), now=0.0) is None
        reason = ctl.try_admit(_entry(pit, "c", 5.0), now=0.0)
        assert reason is not None and "queue full" in reason
        assert ctl.shed_count == 1
        assert ctl.depth() == 2

    def test_dead_on_arrival_shed(self):
        pit = PendingRequestTable()
        ctl = AdmissionController(capacity=8)
        reason = ctl.try_admit(_entry(pit, "a", deadline=1.0), now=2.0)
        assert reason is not None and "dead on arrival" in reason
        assert ctl.depth() == 0

    def test_deadline_instant_still_admits(self):
        pit = PendingRequestTable()
        ctl = AdmissionController(capacity=8)
        assert ctl.try_admit(_entry(pit, "a", deadline=1.0), now=1.0) is None


class TestFlushTriggers:
    def _setup(self, max_batch=4):
        return (PendingRequestTable(), AdmissionController(capacity=16),
                DynamicBatcher(max_batch))

    def test_empty_queue_never_flushes(self):
        _, ctl, batcher = self._setup()
        assert not batcher.should_flush(ctl)
        assert batcher.take_batch(ctl) == []

    def test_size_trigger_fires_immediately(self):
        pit, ctl, batcher = self._setup(max_batch=2)
        ctl.try_admit(_entry(pit, "a", 5.0, submitted_at=0.0), now=0.0)
        assert batcher.should_flush(ctl)   # work-conserving: no hold
        ctl.try_admit(_entry(pit, "b", 5.0, submitted_at=0.0), now=0.0)
        # Full batch at the very instant of the second arrival.
        assert batcher.should_flush(ctl)

    def test_delay_trigger_fires_partial_batch(self):
        pit, ctl, batcher = self._setup(max_batch=4)
        ctl.try_admit(_entry(pit, "a", 5.0, submitted_at=0.0), now=0.0)
        assert batcher.should_flush(ctl)   # no wait for batch-mates
        batch = batcher.take_batch(ctl)
        assert [e.request.request_id for e in batch] == ["a"]

    def test_deadline_vs_size_race_size_wins(self):
        """A queue at exactly ``max_batch``: the batch is the full FIFO
        prefix, whatever the arrival instants."""
        pit, ctl, batcher = self._setup(max_batch=2)
        ctl.try_admit(_entry(pit, "a", 5.0, submitted_at=0.0), now=0.0)
        ctl.try_admit(_entry(pit, "b", 5.0, submitted_at=0.01), now=0.01)
        assert batcher.should_flush(ctl)
        batch = batcher.take_batch(ctl)
        assert [e.request.request_id for e in batch] == ["a", "b"]
        assert ctl.depth() == 0

    def test_take_batch_caps_at_max_batch(self):
        pit, ctl, batcher = self._setup(max_batch=2)
        for rid in ("a", "b", "c"):
            ctl.try_admit(_entry(pit, rid, 5.0, submitted_at=0.0), now=0.0)
        batch = batcher.take_batch(ctl)
        assert [e.request.request_id for e in batch] == ["a", "b"]
        assert ctl.depth() == 1

    def test_evicted_entries_never_occupy_batch_slots(self):
        pit, ctl, batcher = self._setup(max_batch=2)
        ctl.try_admit(_entry(pit, "a", deadline=1.0, submitted_at=0.0),
                      now=0.0)
        ctl.try_admit(_entry(pit, "b", deadline=9.0, submitted_at=0.0),
                      now=0.0)
        # "a" times out while queued; the PIT answers it.
        pit.evict_expired(now=2.0)
        batch = batcher.take_batch(ctl)
        assert [e.request.request_id for e in batch] == ["b"]

    def test_only_answered_entries_queued_is_no_flush(self):
        pit, ctl, batcher = self._setup(max_batch=2)
        ctl.try_admit(_entry(pit, "a", deadline=1.0, submitted_at=0.0),
                      now=0.0)
        pit.evict_expired(now=2.0)
        assert not batcher.should_flush(ctl)
        assert ctl.depth() == 0
