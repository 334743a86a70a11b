"""Dynamic batch formation: work-conserving and size-capped.

Whenever the dispatcher is free and live requests are queued, the
oldest of them — up to ``max_batch`` — become the next batch at once.
Nothing waits for batch-mates while the engine sits idle: at low load
a batch is partial (often a single request), and under load requests
still batch together because they queue while a batch executes.

The decision reads only the queue, never a clock, so it is
unit-testable at exact virtual instants.
"""

from __future__ import annotations

from typing import List

from repro.serve.admission import AdmissionController
from repro.serve.pit import _Entry


class DynamicBatcher:
    """Decides when the queue becomes a batch, and takes it."""

    def __init__(self, max_batch: int) -> None:
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        self.max_batch = max_batch

    def should_flush(self, admission: AdmissionController) -> bool:
        """True when a live request is queued.

        Entries the PIT already answered (deadline-evicted while
        queued) are purged first so they never occupy a batch slot.
        """
        admission.queue.prune(lambda entry: not entry.delivered)
        return admission.depth() > 0

    def take_batch(self, admission: AdmissionController) -> List[_Entry]:
        """The oldest live entries, at most ``max_batch``; [] if none."""
        if not self.should_flush(admission):
            return []
        return admission.queue.pop_upto(self.max_batch)
