"""The request front-end: submit → admit → batch → execute → deliver.

Two driving modes share one dispatch cycle (:meth:`InferenceServer.pump`):

* **pumped** — the caller (a test, the servecheck certifier) advances an
  injected :class:`~repro.serve.clock.ManualClock` and calls ``pump()``
  at chosen instants; the whole serving pipeline, deadlines included,
  replays deterministically in virtual time.
* **background** — :meth:`start` runs a dispatcher thread that pumps on
  every submission (the ledger's serve workloads use this with the real
  monotonic clock).

Dispatch is work-conserving: a pump takes the oldest live requests at
once, up to ``max_batch``, and keeps taking until the queue is empty —
no partial batch is held back for batch-mates while the engine is free.

The dispatcher is supervised: a pump that raises is counted, the batch
it was executing is answered with coded errors (inside
``_execute_batch``), and the loop continues — a serving process
degrades loudly, it does not die silently.  Every request submitted
terminates in exactly one coded response via the pending-request
table's idempotent delivery.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, List, Optional

import numpy as np

from repro.serve.admission import AdmissionController
from repro.serve.batcher import DynamicBatcher
from repro.serve.clock import ManualClock
from repro.serve.engine import EngineFault, InferenceEngine
from repro.serve.pit import Handle, PendingRequestTable, _Entry
from repro.serve.request import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_QUARANTINED_INPUT,
    STATUS_QUARANTINED_OUTPUT,
    STATUS_SHED,
    STATUS_TIMEOUT,
    InferenceRequest,
    InferenceResponse,
)

#: Backoff after a supervised pump failure (through the clock).
_FAILURE_BACKOFF_S = 0.01


class InferenceServer:
    """Multi-tenant single-model request runtime over one engine.

    ``max_delay`` is the longest a queued request can go unseen by an
    idle background dispatcher (its one wait timeout); a submission
    wakes the dispatcher at once, so it bounds only missed wake-ups.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        capacity: int = 64,
        max_delay: float = 0.005,
        default_budget: float = 1.0,
        on_deliver=None,
    ) -> None:
        if max_delay <= 0:
            raise ValueError(f"max_delay must be positive, got {max_delay}")
        self.engine = engine
        self.clock = engine.clock
        self.pit = PendingRequestTable(on_deliver=on_deliver)
        self.admission = AdmissionController(capacity)
        self.batcher = DynamicBatcher(engine.max_batch)
        self.max_delay = max_delay
        self.default_budget = default_budget
        self._pump_lock = threading.Lock()
        self._auto_ids = itertools.count()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.pump_failures = 0
        self.batches_served = 0

    # -- ingress -------------------------------------------------------
    def submit(
        self,
        sample: np.ndarray,
        budget: Optional[float] = None,
        deadline: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> Handle:
        """Register one request; returns its :class:`Handle`.

        ``budget`` is a relative latency budget in clock seconds
        (default :attr:`default_budget`); ``deadline`` overrides it with
        an absolute instant on the serve clock's axis.  Overload never
        blocks the caller: at capacity the request is *answered*
        immediately with a coded shed response through its handle.  A
        sample that is not a real-valued array of the engine's sample
        shape is answered at once with a coded error and never joins a
        batch, so it cannot fail its batch-mates.
        """
        now = self.clock.now()
        if deadline is None:
            deadline = now + (budget if budget is not None
                              else self.default_budget)
        rid = (request_id if request_id is not None
               else f"auto-{next(self._auto_ids)}")
        request = InferenceRequest(
            request_id=rid,
            sample=np.asarray(sample),
            deadline=deadline,
            submitted_at=now,
        )
        handle = self.pit.add(request)
        status, reason = STATUS_ERROR, self._malformed(request.sample)
        if reason is None:
            status = STATUS_SHED
            reason = self.admission.try_admit(handle._entry, now)
        if reason is not None:
            self.pit.deliver(InferenceResponse(
                request_id=rid,
                status=status,
                detail=reason,
                completed_at=now,
                latency=0.0,
            ))
        self._wake.set()
        return handle

    def _malformed(self, sample: np.ndarray) -> Optional[str]:
        """Why ``sample`` cannot be served, or None when it can."""
        expected = self.engine.sample_shape
        if sample.shape == expected and sample.dtype.kind in "iuf":
            return None
        return (f"malformed sample: shape {sample.shape} of "
                f"{sample.dtype}, expected shape {expected} of real "
                "numbers")

    # -- the dispatch cycle --------------------------------------------
    def pump(self) -> int:
        """One dispatch cycle: evict expired, then serve the queue in
        FIFO batches of at most ``max_batch`` until it is empty.

        Serialized with concurrent pumps/reloads; returns the number of
        responses delivered during this cycle.
        """
        with self._pump_lock:
            delivered = len(self.pit.evict_expired(self.clock.now()))
            while batch := self.batcher.take_batch(self.admission):
                delivered += self._execute_batch(batch)
                # SlowChunk/backoff may have advanced virtual time:
                # evict what expired meanwhile.
                delivered += len(self.pit.evict_expired(self.clock.now()))
        return delivered

    def _execute_batch(self, entries: List[_Entry]) -> int:
        """Run one batch and answer every entry with a coded response.

        Any executor failure — retries exhausted, even an unexpected
        bug — is converted to per-request ``error`` responses here, so
        entries popped from the queue can never be lost.
        """
        ids = [entry.request.request_id for entry in entries]
        samples = [entry.request.sample for entry in entries]
        try:
            result = self.engine.run_batch(samples, ids)
        except Exception as exc:  # EngineFault or an unexpected defect
            kind = ("retries exhausted"
                    if isinstance(exc, EngineFault) else "executor defect")
            now = self.clock.now()
            delivered = 0
            for entry in entries:
                delivered += self.pit.deliver(InferenceResponse(
                    request_id=entry.request.request_id,
                    status=STATUS_ERROR,
                    detail=f"{kind}: {exc}",
                    completed_at=now,
                    latency=now - entry.request.submitted_at,
                ))
            return delivered
        self.batches_served += 1
        completed = result.completed_at
        delivered = 0
        for i, entry in enumerate(entries):
            rid = entry.request.request_id
            latency = completed - entry.request.submitted_at
            if i in result.quarantined_input:
                response = InferenceResponse(
                    request_id=rid,
                    status=STATUS_QUARANTINED_INPUT,
                    detail="sample carries NaN/Inf; row zeroed and "
                           "quarantined (batch-mates unaffected)",
                    completed_at=completed,
                    batch_index=result.batch_index,
                    latency=latency,
                )
            elif i in result.quarantined_output:
                response = InferenceResponse(
                    request_id=rid,
                    status=STATUS_QUARANTINED_OUTPUT,
                    detail="forward pass produced non-finite logits "
                           "for this row",
                    completed_at=completed,
                    batch_index=result.batch_index,
                    latency=latency,
                )
            elif completed > entry.request.deadline:
                # Served too late (straggler / retry backoff): honest
                # timeout, not a stale "ok".
                response = InferenceResponse(
                    request_id=rid,
                    status=STATUS_TIMEOUT,
                    detail=(
                        f"batch completed at {completed:.6f}, after the "
                        f"deadline {entry.request.deadline:.6f}"
                    ),
                    completed_at=completed,
                    batch_index=result.batch_index,
                    latency=latency,
                )
            else:
                response = InferenceResponse(
                    request_id=rid,
                    status=STATUS_OK,
                    output=result.outputs[i],
                    completed_at=completed,
                    batch_index=result.batch_index,
                    latency=latency,
                )
            delivered += self.pit.deliver(response)
        return delivered

    # -- background dispatcher -----------------------------------------
    def start(self) -> None:
        """Run the dispatcher on a supervised background thread."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True,
        )
        self._thread.start()

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            self._wake.clear()
            try:
                self.pump()
            except Exception:
                # Supervisor: the dispatcher must outlive any pump
                # defect.  Batch entries were already answered inside
                # _execute_batch; count the failure, back off, go on.
                self.pump_failures += 1
                self.clock.sleep(_FAILURE_BACKOFF_S)
            self._wake.wait(timeout=self.max_delay)

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the dispatcher thread (requests still queued stay
        pending until a later pump/evict; call :meth:`drain` first for
        a clean shutdown)."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def drain(self, timeout: float = 10.0, poll: float = 0.001) -> bool:
        """Pump until no request is pending (bounded by real/virtual
        ``timeout`` seconds of clock time); True when fully drained."""
        start = self.clock.now()
        while self.pit.pending_count() > 0:
            if self.clock.now() - start > timeout:
                return False
            self.pump()
            if self.pit.pending_count() == 0:
                break
            if isinstance(self.clock, ManualClock):
                self.clock.advance(poll)
            else:
                self.clock.sleep(poll)
        return True

    # -- management ----------------------------------------------------
    def reload(self, path: str) -> int:
        """Hot-swap model parameters (drains the in-flight batch)."""
        return self.engine.reload(path)

    def stats(self) -> Dict[str, object]:
        table = self.pit.stats()
        return {
            "pending": table["pending"],
            "delivered": table["delivered"],
            "duplicates_suppressed": table["duplicates_suppressed"],
            "queue_depth": self.admission.depth(),
            "queue_high_water": self.admission.high_water,
            "shed": self.admission.shed_count,
            "batches_served": self.batches_served,
            "engine_restarts": self.engine.restarts,
            "engine_reloads": self.engine.reloads,
            "pump_failures": self.pump_failures,
        }
