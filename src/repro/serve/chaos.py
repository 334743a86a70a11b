"""Chaos harness: FaultPlan descriptors applied to a live server.

The serve-side counterpart of :func:`repro.resilience.faults.inject`.
It interprets, deterministically, the descriptors a training-side
injector ignores:

* :class:`~repro.resilience.faults.ChunkAbort` — ``iteration`` is read
  as the *served batch index*: the first chunk of the named layer in
  that batch raises :class:`InjectedFault` once, killing the worker
  team mid-batch (the engine must restart the team and replay the
  batch exactly once).
* :class:`~repro.resilience.faults.SlowChunk` — the named layer's first
  chunk of the given batch stalls ``delay_s`` seconds *through the
  engine's injected clock*, so a straggler replays identically in
  virtual time.
* :class:`~repro.resilience.faults.PoisonSample` — the given trace
  request's sample is overwritten with NaNs before submission.
* :class:`~repro.resilience.faults.RequestStorm` — when the trace
  reaches ``at_request``, ``count`` extra back-to-back requests are
  submitted (overload burst; admission must shed with codes).

Both chunk faults must name a layer the served forward runs (it stops
at the logits); :meth:`ChaosHarness.install` refuses any other layer
with a ``ValueError`` rather than arm a fault that can never fire.

Patches are armed through the training injector's
:class:`~repro.resilience.faults.LayerPatches` and removed on exit.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, Set

import numpy as np

from repro.resilience.faults import (
    ChunkAbort,
    FaultPlan,
    InjectedFault,
    LayerPatches,
    PoisonSample,
    RequestStorm,
    SlowChunk,
)
from repro.serve.engine import InferenceEngine


class ChaosHarness:
    """Arms serve-level FaultPlan descriptors on one engine."""

    def __init__(self, engine: InferenceEngine, plan: FaultPlan) -> None:
        self.engine = engine
        self.plan = plan
        self.storms: Dict[int, int] = {}
        self.poisoned: Set[int] = set()
        self.patches = LayerPatches()
        for fault in plan:
            if isinstance(fault, RequestStorm):
                self.storms[fault.at_request] = (
                    self.storms.get(fault.at_request, 0) + fault.count
                )
            elif isinstance(fault, PoisonSample):
                self.poisoned.add(fault.request)

    # -- trace-side hooks ---------------------------------------------
    def poison_sample(self, index: int, sample: np.ndarray) -> np.ndarray:
        if index in self.poisoned:
            return np.full_like(sample, np.nan)
        return sample

    def storm_count(self, index: int) -> int:
        return self.storms.get(index, 0)

    # -- engine-side patches ------------------------------------------
    def _arm(self, layer_name: str, batch: int, fire) -> None:
        """``fire(lo, hi)`` once, on the first chunk of ``layer_name``
        in served batch ``batch``."""
        engine = self.engine
        self.patches.first_chunk(
            engine.net.layer(layer_name),
            lambda: engine.batches_executed == batch, fire)

    def install(self) -> None:
        """Arm every chunk fault; refuses, before arming any, a fault on
        a layer the served forward never runs (it stops at the logits),
        where the fault could never fire."""
        served = self.engine.net.layer_names[: self.engine.upto + 1]
        for fault in self.plan:
            if (isinstance(fault, (ChunkAbort, SlowChunk))
                    and fault.layer not in served):
                raise ValueError(
                    f"chaos: {type(fault).__name__} targets layer "
                    f"{fault.layer!r}, outside the served range "
                    f"{served[0]!r}..{served[-1]!r}; the engine's forward "
                    "stops at the logits, so it would never fire"
                )
        for fault in self.plan:
            if isinstance(fault, ChunkAbort):
                def crash(lo, hi, fault=fault):
                    raise InjectedFault(
                        f"chaos: worker crash in layer {fault.layer!r} "
                        f"[{lo}:{hi}] during served batch {fault.iteration}"
                    )
                self._arm(fault.layer, fault.iteration, crash)
            elif isinstance(fault, SlowChunk):
                self._arm(fault.layer, fault.batch,
                          lambda lo, hi, delay=fault.delay_s:
                          self.engine.clock.sleep(delay))

    def uninstall(self) -> None:
        self.patches.remove()


@contextlib.contextmanager
def chaos(engine: InferenceEngine, plan: FaultPlan) -> Iterator[ChaosHarness]:
    """Context manager: arm the serve-level faults, disarm on exit."""
    harness = ChaosHarness(engine, plan)
    harness.install()
    try:
        yield harness
    finally:
        harness.uninstall()
