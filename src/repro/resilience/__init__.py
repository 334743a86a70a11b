"""Fault-tolerant training runtime (PR 5).

Three pieces, certified by the ``rescheck`` analysis gate (RS codes):

* :mod:`repro.resilience.checkpoint` — crash-consistent checkpointing:
  atomic temp-file + ``os.replace`` writes inside a CRC-32-checksummed
  container, capturing the *complete* trajectory state (parameters,
  solver history, iteration, LR-policy identity, every declared layer
  RNG stream, and the batch-source cursor) so a resume-at-iter-k is
  bitwise identical to the uninterrupted run.
* :mod:`repro.resilience.guards` — per-iteration NaN/Inf sentinels over
  losses, activations, diffs and post-update parameters, with
  ``halt`` / ``skip-batch`` / ``rollback`` policies backed by a
  pre-iteration shadow copy; worker exceptions are contained so a crash
  mid-backward can never leave the net/solver torn.
* :mod:`repro.resilience.faults` — a deterministic fault-injection
  harness (seedable :class:`~repro.resilience.faults.FaultPlan`) so
  every recovery path is exercised by tests rather than hoped-for.
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCorrupt,
    CheckpointError,
    CheckpointFormatError,
    CheckpointMismatch,
    atomic_write_bytes,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.faults import (
    ChunkAbort,
    FaultPlan,
    InjectedFault,
    LayerRaise,
    NaNBlob,
    PoisonSample,
    RequestStorm,
    SlowChunk,
    corrupt_checkpoint,
    inject,
    truncate_checkpoint,
)
from repro.resilience.guards import (
    GUARD_POLICIES,
    HALT,
    ROLLBACK,
    SKIP_BATCH,
    GuardEvent,
    HealthGuard,
    NumericFault,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointCorrupt",
    "CheckpointError",
    "CheckpointFormatError",
    "CheckpointMismatch",
    "ChunkAbort",
    "PoisonSample",
    "RequestStorm",
    "SlowChunk",
    "FaultPlan",
    "GUARD_POLICIES",
    "GuardEvent",
    "HALT",
    "HealthGuard",
    "InjectedFault",
    "LayerRaise",
    "NaNBlob",
    "NumericFault",
    "ROLLBACK",
    "SKIP_BATCH",
    "atomic_write_bytes",
    "corrupt_checkpoint",
    "inject",
    "load_checkpoint",
    "save_checkpoint",
    "truncate_checkpoint",
]
