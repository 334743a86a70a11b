"""repro.serve — fault-tolerant batched inference serving (PR 10).

The ROADMAP's "millions of users" axis made concrete: concurrent
single-sample requests are admitted through a bounded queue, coalesced
into batches of up to ``max_batch`` whenever the engine is free
(partial at low load, full under saturation), executed
on the TEST-phase net by the existing ThreadTeam/ParallelExecutor, and
demultiplexed back through a pending-request table with per-request
deadlines and idempotent delivery.

Degradation ladder (every rung a coded response, never silence):

    shed  →  quarantine  →  restart/replay

Certified by the ``servecheck`` analyzer family (SV codes): a static
lint of this package (bounded queues only, no wall-clock reads, no
unbounded waits, synccheck's lock discipline) plus a dynamic chaos
certification that replays a recorded trace under injected worker
crashes, straggler chunks, poisoned samples and request storms, gating
on zero lost/duplicated responses and bitwise parity of every served
output against direct sequential ``Net.forward``.
"""

from repro.serve.admission import AdmissionController, BoundedDeque, QueueFull
from repro.serve.batcher import DynamicBatcher
from repro.serve.chaos import ChaosHarness, chaos
from repro.serve.clock import Clock, ManualClock, MonotonicClock
from repro.serve.engine import (
    BatchRecord,
    BatchResult,
    EngineFault,
    InferenceEngine,
    StagedSource,
)
from repro.serve.pit import Handle, PendingRequestTable
from repro.serve.request import (
    ALL_STATUSES,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_QUARANTINED_INPUT,
    STATUS_QUARANTINED_OUTPUT,
    STATUS_SHED,
    STATUS_TIMEOUT,
    InferenceRequest,
    InferenceResponse,
)
from repro.serve.server import InferenceServer
from repro.serve.trace import RequestTrace, TraceEvent, replay_trace

__all__ = [
    "ALL_STATUSES",
    "AdmissionController",
    "BatchRecord",
    "BatchResult",
    "BoundedDeque",
    "ChaosHarness",
    "Clock",
    "DynamicBatcher",
    "EngineFault",
    "Handle",
    "InferenceEngine",
    "InferenceRequest",
    "InferenceResponse",
    "InferenceServer",
    "ManualClock",
    "MonotonicClock",
    "PendingRequestTable",
    "QueueFull",
    "RequestTrace",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_QUARANTINED_INPUT",
    "STATUS_QUARANTINED_OUTPUT",
    "STATUS_SHED",
    "STATUS_TIMEOUT",
    "StagedSource",
    "TraceEvent",
    "chaos",
    "replay_trace",
]
