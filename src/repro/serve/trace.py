"""Recorded request traces: deterministic generation, save/load, replay.

A trace is the serving analogue of a seeded training run: arrival
offsets, latency budgets and per-request sample seeds are all derived
from one integer seed, so the servecheck certifier and a real-clock
load generator replay the *identical* request stream — healthy and
under chaos — without storing any sample bytes (samples regenerate from
their seeds on demand).
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.framework.blob import DTYPE
from repro.serve.clock import ManualClock

TRACE_FORMAT = "repro-trace/1"


@dataclass(frozen=True)
class TraceEvent:
    """One recorded arrival."""

    index: int
    request_id: str
    offset: float        # seconds after trace start
    budget: float        # relative latency budget
    sample_seed: int


class RequestTrace:
    """An ordered, seeded stream of inference arrivals."""

    def __init__(self, events: List[TraceEvent],
                 sample_shape: Tuple[int, ...], seed: int) -> None:
        self.events = list(events)
        self.sample_shape = tuple(int(d) for d in sample_shape)
        self.seed = seed

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def generate(
        cls,
        n: int,
        sample_shape: Tuple[int, ...],
        seed: int = 0,
        mean_interarrival: float = 0.002,
        budget: float = 0.5,
    ) -> "RequestTrace":
        """Deterministic open-loop arrival process: inter-arrival gaps
        jitter uniformly in [0.5, 1.5] of the mean, budgets are fixed."""
        rng = random.Random(seed)
        events: List[TraceEvent] = []
        offset = 0.0
        for index in range(n):
            offset += rng.uniform(0.5, 1.5) * mean_interarrival
            events.append(TraceEvent(
                index=index,
                request_id=f"t{seed}-{index}",
                offset=offset,
                budget=budget,
                sample_seed=rng.randrange(2 ** 31),
            ))
        return cls(events, sample_shape, seed)

    def sample_for(self, event: TraceEvent) -> np.ndarray:
        """Regenerate the event's sample bytes from its seed."""
        gen = np.random.default_rng(event.sample_seed)
        return gen.random(self.sample_shape, dtype=np.float32).astype(DTYPE)

    # -- persistence ---------------------------------------------------
    def save(self, path: str) -> None:
        doc = {
            "format": TRACE_FORMAT,
            "seed": self.seed,
            "sample_shape": list(self.sample_shape),
            "events": [asdict(e) for e in self.events],
        }
        with open(path, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "RequestTrace":
        with open(path) as handle:
            doc = json.load(handle)
        if doc.get("format") != TRACE_FORMAT:
            raise ValueError(
                f"{path!r} is not a {TRACE_FORMAT} trace "
                f"(format={doc.get('format')!r})"
            )
        events = [TraceEvent(**e) for e in doc["events"]]
        return cls(events, tuple(doc["sample_shape"]), int(doc["seed"]))


def replay_trace(
    server,
    trace: RequestTrace,
    chaos=None,
    drain_timeout: float = 60.0,
    hooks: Optional[Dict[int, Callable[[], None]]] = None,
) -> List[str]:
    """Replay ``trace`` against a pumped server in virtual time.

    The server's clock must be a :class:`ManualClock`; the replay
    advances it to each arrival offset, pumps, submits (with the chaos
    harness poisoning samples and raising request storms where the
    FaultPlan says so), runs any per-index hook (e.g. a hot reload),
    then drains.  Returns every submitted request id — the certifier's
    ground truth for the zero-lost/zero-duplicated audit.
    """
    clock = server.clock
    if not isinstance(clock, ManualClock):
        raise TypeError(
            "replay_trace needs a ManualClock-driven server "
            f"(got {type(clock).__name__}); deterministic certification "
            "cannot read wall-clock"
        )
    t0 = clock.now()
    submitted: List[str] = []
    for event in trace.events:
        clock.advance_to(t0 + event.offset)
        server.pump()
        sample = trace.sample_for(event)
        if chaos is not None:
            sample = chaos.poison_sample(event.index, sample)
        server.submit(sample, budget=event.budget,
                      request_id=event.request_id)
        submitted.append(event.request_id)
        if chaos is not None:
            for burst in range(chaos.storm_count(event.index)):
                storm_id = f"{event.request_id}::storm{burst}"
                server.submit(trace.sample_for(event), budget=event.budget,
                              request_id=storm_id)
                submitted.append(storm_id)
        if hooks and event.index in hooks:
            hooks[event.index]()
    if not server.drain(timeout=drain_timeout):
        raise RuntimeError(
            f"replay failed to drain: {server.pit.pending_count()} "
            "requests still pending after the timeout"
        )
    return submitted
