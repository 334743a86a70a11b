"""Execution tracing: real per-layer timing of the parallel runtime.

The paper's Figures 4 and 7 are per-layer execution-time breakdowns.
On real multi-core hardware this module produces the same breakdown from
*measured* wall time: a :class:`TracingExecutor` is a view over any
executor that records one event per layer pass (name, pass, duration,
thread count), aggregating across iterations.

On the single-core evaluation container the absolute numbers carry no
scaling information, but the breakdown is still faithful to the real
Python/numpy execution and the tracer is what a user on a real 16-core
machine runs to regenerate Figure 4 from measurements rather than from
the model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.framework.net import Net
from repro.framework.solvers.base import LayerwiseExecutor


@dataclass
class TraceEvent:
    """One timed layer pass."""

    layer: str
    pass_: str  # "forward" or "backward"
    seconds: float
    threads: int


@dataclass
class Trace:
    """Aggregated timing of a traced run."""

    events: List[TraceEvent] = field(default_factory=list)

    def record(self, layer: str, pass_: str, seconds: float,
               threads: int) -> None:
        self.events.append(TraceEvent(layer, pass_, seconds, threads))

    def totals(self) -> Dict[Tuple[str, str], float]:
        """Total seconds per (layer, pass)."""
        out: Dict[Tuple[str, str], float] = {}
        for event in self.events:
            key = (event.layer, event.pass_)
            out[key] = out.get(key, 0.0) + event.seconds
        return out

    def shares(self) -> Dict[Tuple[str, str], float]:
        """Fraction of total time per (layer, pass) — the relative
        weights of Figures 4/7."""
        totals = self.totals()
        overall = sum(totals.values())
        if overall <= 0:
            return {key: 0.0 for key in totals}
        return {key: value / overall for key, value in totals.items()}

    def table(self) -> str:
        """Figure-4-style text table (microseconds and shares)."""
        totals = self.totals()
        overall = sum(totals.values()) or 1.0
        lines = [f"{'layer':<12}{'pass':<10}{'time (us)':>12}{'share':>8}"]
        for (layer, pass_), seconds in sorted(
            totals.items(), key=lambda item: -item[1]
        ):
            lines.append(
                f"{layer:<12}{pass_:<10}{seconds * 1e6:>12.1f}"
                f"{seconds / overall * 100:>7.1f}%"
            )
        return "\n".join(lines)

    def clear(self) -> None:
        self.events.clear()


class TracingExecutor(LayerwiseExecutor):
    """A view over another executor that times each layer pass.

    It owns no execution logic: every layer goes through the wrapped
    executor's own ``forward_layer`` / ``backward_layer`` — plans,
    reduction modes and error annotation included — and the view only
    timestamps the two calls.
    """

    def __init__(self, inner: LayerwiseExecutor) -> None:
        self.inner = inner
        self.trace = Trace()

    @property
    def num_threads(self) -> int:
        return self.inner.num_threads

    def forward_layer(self, net: Net, i: int,
                      rows: Optional[int] = None) -> float:
        start = time.perf_counter()
        loss = self.inner.forward_layer(net, i, rows)
        self.trace.record(net.layers[i].name, "forward",
                          time.perf_counter() - start, self.num_threads)
        return loss

    def backward_layer(self, net: Net, i: int) -> None:
        start = time.perf_counter()
        self.inner.backward_layer(net, i)
        self.trace.record(net.layers[i].name, "backward",
                          time.perf_counter() - start, self.num_threads)
