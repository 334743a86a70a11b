"""Operation accounting for the BLAS substrate.

Every kernel reports its work through :func:`record_op`; an
:class:`OpCounter` opened with :func:`op_counter` tallies floating-point
operations and bytes moved per call kind.  The simulator uses these
tallies to build its cost model from *measured* call patterns instead of
hand-derived formulas.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator


@dataclass
class OpCounter:
    """Tally of BLAS work, grouped by call kind.

    Attributes
    ----------
    flops:
        Floating point operations per call kind (multiply-add counted as 2).
    bytes_moved:
        Bytes read plus written per call kind, assuming each operand is
        touched once (the streaming lower bound the simulator needs).
    calls:
        Number of invocations per call kind.
    """

    flops: Dict[str, int] = field(default_factory=dict)
    bytes_moved: Dict[str, int] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, flops: int, nbytes: int,
               times: int = 1) -> None:
        """Count ``times`` invocations of ``kind``, each of ``flops`` and
        ``nbytes``."""
        self.flops[kind] = self.flops.get(kind, 0) + int(flops) * times
        self.bytes_moved[kind] = (self.bytes_moved.get(kind, 0)
                                  + int(nbytes) * times)
        self.calls[kind] = self.calls.get(kind, 0) + times

    def total_flops(self) -> int:
        return sum(self.flops.values())

    def total_bytes(self) -> int:
        return sum(self.bytes_moved.values())

    def total_calls(self) -> int:
        return sum(self.calls.values())

    def merged_with(self, other: "OpCounter") -> "OpCounter":
        out = OpCounter()
        for src in (self, other):
            for kind, value in src.flops.items():
                out.flops[kind] = out.flops.get(kind, 0) + value
            for kind, value in src.bytes_moved.items():
                out.bytes_moved[kind] = out.bytes_moved.get(kind, 0) + value
            for kind, value in src.calls.items():
                out.calls[kind] = out.calls.get(kind, 0) + value
        return out

    def clear(self) -> None:
        self.flops.clear()
        self.bytes_moved.clear()
        self.calls.clear()


class _CounterState(threading.local):
    """The calling thread's innermost open counter.  The class default
    makes the lookup on a thread that never opened one a plain attribute
    read, not a failed one."""

    counter: OpCounter | None = None


_counter_state = _CounterState()


def _active_counter() -> OpCounter | None:
    return _counter_state.counter


@contextmanager
def op_counter() -> Iterator[OpCounter]:
    """Count BLAS work performed by the calling thread inside the block.

    Nested counters stack: the innermost active counter receives the
    records; on exit its totals are folded into the enclosing one so outer
    scopes still see the full tally.
    """
    counter = OpCounter()
    outer = _active_counter()
    _counter_state.counter = counter
    try:
        yield counter
    finally:
        _counter_state.counter = outer
        if outer is not None:
            merged = outer.merged_with(counter)
            outer.flops = merged.flops
            outer.bytes_moved = merged.bytes_moved
            outer.calls = merged.calls


def record_op(kind: str, flops: int, nbytes: int, times: int = 1) -> None:
    """Internal hook used by the BLAS kernels to report their work:
    ``times`` invocations (a stacked ``gemm``'s products) of ``flops``
    and ``nbytes`` each."""
    counter = _active_counter()
    if counter is not None:
        counter.record(kind, flops, nbytes, times)
