"""Admission control: bounded queueing, backpressure, coded shedding.

Overload policy in one sentence: a request is either queued within the
declared capacity or *immediately* answered with a coded ``shed``
response — the queue can never grow without bound and no request ever
vanishes.  :class:`BoundedDeque` is the only queue type the serve path
may use (servecheck SV001 flags any other queue construction in
:mod:`repro.serve`): unlike ``queue.Queue()`` it cannot be built
unbounded, and unlike ``collections.deque(maxlen=...)`` it *rejects* at
capacity instead of silently discarding from the far end.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Generic, List, Optional, TypeVar

from repro.serve.pit import _Entry

T = TypeVar("T")


class QueueFull(Exception):
    """Raised by :meth:`BoundedDeque.push` at capacity (the caller turns
    this into a coded shed response; it is never user-facing)."""


class BoundedDeque(Generic[T]):
    """A FIFO with a mandatory capacity and loud rejection.

    The serve path's one sanctioned queue: ``push`` raises
    :class:`QueueFull` at capacity rather than blocking (no unbounded
    waits, SV002) or dropping (no silent losses, SV101).
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._items: Deque[T] = deque()
        self.high_water = 0

    def push(self, item: T) -> None:
        with self._lock:
            if len(self._items) >= self.capacity:
                raise QueueFull()
            self._items.append(item)
            if len(self._items) > self.high_water:
                self.high_water = len(self._items)

    def pop_upto(self, n: int) -> List[T]:
        """Dequeue at most ``n`` items, FIFO order."""
        with self._lock:
            count = min(n, len(self._items))
            return [self._items.popleft() for _ in range(count)]

    def prune(self, keep) -> int:
        """Drop queued items failing ``keep(item)``; returns the count
        removed (used to purge entries the PIT already answered, e.g.
        evicted-at-deadline requests still waiting for a batch slot)."""
        with self._lock:
            kept = deque(item for item in self._items if keep(item))
            removed = len(self._items) - len(kept)
            self._items = kept
            return removed

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


class AdmissionController:
    """Front door: admit into the bounded queue or shed with a code.

    ``try_admit`` never blocks and never drops silently: the outcome is
    either "queued" (entry parked for the batcher) or a reason string
    the server turns into a coded shed response.  Backpressure is the
    queue depth itself — clients can poll :meth:`depth` /
    :attr:`high_water` and slow down before shedding starts.
    """

    def __init__(self, capacity: int) -> None:
        self.queue: BoundedDeque[_Entry] = BoundedDeque(capacity)
        self.shed_count = 0
        self._lock = threading.Lock()

    def try_admit(self, entry: _Entry, now: float) -> Optional[str]:
        """Queue ``entry`` or return the shed reason (None = admitted)."""
        if entry.request.deadline < now:
            reason = (
                f"dead on arrival: deadline {entry.request.deadline:.6f} "
                f"already passed at admission time {now:.6f}"
            )
        else:
            try:
                self.queue.push(entry)
                return None
            except QueueFull:
                reason = (
                    f"queue full: {self.queue.capacity} requests already "
                    "waiting (backpressure — retry after a flush)"
                )
        with self._lock:
            self.shed_count += 1
        return reason

    def depth(self) -> int:
        return len(self.queue)

    @property
    def high_water(self) -> int:
        return self.queue.high_water
