"""Injected monotonic clocks for the serve runtime.

Every deadline decision in :mod:`repro.serve` — admission,
pending-table eviction, retry backoff — reads time through a
:class:`Clock` instance handed in at construction.  No other serve
module may import :mod:`time`; the servecheck static lint (SV004)
enforces this, the same way detcheck's DC lint bans wall-clock reads
from deterministic paths.  The payoff is the dynamic half of servecheck:
a whole 1k-request trace, including straggler stalls and retry backoff,
replays in *virtual* time under :class:`ManualClock`, deterministically
and in milliseconds of real wall-clock.

:class:`MonotonicClock` is the production backend (``time.monotonic``;
never wall-clock ``time.time``, which jumps under NTP).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List


class Clock:
    """The serve runtime's time source: ``now()`` and ``sleep()``."""

    def now(self) -> float:
        """Seconds on a monotonic axis (origin is arbitrary)."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Block the calling thread for ``seconds`` (virtual or real)."""
        raise NotImplementedError


class MonotonicClock(Clock):
    """Production clock: ``time.monotonic`` / ``time.sleep``."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class ManualClock(Clock):
    """Deterministic test/certification clock driven by ``advance()``.

    ``sleep()`` does not block: it advances virtual time by the
    requested amount (single-driver replay semantics — the certifier
    pumps the server from one thread, so a sleeping component *is* the
    driver and blocking it would deadlock the replay).  ``on_advance``
    callbacks let a harness observe every time step.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()
        self.on_advance: List[Callable[[float], None]] = []

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        """Move virtual time forward by ``seconds``; returns the new now."""
        if seconds < 0:
            raise ValueError(f"cannot advance time backwards ({seconds})")
        with self._lock:
            self._now += seconds
            now = self._now
        for callback in self.on_advance:
            callback(now)
        return now

    def advance_to(self, instant: float) -> float:
        """Move virtual time forward to ``instant`` (no-op if passed)."""
        with self._lock:
            delta = instant - self._now
        return self.advance(delta) if delta > 0 else self.now()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self.advance(seconds)
