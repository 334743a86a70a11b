"""Loop schedules: OpenMP's ``schedule(static|dynamic|guided[, chunk])``.

A schedule answers one question: which contiguous iteration ranges does
each thread execute, and in what order?  Static schedules are computed up
front (deterministic — required for the paper's ordered-reduction
determinism argument); dynamic and guided schedules hand out chunks from
a shared counter at run time.

All schedules partition ``[0, space)`` exactly: the union of all chunks
is the full range with no overlap (property-tested).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

Chunk = Tuple[int, int]  # [lo, hi)

#: Distinct ``(space, num_threads)`` plans one static schedule keeps.
_PLANS_KEPT = 64


class Schedule:
    """Base class.  Subclasses implement :meth:`plan` (static family) or
    :meth:`chunk_server` (dynamic family)."""

    #: True when every thread's chunk list is known before execution.
    is_static = True

    def plan(self, space: int, num_threads: int) -> List[List[Chunk]]:
        """Per-thread chunk lists for a ``space``-iteration loop."""
        raise NotImplementedError

    def chunk_server(self, space: int, num_threads: int) -> "ChunkServer":
        """Shared chunk dispenser (used when :attr:`is_static` is False)."""
        raise NotImplementedError

    def chunks_of(
        self, space: int, num_threads: int
    ) -> Callable[[int], Iterable[Chunk]]:
        """``tid -> the chunks that thread runs`` for one execution of a
        ``space``-iteration loop: its share of the static plan, or
        whatever it pulls off one shared chunk server."""
        if self.is_static:
            return self.plan(space, num_threads).__getitem__
        server = self.chunk_server(space, num_threads)
        return lambda tid: iter(server.next_chunk, None)

    def describe(self) -> str:
        raise NotImplementedError


class StaticSchedule(Schedule):
    """OpenMP ``static`` / ``static, chunk``.

    Without a chunk size, iterations are divided into at most one
    contiguous block per thread (OpenMP's default): thread ``t`` gets
    ``ceil(space / T)`` iterations until the space runs out.  With a chunk
    size, fixed-size chunks are dealt round-robin.

    A plan depends only on ``(space, num_threads)``, so it is computed
    once per pair and the same lists are returned after that: callers
    read them and never mutate them.
    """

    def __init__(self, chunk: Optional[int] = None) -> None:
        if chunk is not None and chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk}")
        self.chunk = chunk
        self._plans: Dict[Tuple[int, int], List[List[Chunk]]] = {}

    def plan(self, space: int, num_threads: int) -> List[List[Chunk]]:
        plan = self._plans.get((space, num_threads))
        if plan is None:
            plan = self._deal(space, num_threads)
            if len(self._plans) >= _PLANS_KEPT:
                self._plans.clear()
            self._plans[space, num_threads] = plan
        return plan

    def _deal(self, space: int, num_threads: int) -> List[List[Chunk]]:
        if space < 0:
            raise ValueError(f"space must be non-negative, got {space}")
        if num_threads <= 0:
            raise ValueError(f"num_threads must be positive, got {num_threads}")
        chunks: List[List[Chunk]] = [[] for _ in range(num_threads)]
        if space == 0:
            return chunks
        if self.chunk is None:
            per = -(-space // num_threads)  # ceil
            lo = 0
            for tid in range(num_threads):
                hi = min(lo + per, space)
                if lo < hi:
                    chunks[tid].append((lo, hi))
                lo = hi
        else:
            lo = 0
            index = 0
            while lo < space:
                hi = min(lo + self.chunk, space)
                chunks[index % num_threads].append((lo, hi))
                lo = hi
                index += 1
        return chunks

    def describe(self) -> str:
        return "static" if self.chunk is None else f"static,{self.chunk}"


class ChunkServer:
    """Thread-safe dispenser of contiguous chunks for dynamic schedules."""

    def __init__(self, chunk_iter: Iterator[Chunk]) -> None:
        self._iter = chunk_iter
        self._lock = threading.Lock()

    def next_chunk(self) -> Optional[Chunk]:
        with self._lock:
            return next(self._iter, None)


class DynamicSchedule(Schedule):
    """OpenMP ``dynamic, chunk``: fixed-size chunks claimed on demand."""

    is_static = False

    def __init__(self, chunk: int = 1) -> None:
        if chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk}")
        self.chunk = chunk

    def chunk_server(self, space: int, num_threads: int) -> ChunkServer:
        def chunks() -> Iterator[Chunk]:
            lo = 0
            while lo < space:
                hi = min(lo + self.chunk, space)
                yield (lo, hi)
                lo = hi

        return ChunkServer(chunks())

    def describe(self) -> str:
        return f"dynamic,{self.chunk}"


class GuidedSchedule(Schedule):
    """OpenMP ``guided, chunk``: chunk size proportional to the remaining
    iterations divided by the thread count, floored at ``chunk``."""

    is_static = False

    def __init__(self, chunk: int = 1) -> None:
        if chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk}")
        self.chunk = chunk

    def chunk_server(self, space: int, num_threads: int) -> ChunkServer:
        def chunks() -> Iterator[Chunk]:
            lo = 0
            while lo < space:
                remaining = space - lo
                size = max(remaining // (2 * num_threads), self.chunk)
                hi = min(lo + size, space)
                yield (lo, hi)
                lo = hi

        return ChunkServer(chunks())

    def describe(self) -> str:
        return f"guided,{self.chunk}"


_KINDS = {"static": StaticSchedule, "dynamic": DynamicSchedule,
          "guided": GuidedSchedule}


def make_schedule(name: str) -> Schedule:
    """Parse an OpenMP-style schedule string, e.g. ``"static"``,
    ``"static,4"``, ``"dynamic,2"``, ``"guided"``.

    The one parser of schedule strings: anything but ``KIND[,CHUNK]``
    with a known kind and a positive integer chunk raises ValueError
    naming the string."""
    parts = [p.strip() for p in str(name).split(",")]
    cls = _KINDS.get(parts[0].lower())
    if cls is None or len(parts) > 2:
        raise ValueError(f"unknown schedule {name!r}; expected "
                         "static|dynamic|guided[,CHUNK]")
    if len(parts) == 1:
        return cls()
    try:
        chunk = int(parts[1])
    except ValueError:
        chunk = 0
    if chunk < 1:
        raise ValueError(f"schedule {name!r}: chunk must be a positive "
                         f"integer, got {parts[1]!r}")
    return cls(chunk)
