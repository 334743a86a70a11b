"""Per-thread scratch-buffer pool for chunk-local work arrays.

Layers that need a temporary array inside ``forward_chunk`` /
``backward_chunk`` (the im2col column buffer is the big one) used to
``np.empty`` it on every chunk call.  Under the coarse-grain executor
that is one multi-megabyte allocation per chunk per iteration — pure
allocator churn that never survives the call.  This module replaces it
with a keyed pool:

* **per-thread** — the pool lives in ``threading.local`` storage, so
  two worker threads never hand out the same buffer and no locking sits
  on the chunk hot path;
* **keyed by (tag, shape, dtype)** — a layer asks for
  ``scratch_buffer("conv.col", self._col_shape)`` and gets the same
  array back on every subsequent call with that geometry.  Distinct
  tags never alias, so a chunk may hold several live buffers at once
  (``conv.wrot``, ``conv.dy_planes`` and ``conv.dy_cols`` in conv's
  backward-data loop).  A hit is one dict lookup on the key as the
  caller spelled it; only a key seen for the first time is normalised;
* **uninitialised** — buffers come from ``np.empty`` and are *not*
  cleared between calls.  Callers must fully overwrite the region they
  read (``im2col`` overwrites its whole output and clears the ``work``
  plane it is handed before using it; conv's backward-data loop
  zero-fills ``conv.dy_planes`` once per chunk), which the pooled call
  sites already do.

``pool_stats()`` aggregates hit/miss counters across every thread that
ever touched the pool; the zero-allocation regression test resets the
counters after warmup and asserts the steady state never misses.

The registry tracks ``(thread, state)`` pairs so that states belonging
to threads that have exited can be retired: their slabs are dropped
(the memory is what matters) while their hit/miss counters fold into a
retired-totals accumulator, keeping ``pool_stats()`` aggregates stable
across ThreadTeam lifetimes.  ``ThreadTeam.shutdown`` calls
:func:`release_dead_states`; long-lived processes cycling many teams
therefore never accumulate dead slab entries under ``_STATES_LOCK``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence, Tuple

import numpy as np

_Key = Tuple[str, Tuple[int, ...], str]


class _PoolState:
    """One thread's buffers plus its share of the global counters.

    ``buffers`` holds each array once, under its normalised key;
    ``asked`` maps every key exactly as a caller spelled it (a shape
    tuple, a dtype class) to the same array, so a hit is one dict
    lookup with no key rebuilt."""

    __slots__ = ("buffers", "asked", "hits", "misses")

    def __init__(self) -> None:
        self.buffers: Dict[_Key, np.ndarray] = {}
        self.asked: Dict[tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def forget(self) -> None:
        self.buffers.clear()
        self.asked.clear()


_TLS = threading.local()
#: (owning thread, its _PoolState) for every live thread that touched
#: the pool — kept pruned of dead threads by release_dead_states().
_STATES: List[Tuple[threading.Thread, _PoolState]] = []
_STATES_LOCK = threading.Lock()
#: hit/miss totals inherited from retired (dead-thread) states, so the
#: aggregate counters survive pruning.
_RETIRED = {"hits": 0, "misses": 0}


def _retire_dead_locked() -> None:
    """Drop dead threads' states; fold their counters into _RETIRED.

    Caller must hold ``_STATES_LOCK``.
    """
    live: List[Tuple[threading.Thread, _PoolState]] = []
    for thread, state in _STATES:
        if thread.is_alive():
            live.append((thread, state))
        else:
            _RETIRED["hits"] += state.hits
            _RETIRED["misses"] += state.misses
            state.forget()
    _STATES[:] = live


def release_dead_states() -> int:
    """Retire pool states whose owning threads have exited.

    Returns the number of states released.  Safe to call from any
    thread at any time; ``ThreadTeam.shutdown`` invokes it so worker
    slabs are reclaimed when a team is torn down.
    """
    with _STATES_LOCK:
        before = len(_STATES)
        _retire_dead_locked()
        return before - len(_STATES)


def _state() -> _PoolState:
    state = getattr(_TLS, "state", None)
    if state is None:
        state = _PoolState()
        with _STATES_LOCK:
            _retire_dead_locked()
            _STATES.append((threading.current_thread(), state))
        _TLS.state = state
    return state


def scratch_buffer(tag: str, shape: Sequence[int],
                   dtype=np.float32) -> np.ndarray:
    """Return this thread's pooled work array for ``(tag, shape, dtype)``.

    The first request with a given key allocates; every later request
    from the same thread returns the identical array object.  Contents
    are unspecified on entry — callers overwrite before reading.
    """
    state = _state()
    asked = (tag, shape, dtype)
    try:
        buf = state.asked.get(asked)
    except TypeError:  # an unhashable spelling (a list shape)
        asked = buf = None
    if buf is not None:
        state.hits += 1
        return buf
    dt = np.dtype(dtype)
    key = (tag, tuple(int(d) for d in shape), dt.str)
    buf = state.buffers.get(key)
    if buf is None:
        buf = np.empty(key[1], dtype=dt)
        state.buffers[key] = buf
        state.misses += 1
    else:
        state.hits += 1
    if asked is not None:
        state.asked[asked] = buf
    return buf


def pool_stats() -> Dict[str, int]:
    """Aggregate counters across every thread that used the pool.

    Retired (dead-thread) states keep contributing their hit/miss
    counts; their buffers are gone, so ``buffers``/``bytes`` only cover
    live threads.
    """
    with _STATES_LOCK:
        _retire_dead_locked()
        states = [s for _, s in _STATES]
        hits = _RETIRED["hits"]
        misses = _RETIRED["misses"]
    return {
        "hits": hits + sum(s.hits for s in states),
        "misses": misses + sum(s.misses for s in states),
        "buffers": sum(len(s.buffers) for s in states),
        "bytes": sum(b.nbytes for s in states for b in s.buffers.values()),
    }


def reset_pool_stats() -> None:
    """Zero the hit/miss counters everywhere; keep the buffers warm."""
    with _STATES_LOCK:
        _RETIRED["hits"] = 0
        _RETIRED["misses"] = 0
        states = [s for _, s in _STATES]
    for state in states:
        state.hits = 0
        state.misses = 0


def clear_pool() -> None:
    """Drop every cached buffer (and the counters) in every thread.

    Buffers handed out earlier stay valid — the pool merely forgets
    them, so the next request reallocates.  Test isolation helper.
    """
    with _STATES_LOCK:
        _RETIRED["hits"] = 0
        _RETIRED["misses"] = 0
        _retire_dead_locked()
        states = [s for _, s in _STATES]
    for state in states:
        state.forget()
        state.hits = 0
        state.misses = 0
