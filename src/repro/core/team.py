"""ThreadTeam: an OpenMP-like thread team on Python threads.

A team owns ``num_threads - 1`` persistent worker threads (the calling
thread acts as thread 0, as in OpenMP).  ``parallel(fn)`` opens a parallel
region: every thread runs ``fn(ctx)`` with a :class:`RegionContext` giving
its thread id and the synchronization primitives of the paper's
Algorithms 4/5 — ``barrier()``, ``critical()`` and ``ordered()``.

Python's GIL means pure-Python sections do not overlap, but the numpy /
BLAS kernels each chunk executes release the GIL, so chunks genuinely
interleave — the runtime exercises real concurrency (races in a wrongly
privatized layer *will* manifest), even though single-core wall-clock
speedup is not observable in this container.

Worker exceptions are captured and re-raised in the caller as
:class:`WorkerError` with the originating thread id.

Sync-point API
--------------
Every blocking synchronization operation the team performs funnels
through one :class:`TeamSync` backend (barrier waits, the critical lock,
the ordered turn, worker joins, chunk boundaries).  The default backend
executes the real :mod:`threading` primitives; the synccheck model
checker (:mod:`repro.analysis.interleave`) substitutes a cooperative
scheduler that virtualizes every primitive and explores thread
interleavings deterministically.  The backend also gives the team a
single choke point for the deadlock watchdog: pass ``watchdog=<seconds>``
(or set ``REPRO_TEAM_WATCHDOG``) and any barrier / ordered-turn /
critical-lock wait that exceeds the timeout raises :class:`TeamDeadlock`
with a per-thread stack dump and each thread's last sync point, instead
of hanging CI forever.
"""

from __future__ import annotations

import os
import sys
import threading
import traceback
from typing import Callable, List, Optional

from repro.core.scheduling import Schedule, StaticSchedule


class _RegionAborted(Exception):
    """Internal: a peer thread failed; unblock and unwind this one."""


class TeamDeadlock(RuntimeError):
    """The watchdog verdict: a synchronization wait exceeded the timeout.

    Raised instead of hanging when ``watchdog`` is configured on the
    team and a barrier / ordered-turn / critical-lock wait times out.
    Carries ``point`` (the sync point that timed out), ``last_sync``
    (each thread's most recent sync point) and the formatted per-thread
    stack dump in the message.
    """

    def __init__(self, message: str, point: str,
                 last_sync: List[Optional[str]]) -> None:
        super().__init__(message)
        self.point = point
        self.last_sync = list(last_sync)


class WorkerError(RuntimeError):
    """An exception escaped a parallel region on some thread.

    ``original`` is the root-cause exception; ``peer_errors`` lists the
    other threads' failures from the same region (usually abort-induced
    secondaries: :class:`_RegionAborted` from peers waiting on the
    failed thread's ordered turn, ``BrokenBarrierError`` from peers
    parked at a barrier the abort broke).  ``layer`` / ``phase`` are
    annotated by the executor when the failing chunk is known.
    """

    def __init__(self, thread_id: int, original: BaseException, tb: str) -> None:
        super().__init__(
            f"worker thread {thread_id} raised "
            f"{type(original).__name__}: {original}\n{tb}"
        )
        self.thread_id = thread_id
        self.original = original
        self.peer_errors: List["WorkerError"] = []
        self.layer: Optional[str] = None
        self.phase: Optional[str] = None


class TeamSync:
    """The team's sync-point API, backed by real threading primitives.

    Subclass and pass ``sync=`` to :class:`ThreadTeam` to intercept or
    virtualize every synchronization operation.  Methods receive the
    team and the calling thread's id, so one backend instance can serve
    any number of teams.
    """

    #: When True, the executor emits :meth:`chunk_point` before every
    #: dispatched chunk (the model checker's preemption points).  The
    #: default backend never observes chunks, keeping the uninstrumented
    #: hot path free of per-chunk calls.
    observes_chunks = False

    # -- barriers ------------------------------------------------------
    def barrier_wait(self, team: "ThreadTeam", tid: int, point: str) -> None:
        """Wait at one of the team's barriers (``start``/``finish``/
        ``region``), applying the watchdog when configured.

        Only *region* barriers are watchdogged: workers park at the
        start barrier indefinitely between regions, and the finish
        barrier collects threads that are guaranteed to arrive (every
        in-region blocking point is either abort-broken or watchdogged
        itself), so timing either out would break the lifecycle
        rendezvous instead of catching a protocol deadlock."""
        team._note_sync(tid, f"{point}-barrier")
        barrier = team._barrier_of(point)
        if team.watchdog is None or point != "region":
            barrier.wait()
            return
        try:
            barrier.wait(timeout=team.watchdog)
        except threading.BrokenBarrierError:
            if team._ordered_turn["aborted"]:
                # A region abort broke the barrier on purpose; the
                # caller classifies this as a secondary failure.
                raise
            raise team._deadlock_error(tid, f"{point}-barrier") from None

    # -- critical ------------------------------------------------------
    def critical(self, team: "ThreadTeam", tid: int,
                 fn: Callable[[], None]) -> None:
        team._note_sync(tid, "critical")
        lock = team._critical_lock
        if team.watchdog is None:
            acquired = lock.acquire()
        else:
            acquired = lock.acquire(timeout=team.watchdog)
        if not acquired:
            raise team._deadlock_error(tid, "critical")
        try:
            fn()
        finally:
            lock.release()

    # -- ordered turn --------------------------------------------------
    def ordered(self, team: "ThreadTeam", tid: int,
                fn: Callable[[], None]) -> None:
        team._note_sync(tid, "ordered")
        turn = team._ordered_turn
        with turn["cond"]:
            while turn["next"] != tid and not turn["aborted"]:
                if not turn["cond"].wait(timeout=team.watchdog):
                    raise team._deadlock_error(tid, "ordered")
            if turn["aborted"]:
                raise _RegionAborted()
        try:
            fn()
        finally:
            with turn["cond"]:
                turn["next"] += 1
                turn["cond"].notify_all()

    # -- abort / reset -------------------------------------------------
    def abort(self, team: "ThreadTeam") -> None:
        """A failed thread must not deadlock peers waiting on its turn
        or at a barrier: mark the region aborted and break the barrier."""
        turn = team._ordered_turn
        with turn["cond"]:
            turn["aborted"] = True
            turn["cond"].notify_all()
        team._barrier.abort()

    def reset(self, team: "ThreadTeam") -> None:
        team._ordered_turn["next"] = 0
        if team._ordered_turn["aborted"]:
            team._ordered_turn["aborted"] = False
            team._barrier.reset()

    # -- chunk boundaries / lifecycle ---------------------------------
    def chunk_point(self, team: "ThreadTeam", tid: int, layer: str,
                    phase: str, lo: int, hi: int) -> None:
        """Called before each dispatched chunk when
        :attr:`observes_chunks` is True; a no-op otherwise."""

    def join_worker(self, team: "ThreadTeam", tid: int,
                    worker: threading.Thread) -> None:
        worker.join(timeout=10.0)

    def thread_exit(self, team: "ThreadTeam", tid: int) -> None:
        """A worker thread is about to return from its loop."""


#: Shared default backend (stateless: all state lives on the team).
_REAL_SYNC = TeamSync()


def _default_watchdog() -> Optional[float]:
    raw = os.environ.get("REPRO_TEAM_WATCHDOG", "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


class RegionContext:
    """Per-thread view of a parallel region (what ``omp_get_thread_num``
    and friends expose)."""

    def __init__(self, team: "ThreadTeam", thread_id: int) -> None:
        self._team = team
        self.thread_id = thread_id
        self.num_threads = team.num_threads

    def barrier(self) -> None:
        """Wait until every team thread reaches this point."""
        self._team.sync.barrier_wait(self._team, self.thread_id, "region")

    def critical(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` under the team-wide mutual exclusion lock."""
        self._team.sync.critical(self._team, self.thread_id, fn)

    def ordered(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` when it is this thread's turn, in thread-id order.

        This is the construct of Algorithm 5 lines 22-24: each thread
        incorporates its privatized gradients into the shared blob only
        after all lower-numbered threads have done so, reproducing the
        sequential accumulation order.
        """
        self._team.sync.ordered(self._team, self.thread_id, fn)


class ThreadTeam:
    """Persistent OpenMP-like thread team.

    Parameters
    ----------
    num_threads:
        Team size, including the calling (master) thread.  ``1`` runs
        everything inline.
    sync:
        Optional :class:`TeamSync` backend; defaults to the real
        threading primitives.
    watchdog:
        Deadlock watchdog timeout in seconds for every synchronization
        wait.  ``None`` (the default) waits forever; the
        ``REPRO_TEAM_WATCHDOG`` environment variable supplies a global
        default.  On expiry a :class:`TeamDeadlock` is raised carrying
        each thread's last sync point and stack.

    Use as a context manager, or call :meth:`shutdown` explicitly.
    """

    def __init__(self, num_threads: int, sync: Optional[TeamSync] = None,
                 watchdog: Optional[float] = None) -> None:
        if num_threads <= 0:
            raise ValueError(f"num_threads must be positive, got {num_threads}")
        if watchdog is not None and watchdog <= 0:
            raise ValueError(f"watchdog must be positive, got {watchdog}")
        self.num_threads = num_threads
        self.sync = sync if sync is not None else _REAL_SYNC
        self.watchdog = watchdog if watchdog is not None else _default_watchdog()
        self._barrier = threading.Barrier(num_threads)
        self._critical_lock = threading.Lock()
        self._ordered_turn = {
            "cond": threading.Condition(), "next": 0, "aborted": False,
        }
        self._region_fn: Optional[Callable[[RegionContext], None]] = None
        self._errors: List[Optional[WorkerError]] = [None] * num_threads
        self._start = threading.Barrier(num_threads)
        self._finish = threading.Barrier(num_threads)
        self._shutdown = False
        self._last_sync: List[Optional[str]] = [None] * num_threads
        self._master_ident: Optional[int] = threading.get_ident()
        # Guards the shutdown/restart lifecycle transitions only; never
        # held across a barrier wait or a join (those block), so the
        # watchdog thread can call shutdown() without deadlocking the
        # team it is supervising.
        self._lifecycle_lock = threading.Lock()
        self._workers: List[threading.Thread] = []
        self._spawn_workers()

    def _spawn_workers(self) -> None:
        for tid in range(1, self.num_threads):
            worker = threading.Thread(
                target=self._worker_loop, args=(tid,),
                name=f"team-worker-{tid}", daemon=True,
            )
            worker.start()
            self._workers.append(worker)

    # ------------------------------------------------------------------
    # sync bookkeeping
    # ------------------------------------------------------------------
    def _barrier_of(self, point: str) -> threading.Barrier:
        if point == "region":
            return self._barrier
        if point == "start":
            return self._start
        if point == "finish":
            return self._finish
        raise ValueError(f"unknown barrier point {point!r}")

    def _note_sync(self, tid: int, label: str) -> None:
        self._last_sync[tid] = label

    def _deadlock_error(self, tid: int, point: str) -> TeamDeadlock:
        """Build the watchdog report: per-thread last sync point + stack."""
        frames = sys._current_frames()
        idents = {0: self._master_ident}
        for wid, worker in enumerate(self._workers, start=1):
            idents[wid] = worker.ident
        lines = [
            f"team watchdog: thread {tid} waited longer than "
            f"{self.watchdog:.3g}s at sync point {point!r} "
            f"({self.num_threads} threads)"
        ]
        for t in range(self.num_threads):
            lines.append(
                f"  thread {t}: last sync point = {self._last_sync[t]!r}"
            )
            frame = frames.get(idents.get(t) or -1)
            if frame is None:
                lines.append("    <no live stack>")
            else:
                for entry in traceback.format_stack(frame):
                    lines.extend(
                        "    " + ln for ln in entry.rstrip().splitlines()
                    )
        return TeamDeadlock("\n".join(lines), point, self._last_sync)

    # ------------------------------------------------------------------
    # region execution
    # ------------------------------------------------------------------
    def _worker_loop(self, thread_id: int) -> None:
        try:
            while True:
                self.sync.barrier_wait(self, thread_id, "start")
                if self._shutdown:
                    return
                fn = self._region_fn
                assert fn is not None
                try:
                    fn(RegionContext(self, thread_id))
                except BaseException as exc:  # noqa: BLE001 - reported to caller
                    self._errors[thread_id] = WorkerError(
                        thread_id, exc, traceback.format_exc()
                    )
                    self._abort_region()
                self.sync.barrier_wait(self, thread_id, "finish")
        except SystemExit:
            return  # a checker sync backend abandoned the run: die quietly
        finally:
            self.sync.thread_exit(self, thread_id)

    def _abort_region(self) -> None:
        self.sync.abort(self)

    def parallel(self, fn: Callable[[RegionContext], None]) -> None:
        """Run ``fn(ctx)`` on every team thread; the caller is thread 0.

        Blocks until the region completes on all threads; re-raises the
        lowest-numbered thread's :class:`WorkerError` if any failed.
        """
        if self._shutdown:
            raise RuntimeError("thread team is shut down")
        if self.num_threads == 1:
            fn(RegionContext(self, 0))
            self._reset_region_state()
            return
        self._region_fn = fn
        self._errors = [None] * self.num_threads
        self._master_ident = threading.get_ident()
        self.sync.barrier_wait(self, 0, "start")
        try:
            fn(RegionContext(self, 0))
        except BaseException as exc:  # noqa: BLE001 - reported below
            self._errors[0] = WorkerError(0, exc, traceback.format_exc())
            self._abort_region()
        self.sync.barrier_wait(self, 0, "finish")
        self._region_fn = None
        errors = [e for e in self._errors if e is not None]
        self._reset_region_state()
        if errors:
            # Prefer the root cause over abort-induced secondary errors:
            # peers unwound with _RegionAborted (ordered-turn abort) or
            # BrokenBarrierError (the abort broke the barrier they were
            # parked at) did not fail on their own.
            def _secondary(e: WorkerError) -> bool:
                return isinstance(
                    e.original,
                    (_RegionAborted, threading.BrokenBarrierError),
                )

            root = next((e for e in errors if not _secondary(e)), errors[0])
            root.peer_errors = [e for e in errors if e is not root]
            raise root

    def _reset_region_state(self) -> None:
        self.sync.reset(self)

    # ------------------------------------------------------------------
    # worksharing helper
    # ------------------------------------------------------------------
    def parallel_for(
        self,
        space: int,
        body: Callable[[int, int, int], None],
        schedule: Optional[Schedule] = None,
    ) -> None:
        """Worksharing loop: ``body(lo, hi, thread_id)`` per chunk.

        ``schedule`` defaults to plain static (the paper's choice).  An
        implicit barrier ends the loop, as in OpenMP.
        """
        schedule = schedule or StaticSchedule()
        if space <= 0:
            return
        if self.num_threads == 1 or space == 1:
            for lo, hi in schedule.chunks_of(space, 1)(0):
                body(lo, hi, 0)
            return

        chunks_of = schedule.chunks_of(space, self.num_threads)

        def region(ctx: RegionContext) -> None:
            for lo, hi in chunks_of(ctx.thread_id):
                body(lo, hi, ctx.thread_id)

        self.parallel(region)

    def parallel_for_nest(
        self,
        dims,
        body: Callable[..., None],
        schedule: Optional[Schedule] = None,
        collapse: Optional[int] = None,
    ) -> None:
        """Worksharing over a loop nest — Algorithm 4 as a literal API.

        The outermost ``collapse`` loops of the nest ``dims`` (all of
        them by default, like OpenMP's ``collapse(n)`` on a perfect
        nest) are coalesced into one induction variable and distributed;
        ``body(*indices, thread_id=...)`` runs once per iteration of the
        coalesced space with the original indices recovered through the
        ``f_s, f_1, ..., f_k`` maps.

        For vectorizable work prefer :meth:`parallel_for` over a layer's
        chunk protocol; this entry point exists for the per-iteration
        style of the paper's pseudo-code and for irregular bodies.
        """
        from repro.core.coalesce import CoalescedSpace

        dims = tuple(int(d) for d in dims)
        depth = len(dims) if collapse is None else int(collapse)
        if not 1 <= depth <= len(dims):
            raise ValueError(
                f"collapse depth {depth} invalid for {len(dims)} loops"
            )
        outer = CoalescedSpace(dims[:depth])
        inner_dims = dims[depth:]

        def chunk_body(lo: int, hi: int, tid: int) -> None:
            import itertools
            for civ in range(lo, hi):
                indices = outer.indices(civ)
                if inner_dims:
                    for rest in itertools.product(
                        *(range(d) for d in inner_dims)
                    ):
                        body(*indices, *rest, thread_id=tid)
                else:
                    body(*indices, thread_id=tid)

        self.parallel_for(outer.size, chunk_body, schedule)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop and join the worker threads.

        Idempotent and safe to call from a thread other than the master
        (e.g. a supervisor/watchdog thread reacting to an aborted
        region): the lifecycle transition is claimed under a lock, so a
        second concurrent call returns immediately instead of double-
        releasing the start barrier; the barrier wait and the joins
        themselves happen outside the lock.
        """
        with self._lifecycle_lock:
            already_down = self._shutdown
            self._shutdown = True
            workers, self._workers = self._workers, []
        if already_down or not workers:
            self._release_dead_pool_states()
            return
        self.sync.barrier_wait(self, 0, "start")
        for tid, worker in enumerate(workers, start=1):
            self.sync.join_worker(self, tid, worker)
        self._release_dead_pool_states()

    def restart(self) -> None:
        """Shut down (if still running) and respawn a fresh worker pool.

        Reuses the team's configuration (size, sync backend, watchdog)
        but replaces every synchronization primitive, so a team whose
        region aborted — even one whose barriers were broken — comes
        back ready for :meth:`parallel`.  This is the supervisor hook:
        after a worker crash the serve runtime calls ``restart()`` and
        replays the in-flight batch on the new pool.
        """
        self.shutdown()
        with self._lifecycle_lock:
            if not self._shutdown:
                return  # a concurrent restart already won the race
            self._barrier = threading.Barrier(self.num_threads)
            self._start = threading.Barrier(self.num_threads)
            self._finish = threading.Barrier(self.num_threads)
            self._critical_lock = threading.Lock()
            self._ordered_turn = {
                "cond": threading.Condition(), "next": 0, "aborted": False,
            }
            self._region_fn = None
            self._errors = [None] * self.num_threads
            self._last_sync = [None] * self.num_threads
            self._master_ident = threading.get_ident()
            self._shutdown = False
            self._spawn_workers()

    @staticmethod
    def _release_dead_pool_states() -> None:
        # Long-lived processes cycle many teams; retiring the dead
        # workers' scratch-pool slabs here keeps the registry bounded.
        # Lazy via sys.modules: never *imports* the compiler package,
        # only pokes it when someone else already has.
        scratch = sys.modules.get("repro.compiler.scratch")
        if scratch is not None:
            scratch.release_dead_states()

    def __enter__(self) -> "ThreadTeam":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            if not self._shutdown and self._workers:
                self.shutdown()
        except BaseException:
            # BaseException: a checker-abandoned team's sync backend
            # raises SystemExit from shutdown(); GC must stay silent.
            pass
