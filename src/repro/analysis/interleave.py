"""Deterministic bounded model checking of ThreadTeam programs.

The dynamic half of synccheck.  A program under test is executed with a
:class:`CheckerSync` backend plugged into its :class:`ThreadTeam`: every
synchronization operation (barrier wait, critical lock, ordered turn,
worker join/exit) and every dispatched chunk becomes a *sync point*
submitted to a :class:`Scheduler` that fully serializes the program —
exactly one thread runs between consecutive sync points, every other
thread is parked.  All primitives are virtualized (a barrier is an
arrived-set, a lock is a holder field, the ordered turn is a counter),
so the schedule — the sequence of (thread, operation) grants — is the
*only* source of nondeterminism, and replaying a recorded schedule
reproduces a run bit for bit.

On top of the serializing scheduler, :class:`ModelChecker` explores the
schedule space CHESS-style (Musuvathi & Qadeer's iterative context
bounding): the canonical schedule runs the last-granted thread as long
as it stays ready; at any step where several threads are ready, each
alternative grant is a branch, and branches that *preempt* a still-ready
thread count against a preemption bound (default 2).  Alternatives whose
pending operation is independent of the chosen one are pruned — barrier
releases commute, chunks whose layer footprint certifies sample-disjoint
or privatized-reduction writes commute, only contended lock acquires
(and footprint-uncertified chunk pairs) are treated as dependent.  This
is a heuristic partial-order reduction, not a full DPOR: the
certification suite proves the seeded defect classes are still found.

Verdicts per explored schedule: **deadlock** (every live thread parked,
no operation ready — reported with each thread's pending operation),
**exception** (the program raised), and — across schedules — **digest
divergence** (a program whose invariance tier promises determinism
produced different output bits under two interleavings).  Every verdict
carries the serialized schedule, and :meth:`ModelChecker.replay` runs it
again deterministically.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

#: Schedule trace format version (serialized into --trace output).
TRACE_VERSION = "synccheck-trace/1"

#: Safety limits: a run that exceeds these is infrastructure trouble
#: (reported, never silently ignored).
_MAX_STEPS = 200_000
_QUIESCE_TIMEOUT = 60.0


class CheckerStuck(RuntimeError):
    """The scheduler could not reach quiescence (a thread blocked on
    something outside the virtualized sync surface, or a grant was
    never consumed) — an infrastructure failure, not a program verdict."""


class ScheduleDrift(RuntimeError):
    """A forced replay choice named a thread that was not ready: the
    program's operation sequence changed between record and replay."""


@dataclass(frozen=True)
class Op:
    """One pending synchronization operation."""

    kind: str                 # barrier / acquire / release / turn_wait /
                              # turn_advance / abort / reset / chunk /
                              # join / exit
    resource: str             # barrier point, lock name, "ordered", ...
    parties: int = 0          # barrier: team size
    target: int = -1          # join: the tid being joined
    payload: Tuple = ()       # chunk: (layer, phase, lo, hi)


@dataclass(frozen=True)
class Step:
    """One granted operation in a schedule."""

    tid: int
    kind: str
    resource: str

    def to_json(self) -> list:
        return [self.tid, self.kind, self.resource]


class _Parked:
    """A thread's submission: the op plus its wake-up machinery."""

    __slots__ = ("op", "event", "outcome", "released", "gen")

    def __init__(self, op: Op) -> None:
        self.op = op
        self.event = threading.Event()
        self.outcome: Optional[BaseException] = None
        self.released = False  # barrier ops: tripped, grant must succeed
        self.gen = 0           # barrier ops: generation at arrival


class Scheduler:
    """Cooperative serializing scheduler for one program run.

    Program threads call :meth:`perform` (via :class:`CheckerSync`) and
    block; the controller thread runs :meth:`drive`, granting exactly
    one operation at a time.  ``forced`` replays a schedule prefix (a
    sequence of tids); past the prefix the canonical policy applies and
    alternative grants are recorded as branches for the explorer.
    """

    def __init__(
        self,
        preemption_bound: int = 2,
        forced: Sequence[int] = (),
        independent: Optional[Callable[[Op, Op], bool]] = None,
        collect_branches: bool = True,
    ) -> None:
        self.bound = preemption_bound
        self.forced = list(forced)
        self._independent_chunks = independent
        self.collect_branches = collect_branches

        self._mu = threading.Condition()
        self._parked: Dict[int, _Parked] = {}
        self._idents: Dict[int, int] = {}       # thread ident -> tid
        self._registered: Set[int] = set()
        self._exited: Set[int] = set()
        self._expected: Optional[int] = None    # total program threads
        self._abandoned = False

        # virtual primitive state
        self._lock_holder: Dict[str, Optional[int]] = {}
        self._broken: Set[str] = set()          # broken barrier points
        self._barrier_gen: Dict[str, int] = {}  # generation per point
        self._turn_next = 0
        self._turn_aborted = False

        # schedule state
        self.steps: List[Step] = []
        self.last: Optional[int] = None
        self.preemptions = 0
        #: (step_index, prefix_tids, alternative_tid) discovered branches
        self.branches: List[Tuple[int, Tuple[int, ...], int]] = []
        self.deadlock: Optional[dict] = None

    # ------------------------------------------------------------------
    # program-thread side
    # ------------------------------------------------------------------
    def register(self, tid: int) -> None:
        """Pre-register a thread (the runner) so quiescence waits for
        its first operation."""
        with self._mu:
            self._registered.add(tid)

    def tid_of_current_thread(self) -> int:
        ident = threading.get_ident()
        with self._mu:
            tid = self._idents.get(ident)
        if tid is None:
            raise CheckerStuck(
                "sync operation from a thread that never performed one"
            )
        return tid

    def perform(self, tid: int, op: Op) -> None:
        """Submit ``op`` for thread ``tid``; block until granted.

        Raises the outcome exception the controller attached (broken
        barrier, region abort) in the calling thread, mirroring the
        real primitives.
        """
        parked = _Parked(op)
        with self._mu:
            if self._abandoned:
                raise SystemExit
            self._idents[threading.get_ident()] = tid
            self._registered.add(tid)
            if op.parties:
                self._expected = max(self._expected or 1, op.parties)
            if op.kind == "barrier":
                parked.gen = self._barrier_gen.get(op.resource, 0)
            self._parked[tid] = parked
            self._mu.notify_all()
        parked.event.wait()
        if parked.outcome is not None:
            raise parked.outcome

    # ------------------------------------------------------------------
    # controller side
    # ------------------------------------------------------------------
    def _quiescent_locked(self) -> bool:
        live = self._registered - self._exited
        if not all(tid in self._parked for tid in live):
            return False
        if self._expected is not None and \
                len(self._registered) < self._expected:
            # team threads are still starting up; their arrival is
            # imminent and must be waited for, not raced.
            return False
        return True

    def _ready_locked(self) -> List[int]:
        # Trip barriers first: once every party of the *current
        # generation* has arrived at a point, each of those waits is
        # released (they stay ready while peers drain; a thread looping
        # back to the same barrier arrives in the next generation).
        by_point: Dict[str, List[_Parked]] = {}
        for parked in self._parked.values():
            if parked.op.kind == "barrier" and not parked.released and \
                    parked.gen == self._barrier_gen.get(
                        parked.op.resource, 0):
                by_point.setdefault(parked.op.resource, []).append(parked)
        for point, waiting in by_point.items():
            if len(waiting) >= waiting[0].op.parties:
                for parked in waiting:
                    parked.released = True
                self._barrier_gen[point] = \
                    self._barrier_gen.get(point, 0) + 1

        ready: List[int] = []
        for tid, parked in self._parked.items():
            op = parked.op
            if op.kind == "barrier":
                if parked.released or op.resource in self._broken:
                    ready.append(tid)
            elif op.kind == "acquire":
                if self._lock_holder.get(op.resource) is None:
                    ready.append(tid)
            elif op.kind == "turn_wait":
                if self._turn_next == tid or self._turn_aborted:
                    ready.append(tid)
            elif op.kind == "join":
                if op.target in self._exited:
                    ready.append(tid)
            else:
                # release / turn_advance / abort / reset / chunk / exit
                ready.append(tid)
        return sorted(ready)

    def _apply_locked(self, tid: int, parked: _Parked) -> None:
        op = parked.op
        if op.kind == "barrier":
            if not parked.released and op.resource in self._broken:
                parked.outcome = threading.BrokenBarrierError()
        elif op.kind == "acquire":
            self._lock_holder[op.resource] = tid
        elif op.kind == "release":
            self._lock_holder[op.resource] = None
        elif op.kind == "turn_wait":
            if self._turn_aborted:
                from repro.core.team import _RegionAborted

                parked.outcome = _RegionAborted()
        elif op.kind == "turn_advance":
            self._turn_next += 1
        elif op.kind == "abort":
            self._turn_aborted = True
            self._broken.add("region")
        elif op.kind == "reset":
            self._turn_next = 0
            self._turn_aborted = False
            self._broken.discard("region")
        elif op.kind == "exit":
            self._exited.add(tid)

    def _chunks_independent(self, a: Op, b: Op) -> bool:
        if self._independent_chunks is not None:
            return self._independent_chunks(a, b)
        return False

    #: Grants whose only effect is to *enable* other threads (unlock,
    #: advance the turn, mark exited): by the time such an op is
    #: pending, no conflicting grant can be simultaneously ready, so
    #: exploring both orders is redundant.
    _PURE_KINDS = frozenset(
        {"release", "turn_advance", "exit", "join", "reset"}
    )

    def _op_independent(self, a: Op, b: Op) -> bool:
        """May the order of these two pending grants be swapped without
        reaching a distinct state?  (Heuristic reduction, see module
        docstring; the certification suite proves the seeded defect
        classes survive it.)

        * chunk/chunk — per the layer-footprint callback (conservative
          default: dependent).
        * chunk/sync — a chunk grant only computes certified data and
          parks again; sync state is untouched, so orders commute.
        * barrier/barrier — permuting resumptions from a tripped
          barrier; any real conflict surfaces later as a pending pair.
        * pure enabling grants (release/advance/exit/join/reset) — see
          :data:`_PURE_KINDS`.
        * everything else (acquire, turn_wait, abort, barrier-vs-other)
          is dependent: granting it runs arbitrary region code that can
          contend with the chosen thread, so both orders are explored.
        """
        if a.kind == "chunk" or b.kind == "chunk":
            if a.kind == b.kind:
                return self._chunks_independent(a, b)
            return True
        if a.kind in self._PURE_KINDS or b.kind in self._PURE_KINDS:
            return True
        if a.kind == "barrier" and b.kind == "barrier":
            return True
        return False

    def _choose_locked(self, ready: List[int]) -> int:
        step = len(self.steps)
        if step < len(self.forced):
            want = self.forced[step]
            if want not in ready:
                raise ScheduleDrift(
                    f"replay step {step}: forced tid {want} not ready "
                    f"(ready={ready}, pending="
                    f"{ {t: p.op.kind for t, p in self._parked.items()} })"
                )
            chosen = want
        else:
            chosen = self.last if self.last in ready else ready[0]
            if self.collect_branches and len(ready) > 1:
                prefix = tuple(s.tid for s in self.steps)
                chosen_op = self._parked[chosen].op
                for alt in ready:
                    if alt == chosen:
                        continue
                    cost = self.preemptions + (
                        1 if self.last in ready and alt != self.last else 0
                    )
                    if cost > self.bound:
                        continue
                    if self._op_independent(
                            self._parked[alt].op, chosen_op):
                        continue
                    self.branches.append((step, prefix, alt))
        if self.last is not None and self.last in ready \
                and chosen != self.last:
            self.preemptions += 1
        return chosen

    def _abandon_locked(self) -> None:
        """Wake every parked thread with SystemExit so the process does
        not accumulate parked daemon threads after a deadlock verdict."""
        self._abandoned = True
        for parked in self._parked.values():
            parked.outcome = SystemExit()
            parked.event.set()
        self._parked.clear()

    def drive(self) -> str:
        """Run the schedule to completion.  Returns ``"complete"`` or
        ``"deadlock"``; raises :class:`CheckerStuck` / drift errors."""
        while True:
            with self._mu:
                while not self._quiescent_locked():
                    if not self._mu.wait(timeout=_QUIESCE_TIMEOUT):
                        self._abandon_locked()
                        raise CheckerStuck(
                            "no quiescence within "
                            f"{_QUIESCE_TIMEOUT}s (pending="
                            f"{ {t: p.op.kind for t, p in self._parked.items()} }, "
                            f"registered={sorted(self._registered)}, "
                            f"exited={sorted(self._exited)})"
                        )
                if not self._registered - self._exited:
                    return "complete"
                ready = self._ready_locked()
                if not ready:
                    self.deadlock = {
                        "pending": {
                            str(tid): {
                                "kind": parked.op.kind,
                                "resource": parked.op.resource,
                            }
                            for tid, parked in sorted(self._parked.items())
                        },
                        "turn_next": self._turn_next,
                        "locks": {
                            k: v for k, v in self._lock_holder.items()
                            if v is not None
                        },
                    }
                    self._abandon_locked()
                    return "deadlock"
                if len(self.steps) >= _MAX_STEPS:
                    self._abandon_locked()
                    raise CheckerStuck(
                        f"schedule exceeded {_MAX_STEPS} steps"
                    )
                try:
                    chosen = self._choose_locked(ready)
                except ScheduleDrift:
                    self._abandon_locked()
                    raise
                parked = self._parked.pop(chosen)
                self._apply_locked(chosen, parked)
                self.steps.append(
                    Step(chosen, parked.op.kind, parked.op.resource)
                )
                parked.event.set()


# ---------------------------------------------------------------------------
# the TeamSync backend driving programs into the scheduler
# ---------------------------------------------------------------------------
class CheckerSync:
    """TeamSync backend that virtualizes every primitive into scheduler
    operations.  Deliberately duck-typed (not a TeamSync subclass) so
    importing this module never imports numpy-heavy runtime modules."""

    observes_chunks = True

    def __init__(self, scheduler: Scheduler) -> None:
        self.sched = scheduler

    def barrier_wait(self, team, tid: int, point: str) -> None:
        team._note_sync(tid, f"{point}-barrier")
        self.sched.perform(
            tid, Op("barrier", point, parties=team.num_threads)
        )

    def critical(self, team, tid: int, fn) -> None:
        team._note_sync(tid, "critical")
        self.sched.perform(tid, Op("acquire", "critical"))
        try:
            fn()
        finally:
            self.sched.perform(tid, Op("release", "critical"))

    def ordered(self, team, tid: int, fn) -> None:
        team._note_sync(tid, "ordered")
        self.sched.perform(tid, Op("turn_wait", "ordered"))
        try:
            fn()
        finally:
            self.sched.perform(tid, Op("turn_advance", "ordered"))

    def _tid_or_master(self) -> int:
        # A one-thread team's parallel() short-circuits past every
        # barrier, so the master may reach reset/abort before its first
        # perform registered an ident; it is tid 0 by construction.
        with self.sched._mu:
            return self.sched._idents.get(threading.get_ident(), 0)

    def abort(self, team) -> None:
        self.sched.perform(self._tid_or_master(), Op("abort", "region"))

    def reset(self, team) -> None:
        self.sched.perform(self._tid_or_master(), Op("reset", "region"))

    def chunk_point(self, team, tid: int, layer: str, phase: str,
                    lo: int, hi: int) -> None:
        self.sched.perform(tid, Op(
            "chunk", f"{layer}/{phase}[{lo}:{hi}]",
            payload=(layer, phase, lo, hi),
        ))

    def join_worker(self, team, tid: int, worker) -> None:
        caller = self.sched.tid_of_current_thread()
        self.sched.perform(
            caller, Op("join", f"worker-{tid}", target=tid)
        )
        worker.join(timeout=10.0)

    def thread_exit(self, team, tid: int) -> None:
        try:
            self.sched.perform(tid, Op("exit", f"thread-{tid}"))
        except SystemExit:
            pass  # abandoned run: die quietly


# ---------------------------------------------------------------------------
# exploration
# ---------------------------------------------------------------------------
@dataclass
class RunRecord:
    """One explored schedule."""

    status: str                      # complete / deadlock / error
    schedule: List[Step]
    preemptions: int
    forced_prefix: Tuple[int, ...]
    digest: Optional[int] = None
    error: Optional[str] = None      # formatted traceback for errors
    error_type: Optional[str] = None
    deadlock: Optional[dict] = None

    def trace_json(self, config: Optional[dict] = None) -> dict:
        return {
            "version": TRACE_VERSION,
            "config": config or {},
            "preemptions": self.preemptions,
            "status": self.status,
            "schedule": [s.to_json() for s in self.schedule],
        }


@dataclass
class ExplorationResult:
    """Everything explore() learned about one program configuration."""

    runs: List[RunRecord] = field(default_factory=list)
    explored: int = 0
    pruned_branches: int = 0
    truncated: bool = False
    bound: int = 2

    @property
    def deadlocks(self) -> List[RunRecord]:
        return [r for r in self.runs if r.status == "deadlock"]

    @property
    def errors(self) -> List[RunRecord]:
        return [r for r in self.runs if r.status == "error"]

    @property
    def digests(self) -> Set[int]:
        return {r.digest for r in self.runs
                if r.status == "complete" and r.digest is not None}


class ModelChecker:
    """CHESS-style iterative-context-bounded exploration of one program.

    ``program`` is a callable taking the :class:`CheckerSync` backend;
    it must build its ThreadTeam with ``sync=<backend>``, run the
    workload, tear the team down, and return an integer digest of its
    observable output (or None when the program has no numeric output).
    A fresh program instance runs per schedule — the callable must be
    self-contained and deterministic given the schedule.
    """

    def __init__(
        self,
        program: Callable[[CheckerSync], Optional[int]],
        preemptions: int = 2,
        max_runs: int = 256,
        independent: Optional[Callable[[Op, Op], bool]] = None,
    ) -> None:
        self.program = program
        self.preemptions = preemptions
        self.max_runs = max_runs
        self.independent = independent

    # -- single run ----------------------------------------------------
    def _run_once(self, forced: Tuple[int, ...],
                  collect: bool = True) -> Tuple[RunRecord, Scheduler]:
        sched = Scheduler(
            preemption_bound=self.preemptions,
            forced=forced,
            independent=self.independent,
            collect_branches=collect,
        )
        sync = CheckerSync(sched)
        outcome: dict = {}

        def runner() -> None:
            try:
                outcome["digest"] = self.program(sync)
            except SystemExit:
                pass  # abandoned schedule
            except BaseException as exc:  # noqa: BLE001 - recorded verdict
                outcome["error"] = exc
                outcome["tb"] = traceback.format_exc()
            finally:
                try:
                    sched.perform(0, Op("exit", "thread-0"))
                except BaseException:
                    pass

        sched.register(0)
        thread = threading.Thread(
            target=runner, name="synccheck-runner", daemon=True
        )
        thread.start()
        status = sched.drive()
        if status == "complete":
            thread.join(timeout=10.0)
        if "error" in outcome:
            record = RunRecord(
                status="error", schedule=sched.steps,
                preemptions=sched.preemptions, forced_prefix=forced,
                error=outcome["tb"],
                error_type=type(outcome["error"]).__name__,
            )
        elif status == "deadlock":
            record = RunRecord(
                status="deadlock", schedule=sched.steps,
                preemptions=sched.preemptions, forced_prefix=forced,
                deadlock=sched.deadlock,
            )
        else:
            record = RunRecord(
                status="complete", schedule=sched.steps,
                preemptions=sched.preemptions, forced_prefix=forced,
                digest=outcome.get("digest"),
            )
        return record, sched

    # -- exploration ---------------------------------------------------
    def explore(self) -> ExplorationResult:
        result = ExplorationResult(bound=self.preemptions)
        worklist: List[Tuple[int, ...]] = [()]
        seen: Set[Tuple[int, ...]] = {()}
        while worklist:
            if result.explored >= self.max_runs:
                result.truncated = True
                break
            forced = worklist.pop()
            record, sched = self._run_once(forced)
            result.explored += 1
            result.runs.append(record)
            for step, prefix, alt in sched.branches:
                if step < len(forced):
                    continue  # enumerated by an ancestor run already
                candidate = prefix[:step] + (alt,)
                if candidate not in seen:
                    seen.add(candidate)
                    worklist.append(candidate)
        return result

    # -- deterministic replay ------------------------------------------
    def replay(self, schedule: Sequence[Step]) -> Tuple[bool, RunRecord]:
        """Re-execute a recorded schedule.  Returns (faithful, record):
        faithful when the run grants exactly the recorded steps."""
        forced = tuple(step.tid for step in schedule)
        record, _sched = self._run_once(forced, collect=False)
        return record.schedule == list(schedule), record


def schedule_from_json(steps: Sequence[Sequence]) -> List[Step]:
    """Rebuild a schedule from its ``trace_json`` serialized form."""
    return [Step(int(t), str(k), str(r)) for t, k, r in steps]
