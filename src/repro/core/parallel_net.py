"""ParallelExecutor: coarse-grain parallel forward/backward for any Net.

This is the paper's transformation applied end to end.  The net is
walked layer by layer exactly as the sequential executor walks it (the
passes themselves are inherently sequential — Algorithm 1), through the
same per-layer pass bodies; *within* each layer's loops the executor's
chunk runner distributes the coalesced iteration space over the thread
team (Algorithm 4 for forward, Algorithm 5 for backward).  It is
**network-agnostic**: it touches only the outer loops, never the layer's
computation.

Gradient reductions honour the configured mode:

* ``"ordered"`` (paper default) — one private buffer per thread, merged
  via the team's ordered construct in thread-id order.  Deterministic for
  a fixed thread count; bitwise equal to the sequential pass at 1 thread.
* ``"atomic"`` — merged under the critical lock in completion order
  (the paper's "reduction-based solution": values agree only up to
  floating-point reassociation).
* ``"tree"`` — per-thread buffers combined pairwise by the master after
  the loop; deterministic per thread count.
* ``"blockwise"`` — accumulation in fixed sample blocks, merged in block
  order through a bounded window of block buffers; **bitwise identical
  for every thread count**, which makes the whole training trajectory
  thread-count invariant (the strongest reading of the paper's
  convergence-invariance claim; see DESIGN.md).

Usage::

    executor = ParallelExecutor(num_threads=8, reduction="ordered")
    solver = SGDSolver(params, net, executor=executor)
    solver.step(100)
    executor.close()
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.plan import ExecutionPlan, PlannedSchedule, layer_schedule
from repro.core.privatization import PrivatePool
from repro.core.reduction import (
    REDUCTION_MODES,
    TIER_ORDER,
    add_into,
    invariance_tier,
    tree_combine,
)
from repro.core.scheduling import Schedule, StaticSchedule, make_schedule
from repro.core.team import RegionContext, ThreadTeam, WorkerError
from repro.framework.layer import LoopSpec
from repro.framework.solvers.base import LayerwiseExecutor


def iteration_owners(
    space: int, num_threads: int, schedule: Optional[Schedule] = None
) -> np.ndarray:
    """Owner thread of every coalesced iteration, ``shape (space,)``.

    For static schedules this is exactly the runtime's chunk plan.  For
    dynamic/guided schedules real ownership depends on timing; the
    returned tagging is the *simulated* one used by the race detector —
    chunks are dealt to threads round-robin in dispatch order, which is a
    legal (and for overlap purposes representative) assignment.
    """
    if space < 0:
        raise ValueError(f"space must be non-negative, got {space}")
    if num_threads < 1:
        raise ValueError(f"num_threads must be >= 1, got {num_threads}")
    schedule = schedule or StaticSchedule()
    owners = np.full(space, -1, dtype=np.int32)
    if schedule.is_static:
        for tid, chunks in enumerate(schedule.plan(space, num_threads)):
            for lo, hi in chunks:
                owners[lo:hi] = tid
    else:
        server = schedule.chunk_server(space, num_threads)
        index = 0
        while (chunk := server.next_chunk()) is not None:
            owners[chunk[0]:chunk[1]] = index % num_threads
            index += 1
    return owners


#: Executor settings a bound loop is resolved from (``_dispatch``).
_BINDING_INPUTS = frozenset({"schedule", "reduction", "team", "plan"})

#: Block buffers alive at once in the ``"blockwise"`` reduction: bounds its
#: extra memory to ``BLOCK_WINDOW x (largest layer's coefficient bytes)``.
BLOCK_WINDOW = 8


class ParallelExecutor(LayerwiseExecutor):
    """Drives a framework :class:`~repro.framework.net.Net` with
    batch-level parallelism.

    The walk and every layer's pass body are the ones the sequential
    executor runs (:class:`~repro.framework.solvers.base.LayerwiseExecutor`,
    :meth:`~repro.framework.layer.Layer.forward`); this executor is only
    their chunk runner, :meth:`_dispatch`, which cuts each loop's
    ``[0, space)`` over the thread team and merges private gradients.

    Parameters
    ----------
    num_threads:
        Team size (1 = sequential semantics through the same code path).
    schedule:
        Loop schedule; defaults to OpenMP static, the paper's choice.
    reduction:
        One of :data:`~repro.core.reduction.REDUCTION_MODES`.
    team:
        Optionally share an existing :class:`ThreadTeam`.
    plan:
        Optional per-layer :class:`~repro.core.plan.ExecutionPlan`
        (typically produced by ``repro.analysis plancheck``).  Layers
        with a plan entry run with their own thread count, chunk
        granularity, schedule and reduction mode; a single-thread entry
        executes inline on the master with no parallel region (bitwise
        equal to the sequential pass).  Layers without an entry fall
        back to the executor-wide settings above.
    """

    def __init__(
        self,
        num_threads: int = 1,
        schedule: Optional[Schedule] = None,
        reduction: str = "ordered",
        team: Optional[ThreadTeam] = None,
        plan: Optional[ExecutionPlan] = None,
    ) -> None:
        if team is None and num_threads < 1:
            raise ValueError(
                f"ParallelExecutor needs num_threads >= 1, got {num_threads} "
                "(a team of zero threads cannot execute any chunk)"
            )
        if reduction not in REDUCTION_MODES:
            raise ValueError(
                f"unknown reduction mode {reduction!r}; expected one of "
                f"{REDUCTION_MODES}"
            )
        if reduction == "ordered" and schedule is not None and not schedule.is_static:
            raise ValueError(
                "the ordered reduction requires a static schedule to be "
                "deterministic; use reduction='atomic' with dynamic/guided"
            )
        self.schedule = schedule or StaticSchedule()
        self.reduction = reduction
        self._own_team = team is None
        self.team = team or ThreadTeam(num_threads)
        self.pool = PrivatePool()
        self.plan = plan

    @property
    def num_threads(self) -> int:
        return self.team.num_threads

    @property
    def invariance_tier(self) -> str:
        """Strongest invariance tier this configuration can promise
        (see :mod:`repro.core.reduction`); the determinism certifier
        verifies the promise dynamically.

        With a per-layer plan the promise is the weakest tier across
        the executor-wide settings and every planned layer (layers
        without a plan entry run with the executor-wide settings, so
        those stay in the minimum).
        """
        base = invariance_tier(self.reduction, self.schedule.is_static)
        if self.plan is None:
            return base
        rank = TIER_ORDER[base]
        for layer_plan in self.plan.layers.values():
            layer_tier = layer_plan.tier(
                self.reduction, self.schedule.is_static
            )
            rank = min(rank, TIER_ORDER[layer_tier])
        by_rank = {v: k for k, v in TIER_ORDER.items()}
        return by_rank[rank]

    def __setattr__(self, name: str, value) -> None:
        # Assigning a setting a bound loop was resolved from drops them
        # all (see _dispatch).
        object.__setattr__(self, name, value)
        if name in _BINDING_INPUTS:
            object.__setattr__(self, "_bound", {})

    # ------------------------------------------------------------------
    # dispatch: the chunk runner every layer body calls (Algorithms 4, 5)
    # ------------------------------------------------------------------
    def _dispatch(self, layer_name: str, phase: str, loop: LoopSpec) -> None:
        """Run ``loop`` over ``[0, loop.space)`` as the layer's plan (or
        the executor-wide settings) prescribes.

        Without ``loop.reduction`` every chunk gets ``loop.grad_targets``
        itself (chunks write disjoint regions).  With it, chunks
        accumulate into private buffers that the layer's reduction mode
        merges into the targets.  How a loop runs is resolved once per
        ``(layer, phase, space, reduction, block)`` by :meth:`_bind`
        and kept until one of the executor's settings is assigned.
        """
        key = (layer_name, phase, loop.space, loop.reduction, loop.block)
        run = self._bound.get(key)
        if run is None:
            run = self._bound[key] = self._bind(*key)
        try:
            run(loop.body, loop.grad_targets)
        except WorkerError as exc:
            # Chunk-failure reporting: name the layer/phase whose region
            # failed before the error unwinds to the solver.
            exc.layer = layer_name
            exc.phase = phase
            raise

    def _bind(self, layer_name: str, phase: str, space: int,
              reduction: bool, block: int
              ) -> Callable[[Callable, Sequence[np.ndarray]], None]:
        """``run(work, targets)`` for one loop shape: the plan entry and
        schedule (:func:`~repro.core.plan.layer_schedule`), the reduction
        mode and the runner — inline, ``team.parallel_for``, blockwise
        or per-thread — chosen here, once.  ``run`` still looks up
        ``team.parallel_for`` on every call, so a wrapper installed on
        the team later sees every region."""
        if space <= 0:
            raise ValueError(
                f"layer {layer_name!r} has an empty coalesced {phase} space "
                f"({space}); an empty iteration space has no chunk to "
                "dispatch — check its batch size / bottom shapes"
            )
        team = self.team
        layer_plan, schedule = layer_schedule(
            self.plan, layer_name, space, self.schedule)
        mode = None
        if reduction:
            mode = self.reduction
            if layer_plan is not None and layer_plan.reduction is not None:
                mode = layer_plan.reduction
        # One call over the whole space, straight into the shared targets
        # — exactly the sequential pass — on a planned single-thread layer
        # (no region, no fork/join) and for a per-thread merge with one
        # thread.  Blockwise is exempt: its block boundaries, hence its
        # summation order, must not depend on the thread count.
        if (layer_plan is not None and layer_plan.threads <= 1) or (
            mode in ("ordered", "atomic", "tree") and team.num_threads == 1
        ):
            def inline(work, targets) -> None:
                work(0, space, targets)
            return inline
        if mode is None:
            def region(work, targets) -> None:
                team.parallel_for(
                    space, lambda lo, hi, tid: work(lo, hi, targets),
                    schedule)
            return region
        if mode == "blockwise":
            # The window loop distributes *block indices*, not civ
            # iterations, so a plan's civ granularity must not rescale
            # its chunks — keep the thread limit only.
            if layer_plan is not None:
                schedule = PlannedSchedule(
                    make_schedule(layer_plan.schedule), layer_plan.threads
                )
            block = max(block, 1)

            def blockwise(work, targets) -> None:
                self._blockwise(space, block, work, targets, schedule)
            return blockwise

        def per_thread(work, targets) -> None:
            self._per_thread(space, work, targets, schedule, mode)
        return per_thread

    def _per_thread(self, space, work, targets, schedule, mode: str) -> None:
        """Algorithm 5: every thread accumulates its chunks into a private
        buffer, then the buffers are merged — in thread-id order
        (``ordered``), under the critical lock in completion order
        (``atomic``), or pairwise by the master after the region
        (``tree``)."""
        team = self.team
        sizes = [t.size for t in targets]
        chunks_of = schedule.chunks_of(space, team.num_threads)
        private: List[List[np.ndarray]] = [None] * team.num_threads  # type: ignore

        def region(ctx: RegionContext) -> None:
            tid = ctx.thread_id
            grads = private[tid] = self.pool.request(tid, sizes)
            for lo, hi in chunks_of(tid):
                work(lo, hi, grads)
            if mode == "ordered":
                ctx.ordered(lambda: add_into(targets, grads))
            elif mode == "atomic":
                ctx.critical(lambda: add_into(targets, grads))

        team.parallel(region)
        if mode == "tree":
            add_into(targets, tree_combine(private))

    def _blockwise(self, space, block: int, work, targets, schedule) -> None:
        """Fixed-block accumulation: bitwise thread-count invariant.

        The space is cut at multiples of ``block`` (block boundaries
        never depend on the thread count); a window of blocks is computed
        in parallel — one private buffer per block — then merged in block
        order by the master.  Memory is bounded by
        ``BLOCK_WINDOW x sum(target sizes)``.
        """
        nblocks = -(-space // block)
        sizes = [t.size for t in targets]
        for first in range(0, nblocks, BLOCK_WINDOW):
            count = min(BLOCK_WINDOW, nblocks - first)
            buffers = [self.pool.request(slot, sizes) for slot in range(count)]

            def window_body(b_lo: int, b_hi: int, tid: int) -> None:
                for rel in range(b_lo, b_hi):
                    lo = (first + rel) * block
                    work(lo, min(lo + block, space), buffers[rel])

            self.team.parallel_for(count, window_body, schedule)
            for buffer in buffers:  # fixed block order
                add_into(targets, buffer)

    # ------------------------------------------------------------------
    # memory accounting & lifecycle
    # ------------------------------------------------------------------
    @property
    def privatization_high_water_bytes(self) -> int:
        """Extra memory attributable to privatization (Section 3.2.1)."""
        return self.pool.high_water_bytes

    def close(self) -> None:
        """Shut the thread team down (if owned) and drop pool storage."""
        if self._own_team:
            self.team.shutdown()
        self.pool.clear()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
