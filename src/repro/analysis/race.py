"""Dynamic shadow-memory race detection over a whole net.

For every layer (forward) and every backward loop, the detector asks:
*if the runtime dealt this layer's chunk schedule to N threads, would
any two threads write the same memory?*  It answers by replaying each
simulated thread's chunks against an identical memory image (see
:mod:`repro.analysis.shadow`) and intersecting the recovered write
sets.  Reduction loops get fresh private gradient buffers per thread —
exactly the privatization the real runtime performs — so a layer is
flagged only when it bypasses the protocol (e.g. accumulating into the
shared parameter diff directly).

The detector is a chunk runner (:class:`_ShadowReplay`) of the walk and
layer pass bodies every executor runs, so it checks exactly the loops
the runtime executes.  It is schedule-faithful: a layer's schedule
resolves through the executor's own
:func:`repro.core.plan.layer_schedule`, and iteration ownership comes
from :func:`repro.core.parallel_net.iteration_owners`.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.analysis.footprint import analyze_classes
from repro.analysis.lint import lint_runtime
from repro.analysis.report import (
    AnalysisReport,
    DynamicReport,
    Race,
    StaticReport,
)
from repro.analysis.sources import builtin_layer_classes
from repro.analysis.shadow import (
    collect_tracked_arrays,
    owner_runs,
    thread_write_sets,
)
from repro.core.parallel_net import iteration_owners
from repro.core.plan import layer_schedule
from repro.framework.solvers.base import LayerwiseExecutor


def run_static() -> StaticReport:
    """Static pass: classify every registered layer + runtime lint."""
    classes = builtin_layer_classes()
    return StaticReport(
        layers=analyze_classes(list(classes.values())),
        runtime_findings=lint_runtime(),
    )


def _find_races(
    races: List[Race],
    layer_name: str,
    phase: str,
    tracked,
    masks: List[List[np.ndarray]],
) -> None:
    """Intersect per-thread write masks pairwise; first offending pair
    per array is reported (more pairs add noise, not information)."""
    for idx, tr in enumerate(tracked):
        found = False
        for t1 in range(len(masks)):
            if found:
                break
            for t2 in range(t1 + 1, len(masks)):
                if not masks[t1] or not masks[t2]:
                    continue
                overlap = masks[t1][idx] & masks[t2][idx]
                count = int(overlap.sum())
                if count:
                    offsets = tuple(
                        int(x) for x in np.flatnonzero(overlap)[:8]
                    )
                    races.append(Race(
                        layer=layer_name, phase=phase, array=tr.name,
                        threads=(t1, t2), overlap=count,
                        first_offsets=offsets,
                    ))
                    found = True
                    break


def _find_rebind_races(
    races: List[Race],
    layer_name: str,
    phase: str,
    rebinds,
) -> None:
    """Attributes rebound by two or more simulated threads race on the
    attribute slot itself (last writer wins)."""
    seen = set()
    for t1 in range(len(rebinds)):
        for t2 in range(t1 + 1, len(rebinds)):
            for attr in sorted(rebinds[t1] & rebinds[t2]):
                if attr in seen:
                    continue
                seen.add(attr)
                races.append(Race(
                    layer=layer_name, phase=phase,
                    array=f"attr:{layer_name}.{attr} (rebind)",
                    threads=(t1, t2), overlap=1, first_offsets=(),
                ))


class _ShadowReplay(LayerwiseExecutor):
    """The race detector as a chunk runner of the one walk.

    Every parallel loop a layer body hands over is dealt to
    ``num_threads`` simulated threads; each thread's chunks are replayed
    against one memory image (:func:`thread_write_sets`), the write sets
    intersected, and then the canonical ``loop.body(0, space, targets)``
    advances the net exactly as the sequential pass would.
    """

    def __init__(self, net_name: str, num_threads: int, plan) -> None:
        self.report = DynamicReport(net=net_name, num_threads=num_threads)
        self.num_threads = num_threads
        self.plan = plan
        self._where = None  # (net, layer index) whose pass is running

    def forward_layer(self, net, i: int, rows=None) -> float:
        self._where = net, i
        return super().forward_layer(net, i, rows)

    def backward_layer(self, net, i: int) -> None:
        self._where = net, i
        super().backward_layer(net, i)
        self.report.layers_checked.append(f"{net.layers[i].name}/backward")

    def _dispatch(self, layer_name, phase, loop) -> None:
        space, work, targets = loop.space, loop.body, loop.grad_targets
        if space <= 0:
            return
        net, i = self._where
        layer = net.layers[i]
        # unplanned layers run the static schedule (``None``)
        _, schedule = layer_schedule(self.plan, layer_name, space, None)
        runs = owner_runs(iteration_owners(space, self.num_threads, schedule))
        tracked = collect_tracked_arrays(net, layer, net.bottoms[i],
                                         net.tops[i])

        def run_chunks(tid: int) -> None:
            # reduction loops get the privatization the runtime performs
            into = ([np.zeros_like(t) for t in targets] if loop.reduction
                    else targets)
            for lo, hi, owner in runs:
                if owner == tid:
                    work(lo, hi, into)

        masks, rebinds = thread_write_sets(
            tracked, self.num_threads, run_chunks, layer=layer
        )
        _find_races(self.report.races, layer_name, phase, tracked, masks)
        _find_rebind_races(self.report.races, layer_name, phase, rebinds)
        work(0, space, targets)
        if phase == "forward":
            self.report.layers_checked.append(f"{layer_name}/forward")


def run_dynamic(
    net,
    net_name: str,
    num_threads: int,
    plan=None,
) -> DynamicReport:
    """Shadow-memory race detection over one net at one thread count,
    under the static schedule.

    ``plan`` optionally supplies a per-layer
    :class:`~repro.core.plan.ExecutionPlan`; each planned layer's chunk
    ownership is then replayed under its own thread count, granularity
    and schedule (how plancheck's acceptance tests run the FP race gate
    over planned configurations).
    """
    replay = _ShadowReplay(net_name, num_threads, plan)
    replay.forward(net)
    replay.backward(net)
    return replay.report


def run_analysis(
    nets: Sequence[Tuple[str, Callable[[], object]]] = (),
    threads: Sequence[int] = (2,),
) -> AnalysisReport:
    """Full analysis: one static pass, one dynamic run per (net, T).

    ``nets`` is a sequence of ``(name, factory)`` pairs; the factory
    builds a fresh net so successive thread counts replay the same
    initial state.
    """
    static_report = run_static()
    dynamic: List[DynamicReport] = []
    for name, factory in nets:
        for num_threads in threads:
            net = factory()
            dynamic.append(run_dynamic(net, name, num_threads))
    return AnalysisReport(static=static_report, dynamic=dynamic)
