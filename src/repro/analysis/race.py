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

The check is schedule-faithful: iteration ownership comes from
:func:`repro.core.parallel_net.iteration_owners`, the same plan the
executor uses.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

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
    ShadowTracker,
    collect_tracked_arrays,
    owner_runs,
    thread_write_sets,
)


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


def run_dynamic(
    net,
    net_name: str,
    num_threads: int,
    schedule=None,
    plan=None,
) -> DynamicReport:
    """Shadow-memory race detection over one net at one thread count.

    ``plan`` optionally supplies a per-layer
    :class:`~repro.core.plan.ExecutionPlan`; each planned layer's chunk
    ownership is then replayed under its own thread count, granularity
    and schedule instead of the uniform ``schedule`` (how plancheck's
    acceptance tests run the FP race gate over planned configurations).
    """
    from repro.core.parallel_net import iteration_owners
    from repro.core.plan import plan_schedule_for

    def layer_schedule(layer_name: str, space: int):
        if plan is not None:
            layer_plan = plan.for_layer(layer_name)
            if layer_plan is not None:
                return plan_schedule_for(layer_plan, space)
        return schedule

    report = DynamicReport(net=net_name, num_threads=num_threads)
    tracker = ShadowTracker()

    # ---- forward, layer by layer, advancing canonical state ----
    for layer, bottom, top in zip(net.layers, net.bottoms, net.tops):
        layer.reshape(bottom, top)
        space = layer.forward_space(bottom, top)
        if space <= 0:
            continue
        owners = iteration_owners(
            space, num_threads, layer_schedule(layer.name, space)
        )
        runs = owner_runs(owners)
        tracked = collect_tracked_arrays(net, layer, bottom, top)

        def run_chunks(tid: int, layer=layer, bottom=bottom, top=top,
                       runs=runs) -> None:
            for lo, hi, owner in runs:
                if owner == tid:
                    layer.forward_chunk(bottom, top, lo, hi)

        masks, rebinds = thread_write_sets(
            tracked, num_threads, run_chunks, tracker, layer=layer
        )
        _find_races(report.races, layer.name, "forward", tracked, masks)
        _find_rebind_races(report.races, layer.name, "forward", rebinds)
        layer.forward_chunk(bottom, top, 0, space)
        layer.forward_finalize(bottom, top)
        report.layers_checked.append(f"{layer.name}/forward")

    # ---- backward, reverse order, loop by loop ----
    net._seed_loss_diffs()
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if not any(net.bottom_need_backward[i]) and not layer.blobs:
            continue
        top = net.tops[i]
        bottom = net.bottoms[i]
        propagate_down = net.bottom_need_backward[i]
        for loop in layer.backward_loops(top, propagate_down, bottom):
            if loop.space <= 0:
                continue
            owners = iteration_owners(
                loop.space, num_threads,
                layer_schedule(layer.name, loop.space),
            )
            runs = owner_runs(owners)
            tracked = collect_tracked_arrays(net, layer, bottom, top)

            def run_chunks(tid: int, loop=loop, runs=runs) -> None:
                if loop.reduction:
                    # the privatization the real runtime performs
                    grads = [np.zeros_like(t) for t in loop.grad_targets]
                else:
                    grads = list(loop.grad_targets)
                for lo, hi, owner in runs:
                    if owner == tid:
                        loop.body(lo, hi, grads)

            masks, rebinds = thread_write_sets(
                tracked, num_threads, run_chunks, tracker, layer=layer
            )
            _find_races(report.races, layer.name, "backward", tracked, masks)
            _find_rebind_races(report.races, layer.name, "backward", rebinds)
            loop.body(0, loop.space, loop.grad_targets)
        report.layers_checked.append(f"{layer.name}/backward")
    return report


def run_analysis(
    nets: Sequence[Tuple[str, Callable[[], object]]] = (),
    threads: Sequence[int] = (2,),
    static: bool = True,
) -> AnalysisReport:
    """Full analysis: one static pass, one dynamic run per (net, T).

    ``nets`` is a sequence of ``(name, factory)`` pairs; the factory
    builds a fresh net so successive thread counts replay the same
    initial state.
    """
    static_report = run_static() if static else StaticReport()
    dynamic: List[DynamicReport] = []
    for name, factory in nets:
        for num_threads in threads:
            net = factory()
            dynamic.append(run_dynamic(net, name, num_threads))
    return AnalysisReport(static=static_report, dynamic=dynamic)
