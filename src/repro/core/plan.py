"""Per-layer execution plans: the runtime artifact behind plancheck.

The paper parallelizes every layer identically — one global thread
count, schedule and reduction mode.  An :class:`ExecutionPlan` lifts
those choices to *per-layer* resolution: for each layer it records how
many threads to use, which prefix of the coalesced dims to distribute
(the rest are folded into a chunk *granularity*), which loop schedule to
run, and which reduction mode to merge gradients with.  Plans are plain
data — JSON-serializable, diffable, lintable (see
:mod:`repro.analysis.plancheck` for the PL lint family) — and the
:class:`~repro.core.parallel_net.ParallelExecutor` consumes them
directly.

Two runtime pieces live here because the core must not depend on the
analysis package:

* :class:`PlannedSchedule` — adapts a per-layer ``(schedule, threads,
  granularity)`` choice to the team-wide :class:`Schedule` protocol.
  A layer planned at ``t`` threads on a ``T``-thread team yields chunk
  plans in which only ``t`` threads receive work; chunk boundaries are
  multiples of the granularity, so coalescing a dim *prefix* keeps every
  chunk a whole number of inner iteration blocks.
* :func:`plan_drift` — load-time validation of a plan against the live
  net it is about to drive (the PL101+ codes).  Static lint runs at plan
  *construction* time in the analysis package; drift checks run at plan
  *use* time, because the net in front of the executor may not be the
  net the plan was derived from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.reduction import (
    BITWISE_INVARIANT,
    REDUCTION_MODES,
    invariance_tier,
)
from repro.core.scheduling import Chunk, ChunkServer, Schedule, make_schedule

PLAN_FORMAT = "repro-plan/1"

_REQUIRED = object()


def _field(data, key: str, kinds, where: str, default=_REQUIRED):
    """``data[key]`` (``default`` when absent) if it is one of ``kinds``;
    a ``ValueError`` naming the field otherwise."""
    if not isinstance(data, dict):
        raise ValueError(
            f"{where} must be a JSON object, got {type(data).__name__}")
    if key not in data and default is not _REQUIRED:
        return default
    value = data.get(key, _REQUIRED)
    if isinstance(value, kinds) and not isinstance(value, bool):
        return value
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    raise ValueError(
        f"{where}: field {key!r} must be "
        f"{' or '.join(kind.__name__ for kind in kinds)}, got "
        f"{'nothing' if value is _REQUIRED else repr(value)}")


@dataclass(frozen=True)
class LayerPlan:
    """Execution strategy for one layer.

    ``dims`` is the layer's coalesced iteration-space factorization as
    ``(name, extent)`` pairs, e.g. ``(("sample", 64), ("channel", 20))``;
    ``coalesced`` says how many *leading* dims are distributed over
    threads.  The trailing dims are folded into ``granularity`` — the
    number of native civ iterations per distributable unit — so chunk
    boundaries always fall on whole inner blocks.  ``space`` records the
    coalesced forward space the plan was derived from; the executor uses
    it to detect drift (PL102) and to decide whether the granularity is
    safe to apply.
    """

    layer: str
    threads: int
    granularity: int = 1
    schedule: str = "static"
    reduction: Optional[str] = None  # None -> executor's global mode
    space: int = 0
    dims: Tuple[Tuple[str, int], ...] = ()
    coalesced: int = 0

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(
                f"layer {self.layer!r}: plan threads must be >= 1, "
                f"got {self.threads}"
            )
        if self.granularity < 1:
            raise ValueError(
                f"layer {self.layer!r}: granularity must be >= 1, "
                f"got {self.granularity}"
            )
        if self.reduction is not None and self.reduction not in REDUCTION_MODES:
            raise ValueError(
                f"layer {self.layer!r}: unknown reduction "
                f"{self.reduction!r}; expected one of {REDUCTION_MODES}"
            )
        try:
            make_schedule(self.schedule)
        except ValueError as exc:
            raise ValueError(f"layer {self.layer!r}: {exc}") from None

    def tier(self, base_mode: str, base_static: bool) -> str:
        """Invariance tier this layer's strategy delivers.

        A single-thread layer executes inline on the master — bitwise
        equal to the sequential pass regardless of merge mode.
        """
        if self.threads <= 1:
            return BITWISE_INVARIANT
        mode = self.reduction if self.reduction is not None else base_mode
        static = make_schedule(self.schedule).is_static
        return invariance_tier(mode, static)

    def to_json(self) -> Dict:
        return {
            "layer": self.layer,
            "threads": self.threads,
            "granularity": self.granularity,
            "schedule": self.schedule,
            "reduction": self.reduction,
            "space": self.space,
            "dims": [[name, extent] for name, extent in self.dims],
            "coalesced": self.coalesced,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "LayerPlan":
        where = f"layer {_field(data, 'layer', str, 'plan layer entry')!r}"
        dims = _field(data, "dims", list, where, [])
        if not all(isinstance(pair, list) and len(pair) == 2
                   and isinstance(pair[0], str) and type(pair[1]) is int
                   for pair in dims):
            raise ValueError(f"{where}: field 'dims' must be [name, extent] "
                             f"pairs, got {dims!r}")
        return cls(
            layer=data["layer"],
            threads=_field(data, "threads", int, where),
            granularity=_field(data, "granularity", int, where, 1),
            schedule=_field(data, "schedule", str, where, "static"),
            reduction=_field(data, "reduction", (str, type(None)), where,
                             None),
            space=_field(data, "space", int, where, 0),
            dims=tuple((name, extent) for name, extent in dims),
            coalesced=_field(data, "coalesced", int, where, 0),
        )


@dataclass
class ExecutionPlan:
    """A complete per-layer strategy for one net at one team size."""

    net: str
    batch: int
    team_threads: int
    tier: str  # claimed invariance tier for the whole planned run
    phase: str = "TRAIN"
    layers: Dict[str, LayerPlan] = field(default_factory=dict)
    predicted_us: float = 0.0  # cost-model time for this plan
    uniform_us: float = 0.0  # cost-model time for the uniform baseline

    def for_layer(self, name: str) -> Optional[LayerPlan]:
        return self.layers.get(name)

    def add(self, layer_plan: LayerPlan) -> None:
        self.layers[layer_plan.layer] = layer_plan

    def with_layer(self, layer_plan: LayerPlan) -> "ExecutionPlan":
        """Copy of this plan with one layer's entry replaced (tests)."""
        layers = dict(self.layers)
        layers[layer_plan.layer] = layer_plan
        return replace(self, layers=layers)

    def to_json(self) -> Dict:
        return {
            "format": PLAN_FORMAT,
            "net": self.net,
            "batch": self.batch,
            "phase": self.phase,
            "team_threads": self.team_threads,
            "tier": self.tier,
            "predicted_us": self.predicted_us,
            "uniform_us": self.uniform_us,
            "layers": [
                self.layers[name].to_json() for name in self.layers
            ],
        }

    @classmethod
    def from_json(cls, data: Dict) -> "ExecutionPlan":
        fmt = _field(data, "format", str, "an execution plan", None)
        if fmt != PLAN_FORMAT:
            raise ValueError(
                f"not an execution plan (format {fmt!r}, "
                f"expected {PLAN_FORMAT!r})"
            )
        where = "plan"
        plan = cls(
            net=_field(data, "net", str, where),
            batch=_field(data, "batch", int, where),
            phase=_field(data, "phase", str, where, "TRAIN"),
            team_threads=_field(data, "team_threads", int, where),
            tier=_field(data, "tier", str, where),
            predicted_us=float(
                _field(data, "predicted_us", (int, float), where, 0.0)),
            uniform_us=float(
                _field(data, "uniform_us", (int, float), where, 0.0)),
        )
        for entry in _field(data, "layers", list, where, []):
            plan.add(LayerPlan.from_json(entry))
        return plan

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "ExecutionPlan":
        with open(path) as handle:
            return cls.from_json(json.load(handle))

    def summary_lines(self) -> List[str]:
        lines = [
            f"plan for {self.net} (batch {self.batch}, "
            f"{self.team_threads}-thread team, tier {self.tier})",
            f"  predicted {self.predicted_us:.1f}us vs uniform "
            f"{self.uniform_us:.1f}us",
        ]
        for name, lp in self.layers.items():
            dims = "x".join(f"{n}:{e}" for n, e in lp.dims) or "?"
            mode = lp.reduction or "-"
            lines.append(
                f"  {name:<12} t={lp.threads} g={lp.granularity} "
                f"{lp.schedule} {mode} [{dims}|{lp.coalesced}]"
            )
        return lines


class PlannedSchedule(Schedule):
    """Adapter: run one layer's plan on the full team.

    Wraps a base schedule with a thread limit and a chunk granularity.
    The distributable space is ``ceil(space / granularity)`` *units*;
    the base schedule partitions units over ``min(threads, team)``
    threads, and unit chunks are scaled back to native iterations
    (clamped at ``space`` for the ragged tail).  Team threads beyond the
    limit receive empty chunk lists — they still join barriers and
    ordered turns, so the team protocol is undisturbed.
    """

    def __init__(
        self, base: Schedule, threads: int, granularity: int = 1
    ) -> None:
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        if granularity < 1:
            raise ValueError(f"granularity must be >= 1, got {granularity}")
        self.base = base
        self.threads = threads
        self.granularity = granularity
        self.is_static = base.is_static

    def _units(self, space: int) -> int:
        return -(-space // self.granularity)

    def _scale(self, chunk: Chunk, space: int) -> Chunk:
        g = self.granularity
        return (chunk[0] * g, min(chunk[1] * g, space))

    def plan(self, space: int, num_threads: int) -> List[List[Chunk]]:
        active = min(self.threads, num_threads)
        base_plan = self.base.plan(self._units(space), active)
        scaled = [
            [self._scale(chunk, space) for chunk in chunks]
            for chunks in base_plan
        ]
        scaled.extend([] for _ in range(num_threads - active))
        return scaled

    def chunk_server(self, space: int, num_threads: int) -> ChunkServer:
        active = min(self.threads, num_threads)
        server = self.base.chunk_server(self._units(space), active)

        def chunks():
            while (chunk := server.next_chunk()) is not None:
                yield self._scale(chunk, space)

        return ChunkServer(chunks())

    def describe(self) -> str:
        return (
            f"planned({self.base.describe()},t={self.threads},"
            f"g={self.granularity})"
        )


def plan_schedule_for(layer_plan: LayerPlan, space: int) -> PlannedSchedule:
    """Build the runtime schedule for one layer.

    The granularity is only meaningful against the iteration space the
    plan was derived from; if the live space differs (drift — flagged as
    PL102 by :func:`plan_drift`) the granularity falls back to 1 so the
    run stays correct even when the plan is stale.
    """
    granularity = (
        layer_plan.granularity if layer_plan.space == space else 1
    )
    return PlannedSchedule(
        make_schedule(layer_plan.schedule), layer_plan.threads, granularity
    )


def layer_schedule(
    plan: Optional[ExecutionPlan], layer_name: str, space: int,
    default: Optional[Schedule],
) -> Tuple[Optional[LayerPlan], Optional[Schedule]]:
    """A layer's plan entry (``None`` without a plan or an entry) and
    the schedule its ``space``-iteration loop is dealt by:
    :func:`plan_schedule_for` of the entry, else ``default``.  The
    executor's dispatch and the race replay both resolve through here."""
    layer_plan = None if plan is None else plan.for_layer(layer_name)
    if layer_plan is None:
        return None, default
    return layer_plan, plan_schedule_for(layer_plan, space)


def plan_drift(
    plan: ExecutionPlan, net, num_threads: int
) -> List[Tuple[str, str, str]]:
    """Validate a plan against the live net it is about to drive.

    Returns ``(code, layer, message)`` tuples; the analysis package wraps
    them into :class:`~repro.analysis.report.Finding` objects.  Codes:

    * ``PL101`` — plan was derived for a different net.
    * ``PL102`` — a layer's recorded iteration space drifted from the
      live layer's actual coalesced forward space.
    * ``PL103`` — a layer plan wants more threads than the team has.
    * ``PL104`` — a parallelizable live layer has no plan entry and will
      fall back to the executor's uniform strategy.
    """
    issues: List[Tuple[str, str, str]] = []
    net_name = getattr(net, "name", "")
    if plan.net and net_name and plan.net != net_name:
        issues.append((
            "PL101", "",
            f"plan was derived for net {plan.net!r} but is loaded "
            f"against {net_name!r}",
        ))
    live_names = set()
    for layer, bottom, top in zip(net.layers, net.bottoms, net.tops):
        live_names.add(layer.name)
        lp = plan.for_layer(layer.name)
        layer.reshape(bottom, top)
        space = layer.forward_space(bottom, top)
        if lp is None:
            if space > 1:
                issues.append((
                    "PL104", layer.name,
                    f"parallelizable layer (space {space}) has no plan "
                    "entry; it will run with the uniform strategy",
                ))
            continue
        if lp.space and lp.space != space:
            issues.append((
                "PL102", layer.name,
                f"plan recorded iteration space {lp.space} but the live "
                f"layer coalesces to {space}; granularity "
                f"{lp.granularity} will be ignored",
            ))
        if lp.threads > num_threads:
            issues.append((
                "PL103", layer.name,
                f"plan wants {lp.threads} threads but the executor team "
                f"has {num_threads}",
            ))
    for name in plan.layers:
        if name not in live_names:
            issues.append((
                "PL101", name,
                f"plan entry {name!r} matches no layer in net "
                f"{net_name!r}",
            ))
    return issues


def uniform_plan(
    net_name: str,
    batch: int,
    threads: int,
    reduction: str,
    layer_spaces: Sequence[Tuple[str, int]],
    schedule: str = "static",
    phase: str = "TRAIN",
) -> ExecutionPlan:
    """The paper's one-global-choice strategy expressed as a plan.

    Used as the search baseline (PL005 compares against it) and handy in
    tests; every layer gets the same threads/schedule/reduction.
    """
    static = make_schedule(schedule).is_static
    tier = (
        BITWISE_INVARIANT if threads <= 1
        else invariance_tier(reduction, static)
    )
    plan = ExecutionPlan(
        net=net_name, batch=batch, team_threads=threads, tier=tier,
        phase=phase,
    )
    for name, space in layer_spaces:
        plan.add(LayerPlan(
            layer=name, threads=threads, granularity=1,
            schedule=schedule, reduction=reduction, space=space,
            dims=(("iteration", space),), coalesced=1,
        ))
    return plan
