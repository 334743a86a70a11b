"""Net-graph static checker: shape inference, linting, schedule planning.

``netcheck`` answers, from a :class:`~repro.framework.net_spec.NetSpec`
alone — no layer instantiation, no blob allocation, no data source
rendering — the three questions a developer otherwise needs a full net
build (or a crashed training run) to answer:

1. **Shapes** — what shape and dtype does every blob have?  Propagated
   through the per-layer inference rules registered alongside the layer
   zoo (:mod:`repro.framework.shape_inference`), over the same
   phase-filtered, split-inserted graph the real
   :class:`~repro.framework.net.Net` builds, so names and shapes match
   ``Net.blob_map`` exactly.

2. **Lint** — is the graph well formed?  Findings carry stable codes:

   ========  ========  ====================================================
   code      severity  meaning
   ========  ========  ====================================================
   NG001     error     bottom shapes incompatible with the layer's params
   NG002     error     in-place top violates the chunk-write protocol
   NG003     warning   dead blob: produced but never consumed
   NG004     error     duplicate producers: a later layer silently
                       shadows an earlier layer's top of the same name
   NG005     warning   conv/pool pad-stride geometry drops or skips pixels
   NG006     error     net input declared without an input shape
   NG007     error     unknown layer type (no registered inference rule)
   NG008     error     dangling bottom: consumed but never produced
   NG009     error     duplicate layer name within one phase
   ========  ========  ====================================================

3. **Plan** — how would the coarse-grain runtime run it?  Per-layer
   coalesced iteration-space sizes, the per-thread chunk split and
   imbalance under static scheduling at each requested thread count
   (computed with the runtime's own
   :class:`~repro.core.scheduling.StaticSchedule`, so the prediction *is*
   the schedule), FLOP counts from
   :func:`repro.simulator.cost_model.costs_of`, and static memory
   accounting (parameters, resident activations, and a liveness-based
   peak for inference-style execution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import ERROR, WARNING, Finding
from repro.core.scheduling import StaticSchedule
from repro.framework.layer import runs_sequential
from repro.framework.net_spec import LayerSpec, NetSpec
from repro.framework.shape_inference import (
    NOTE_DROPPED_PIXELS,
    NOTE_SKIPPED_PIXELS,
    shape_rule_for,
)
from repro.framework.symbolic import SymbolicNet, infer_net
from repro.simulator.cost_model import BYTES, LayerCost, costs_of

#: Lint codes (see module docstring for the full table).
NG_SHAPE_MISMATCH = "NG001"
NG_ILLEGAL_INPLACE = "NG002"
NG_DEAD_BLOB = "NG003"
NG_DUPLICATE_PRODUCER = "NG004"
NG_LOSSY_GEOMETRY = "NG005"
NG_INPUT_WITHOUT_SHAPE = "NG006"
NG_UNKNOWN_TYPE = "NG007"
NG_DANGLING_BOTTOM = "NG008"
NG_DUPLICATE_NAME = "NG009"


# ---------------------------------------------------------------------------
# report model
# ---------------------------------------------------------------------------
@dataclass
class LayerWork:
    """Static work summary for one layer of the split-inserted graph."""

    name: str
    type: str
    space: int                 # coalesced forward iteration count
    sequential: bool
    flops_forward: float
    flops_backward: float
    param_count: int
    top_shapes: List[Tuple[int, ...]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "type": self.type,
            "space": self.space,
            "sequential": self.sequential,
            "flops_forward": self.flops_forward,
            "flops_backward": self.flops_backward,
            "param_count": self.param_count,
            "top_shapes": [list(s) for s in self.top_shapes],
        }


@dataclass
class LayerSchedulePlan:
    """Predicted static-schedule split of one layer at one thread count."""

    name: str
    type: str
    space: int
    sequential: bool
    per_thread: List[int]      # iterations owned by each thread
    imbalance: float           # max_per_thread / (space / T); 1.0 = even

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "type": self.type,
            "space": self.space,
            "sequential": self.sequential,
            "per_thread": list(self.per_thread),
            "imbalance": self.imbalance,
        }


@dataclass
class SchedulePlan:
    """All layers' chunk splits at one thread count."""

    num_threads: int
    layers: List[LayerSchedulePlan] = field(default_factory=list)

    @property
    def max_imbalance(self) -> float:
        parallel = [l.imbalance for l in self.layers if not l.sequential]
        return max(parallel, default=1.0)

    def to_json(self) -> dict:
        return {
            "num_threads": self.num_threads,
            "max_imbalance": self.max_imbalance,
            "layers": [l.to_json() for l in self.layers],
        }


@dataclass
class MemoryPlan:
    """Static memory accounting (bytes, single precision)."""

    param_bytes: int = 0
    #: All activation blobs resident at once — the runtime's behaviour
    #: (Net keeps every blob allocated for the backward pass).
    activation_bytes: int = 0
    #: Liveness-based peak: a blob is freed after its last forward
    #: consumer — the floor an inference-only executor could reach.
    peak_activation_bytes: int = 0

    def to_json(self) -> dict:
        return {
            "param_bytes": self.param_bytes,
            "activation_bytes": self.activation_bytes,
            "peak_activation_bytes": self.peak_activation_bytes,
        }


@dataclass
class NetcheckReport:
    """Full netcheck result for one (net, phase)."""

    net: str
    phase: str
    batch: Optional[int] = None
    findings: List[Finding] = field(default_factory=list)
    #: blob name -> shape over the split-inserted graph (matches the
    #: instantiated net's ``blob_map`` when inference fully succeeds).
    shapes: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    layers: List[LayerWork] = field(default_factory=list)
    plans: List[SchedulePlan] = field(default_factory=list)
    memory: MemoryPlan = field(default_factory=MemoryPlan)
    #: The inference the report was built from, for callers that go on to
    #: cost or plan the same spec (None when the graph could not be walked).
    sym: Optional[SymbolicNet] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return not any(f.severity == ERROR for f in self.findings)

    @property
    def total_flops_forward(self) -> float:
        return sum(l.flops_forward for l in self.layers)

    @property
    def total_flops_backward(self) -> float:
        return sum(l.flops_backward for l in self.layers)

    def to_json(self) -> dict:
        return {
            "net": self.net,
            "phase": self.phase,
            "batch": self.batch,
            "ok": self.ok,
            "findings": [f.to_json() for f in self.findings],
            "shapes": {k: list(v) for k, v in sorted(self.shapes.items())},
            "layers": [l.to_json() for l in self.layers],
            "total_flops_forward": self.total_flops_forward,
            "total_flops_backward": self.total_flops_backward,
            "plans": [p.to_json() for p in self.plans],
            "memory": self.memory.to_json(),
        }

    def summary_lines(self) -> List[str]:
        lines: List[str] = []
        errors = sum(1 for f in self.findings if f.severity == ERROR)
        warnings = sum(1 for f in self.findings if f.severity == WARNING)
        lines.append(
            f"netcheck: net={self.net or '<unnamed>'} phase={self.phase}"
            + (f" batch={self.batch}" if self.batch is not None else "")
            + f" -> {errors} error(s), {warnings} warning(s)"
        )
        for finding in self.findings:
            lines.append(
                f"  [{finding.rule}/{finding.severity}] {finding.layer}: "
                f"{finding.message}"
            )
        if self.layers:
            lines.append(
                f"  {len(self.layers)} layers, "
                f"fwd {self.total_flops_forward:.3e} flops, "
                f"bwd {self.total_flops_backward:.3e} flops"
            )
            lines.append(
                f"  memory: params {self.memory.param_bytes} B, "
                f"activations {self.memory.activation_bytes} B "
                f"(peak {self.memory.peak_activation_bytes} B)"
            )
        for plan in self.plans:
            lines.append(
                f"  threads={plan.num_threads}: "
                f"max imbalance {plan.max_imbalance:.3f}"
            )
        lines.append("  verdict: " + ("OK" if self.ok else "ERRORS FOUND"))
        return lines


# ---------------------------------------------------------------------------
# lint passes
# ---------------------------------------------------------------------------
def _lint_structure(spec: NetSpec, phase: str) -> List[Finding]:
    """Graph-structure lint over the raw (pre-split) phase graph."""
    findings: List[Finding] = []
    phase_specs = spec.layers_for_phase(phase)

    # NG006: inputs beyond the declared shapes.
    for input_name in spec.inputs[len(spec.input_shapes):]:
        findings.append(Finding(
            rule=NG_INPUT_WITHOUT_SHAPE, severity=ERROR, layer="<net>",
            message=(
                f"input {input_name!r} is declared without an input_shape; "
                "its consumers cannot be shaped"
            ),
        ))

    # NG009: duplicate layer names within the phase.
    seen_names: Dict[str, str] = {}
    for layer_spec in phase_specs:
        if layer_spec.name in seen_names:
            findings.append(Finding(
                rule=NG_DUPLICATE_NAME, severity=ERROR,
                layer=layer_spec.name,
                message=f"duplicate layer name in phase {phase}",
            ))
        seen_names[layer_spec.name] = layer_spec.type

    # NG007: unknown layer types.
    for layer_spec in phase_specs:
        if shape_rule_for(layer_spec.type) is None:
            findings.append(Finding(
                rule=NG_UNKNOWN_TYPE, severity=ERROR, layer=layer_spec.name,
                message=(
                    f"unknown layer type {layer_spec.type!r}: no registered "
                    "inference rule"
                ),
            ))

    # NG008: dangling bottoms; NG004: silent shadowing producers;
    # NG002: in-place against a rule that forbids it.
    available = set(spec.inputs[: len(spec.input_shapes)])
    available.update(spec.inputs[len(spec.input_shapes):])  # named anyway
    producer: Dict[str, str] = {}
    for layer_spec in phase_specs:
        for bottom in layer_spec.bottoms:
            if bottom not in available:
                findings.append(Finding(
                    rule=NG_DANGLING_BOTTOM, severity=ERROR,
                    layer=layer_spec.name,
                    message=(
                        f"consumes blob {bottom!r} which no earlier layer "
                        "produces"
                    ),
                ))
        inplace = [t for t in layer_spec.tops if t in layer_spec.bottoms]
        rule = shape_rule_for(layer_spec.type)
        if inplace and rule is not None and not rule.inplace_ok:
            findings.append(Finding(
                rule=NG_ILLEGAL_INPLACE, severity=ERROR,
                layer=layer_spec.name,
                message=(
                    f"writes top {inplace[0]!r} in place over its own "
                    f"bottom, but {layer_spec.type} does not satisfy the "
                    "chunk-write protocol for in-place operation (an "
                    "iteration may read elements another thread's chunk "
                    "already overwrote)"
                ),
            ))
        for top in layer_spec.tops:
            if top in producer and top not in layer_spec.bottoms:
                findings.append(Finding(
                    rule=NG_DUPLICATE_PRODUCER, severity=ERROR,
                    layer=layer_spec.name,
                    message=(
                        f"re-produces blob {top!r} (first produced by "
                        f"{producer[top]!r}) without consuming it; the "
                        "earlier output is silently shadowed"
                    ),
                ))
            producer[top] = layer_spec.name
            available.add(top)

    # NG003: dead blobs (produced, never consumed, not terminal).
    findings.extend(_lint_dead_blobs(spec, phase_specs))
    return findings


def _lint_dead_blobs(
    spec: NetSpec, phase_specs: List[LayerSpec]
) -> List[Finding]:
    findings: List[Finding] = []
    for i, layer_spec in enumerate(phase_specs):
        rule = shape_rule_for(layer_spec.type)
        if rule is not None and rule.terminal_ok:
            continue
        for top in layer_spec.tops:
            consumed = any(
                top in later.bottoms for later in phase_specs[i + 1:]
            )
            if not consumed:
                findings.append(Finding(
                    rule=NG_DEAD_BLOB, severity=WARNING,
                    layer=layer_spec.name,
                    message=(
                        f"top {top!r} is never consumed by a downstream "
                        "layer (dead blob; only loss/accuracy outputs are "
                        "legitimately terminal)"
                    ),
                ))
    return findings


def _lint_inference(sym: SymbolicNet) -> List[Finding]:
    """Findings from the symbolic walk: shape errors + geometry notes."""
    findings: List[Finding] = []
    note_codes = {
        NOTE_DROPPED_PIXELS: NG_LOSSY_GEOMETRY,
        NOTE_SKIPPED_PIXELS: NG_LOSSY_GEOMETRY,
    }
    for inf in sym.layers:
        if inf.error is not None and not inf.skipped:
            # Unknown types already got NG007 from the structure lint.
            if shape_rule_for(inf.spec.type) is not None:
                findings.append(Finding(
                    rule=NG_SHAPE_MISMATCH, severity=ERROR,
                    layer=inf.spec.name, message=inf.error,
                ))
        if inf.result is not None:
            for kind, message in inf.result.notes:
                findings.append(Finding(
                    rule=note_codes.get(kind, NG_LOSSY_GEOMETRY),
                    severity=WARNING, layer=inf.spec.name, message=message,
                ))
    return findings


# ---------------------------------------------------------------------------
# planner
# ---------------------------------------------------------------------------
def _plan_schedules(
    sym: SymbolicNet, threads: Sequence[int]
) -> List[SchedulePlan]:
    """Chunk split per layer per thread count, via the runtime's own
    StaticSchedule — the prediction and the execution share the code."""
    schedule = StaticSchedule()
    plans: List[SchedulePlan] = []
    for num_threads in threads:
        plan = SchedulePlan(num_threads=num_threads)
        for inf in sym.layers:
            if inf.result is None:
                continue
            sequential = runs_sequential(inf.spec.type)
            space = int(inf.result.forward_space)
            per_thread = [
                sum(hi - lo for lo, hi in chunks)
                for chunks in schedule.plan(space, num_threads)
            ]
            if space > 0 and not sequential:
                imbalance = max(per_thread) * num_threads / space
            else:
                imbalance = 1.0
            plan.layers.append(LayerSchedulePlan(
                name=inf.spec.name, type=inf.spec.type, space=space,
                sequential=sequential, per_thread=per_thread,
                imbalance=imbalance,
            ))
        plans.append(plan)
    return plans


def _plan_memory(sym: SymbolicNet) -> MemoryPlan:
    plan = MemoryPlan()
    plan.param_bytes = sum(
        inf.result.param_count * BYTES
        for inf in sym.layers if inf.result is not None
    )
    plan.activation_bytes = sum(
        info.count * BYTES for info in sym.blob_map.values()
    )

    # Liveness over the split graph: a blob is live from its producing
    # layer (layer 0 for net inputs, which have no producer) to its last
    # consuming layer.  This is forward/inference liveness; training
    # keeps everything resident for the backward pass (activation_bytes).
    produced_at: Dict[str, int] = {}
    last_use: Dict[str, int] = {}
    for i, inf in enumerate(sym.layers):
        for top in inf.spec.tops:
            produced_at.setdefault(top, i)
            last_use[top] = i
        for bottom in inf.spec.bottoms:
            last_use[bottom] = i
    peak = 0
    for i in range(len(sym.layers)):
        resident = sum(
            info.count * BYTES
            for name, info in sym.blob_map.items()
            if produced_at.get(name, 0) <= i
            <= last_use.get(name, produced_at.get(name, 0))
        )
        peak = max(peak, resident)
    plan.peak_activation_bytes = peak
    return plan


def _layer_work(
    sym: SymbolicNet, costs: List[LayerCost]
) -> List[LayerWork]:
    flops_fwd: Dict[str, float] = {}
    flops_bwd: Dict[str, float] = {}
    for cost in costs:
        target = flops_fwd if cost.pass_ == "forward" else flops_bwd
        target[cost.name] = target.get(cost.name, 0.0) + cost.flops
    out: List[LayerWork] = []
    for inf in sym.layers:
        if inf.result is None:
            continue
        out.append(LayerWork(
            name=inf.spec.name, type=inf.spec.type,
            space=int(inf.result.forward_space),
            sequential=runs_sequential(inf.spec.type),
            flops_forward=flops_fwd.get(inf.spec.name, 0.0),
            flops_backward=flops_bwd.get(inf.spec.name, 0.0),
            param_count=inf.result.param_count,
            top_shapes=[info.shape for info in inf.result.tops],
        ))
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def check_spec(
    spec: NetSpec,
    phase: str = "TRAIN",
    threads: Sequence[int] = (1, 2, 8),
    batch: Optional[int] = None,
) -> NetcheckReport:
    """Lint + infer + plan one phase of ``spec``.

    Always returns a report; a spec that cannot even be walked (e.g. an
    in-place conflict the split inserter rejects) yields findings and an
    empty plan instead of raising.
    """
    report = NetcheckReport(net=spec.name, phase=phase, batch=batch)
    report.findings.extend(_lint_structure(spec, phase))

    try:
        sym = infer_net(spec, phase=phase, batch=batch, strict=False)
    except ValueError as exc:
        # _insert_splits rejects in-place conflicts outright.
        report.findings.append(Finding(
            rule=NG_ILLEGAL_INPLACE, severity=ERROR, layer="<net>",
            message=str(exc),
        ))
        return report

    report.findings.extend(_lint_inference(sym))
    report.shapes = {
        name: info.shape for name, info in sym.blob_map.items()
    }

    report.sym = sym
    report.layers = _layer_work(sym, costs_of(sym.layers) if sym.ok else [])
    report.plans = _plan_schedules(sym, threads)
    report.memory = _plan_memory(sym)
    return report
