"""plancheck: static per-layer auto-parallelization planner + plan linter.

The paper parallelizes every layer identically; PaSE and the "hidden
dimensions" line of work show per-layer strategies win.  This pass
searches, **from a NetSpec alone** (no execution), a per-layer execution
strategy for a given team size:

* how many leading coalesced dims to distribute (the rest fold into a
  chunk *granularity*, so chunk boundaries stay on whole inner blocks);
* how many threads the layer uses (1 = inline on the master, no
  parallel region at all);
* the loop schedule (static — the deterministic family the tiers need);
* the gradient reduction mode, restricted to modes whose invariance
  tier is at least the *claimed* tier of the whole plan.

Candidates are priced by the simulator's cost oracle
(:func:`repro.simulator.cost_model.costs_of` for the geometry — the
ladder ``net_costs`` prices a live net through — and
:meth:`repro.simulator.cpu_model.CPUModel.pass_time` for the time).
Because a producer/consumer thread-width mismatch costs input
re-fetches, per-layer choices couple along the chain walk
(:func:`repro.simulator.cost_model.chain`: forward from the previous
layer, backward from the next layer that has a backward pass).  The
search is a Viterbi-style dynamic program that prices every pass of
that walk exactly once, so the total it minimizes is the
``predicted_us`` it reports; two branch-and-bound prunes keep it small:

* **dominance** — among candidates of one layer with the same thread
  width, only the cheapest (coalesce depth x reduction mode) survives;
  exact, because the chain coupling depends on widths only;
* **bound** — a width is dropped when its standalone time exceeds the
  cheapest width's standalone time plus an upper bound on the locality
  it could ever save (2x the locality term under a serial producer).

The uniform strategy (every layer at the full team width) is always a
search point, so the planned prediction is never worse than uniform by
construction — PL005 guards the invariant anyway.

Findings are PL-coded (catalogued in :mod:`repro.analysis.codes`):
PL001-PL006 lint the plan statically, PL101-PL104 surface executor/plan
drift at load time (via :func:`repro.core.plan.plan_drift`), and
PL201/PL202 come from the dynamic certification that a planned run
delivers the plan's claimed invariance tier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.analysis.detcheck import (
    BROKE_BITWISE,
    BROKE_REPLAY,
    WITHIN_TIER,
    Baselines,
    Replay,
    judge,
)
from repro.analysis.report import ERROR, Finding, Gated
from repro.core.plan import ExecutionPlan, LayerPlan, plan_drift
from repro.core.reduction import (
    BITWISE_INVARIANT,
    DETERMINISTIC_PER_T,
    NONDETERMINISTIC,
    REDUCTION_MODES,
    TIER_ORDER,
    invariance_tier,
)
from repro.framework.net_spec import NetSpec
from repro.framework.shape_inference import ShapeError
from repro.framework.symbolic import SymbolicNet, infer_net
from repro.simulator.cost_model import LayerCost, chain, costs_of
from repro.simulator.cpu_model import CPUModel, PassTime

#: PL006 fires when a layer's predicted static imbalance exceeds this.
IMBALANCE_THRESHOLD = 0.20

#: Cheapest reduction mode delivering each claimable tier (the uniform
#: baseline's mode, and the planner's default pick per tier).
_TIER_BASE_MODE = {
    BITWISE_INVARIANT: "blockwise",
    DETERMINISTIC_PER_T: "ordered",
    NONDETERMINISTIC: "atomic",
}

#: Maximum coalesce depth the planner explores (dims beyond this fold
#: into the granularity; matches the paper's S x D1 x D2 nesting).
MAX_COALESCE_DEPTH = 3


# ---------------------------------------------------------------------------
# per-layer search nodes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Candidate:
    """One per-layer strategy the search prices."""

    threads: int
    coalesced: int      # leading dims distributed
    granularity: int    # native civ iterations per schedulable unit
    units: int          # schedulable units = ceil(space / granularity)
    reduction: Optional[str]


@dataclass
class _Node:
    """One layer of the search chain."""

    name: str
    space: int
    dims: Tuple[Tuple[str, int], ...]
    fwd: LayerCost
    bwd: Optional[LayerCost]
    candidates: List[Candidate] = field(default_factory=list)
    considered: int = 0
    pruned: int = 0

    @property
    def passes(self) -> Tuple[LayerCost, ...]:
        return (self.fwd,) if self.bwd is None else (self.fwd, self.bwd)


def derive_dims(
    type_name: str,
    bottom_shape: Sequence[int],
    cost: LayerCost,
) -> Tuple[Tuple[str, int], ...]:
    """Factor a layer's coalesced iteration space into named dims.

    The factorization mirrors what each layer's chunk protocol actually
    coalesces (sample for conv/ip/lrn/loss, sample x channel for
    pooling, sample x channel x spatial for element-wise layers); when
    the product does not reproduce the costed space the single opaque
    ``iteration`` dim is used — never a wrong factorization.
    """
    space = cost.space
    if cost.serial:
        return (("serial", space),)
    t = type_name.lower()
    dims: Tuple[Tuple[str, int], ...]
    if t == "pooling" and len(bottom_shape) >= 2:
        dims = (("sample", bottom_shape[0]), ("channel", bottom_shape[1]))
    elif cost.dist == "element":
        if len(bottom_shape) == 4:
            dims = (
                ("sample", bottom_shape[0]),
                ("channel", bottom_shape[1]),
                ("spatial", bottom_shape[2] * bottom_shape[3]),
            )
        elif len(bottom_shape) == 2:
            dims = (("sample", bottom_shape[0]), ("channel", bottom_shape[1]))
        else:
            dims = (("element", space),)
    elif cost.dist == "sample":
        dims = (("sample", space),)
    elif cost.dist == "sample-channel" and len(bottom_shape) >= 2:
        dims = (("sample", bottom_shape[0]), ("channel", bottom_shape[1]))
    else:
        dims = (("iteration", space),)
    if math.prod(extent for _, extent in dims) != space:
        dims = (("iteration", space),)
    return dims


def thread_widths(team: int) -> List[int]:
    """Candidate thread widths: 1, powers of two below the team, team."""
    widths = {1, team}
    width = 2
    while width < team:
        widths.add(width)
        width *= 2
    return sorted(widths)


def _allowed_modes(claim: str) -> List[str]:
    rank = TIER_ORDER[claim]
    return [
        mode for mode in REDUCTION_MODES
        if TIER_ORDER[invariance_tier(mode, True)] >= rank
    ]


def _enumerate_candidates(node: _Node, team: int, claim: str) -> List[Candidate]:
    if node.fwd.serial:
        return [Candidate(1, len(node.dims), 1, node.space, None)]
    extents = [extent for _, extent in node.dims]
    has_reduction = node.bwd is not None and node.bwd.reduction_bytes > 0
    modes = _allowed_modes(claim) if has_reduction else [None]
    out = [Candidate(1, 1, math.prod(extents[1:]), extents[0], None)]
    max_depth = min(len(extents), MAX_COALESCE_DEPTH)
    for width in thread_widths(team):
        if width <= 1:
            continue
        for depth in range(1, max_depth + 1):
            units = math.prod(extents[:depth])
            granularity = math.prod(extents[depth:])
            if width > units:
                continue  # more threads than schedulable units
            for mode in modes:
                out.append(Candidate(width, depth, granularity, units, mode))
    return out


# ---------------------------------------------------------------------------
# pricing (the cost oracle)
# ---------------------------------------------------------------------------
class _Link(NamedTuple):
    """One pass of the chain walk, located on the search chain."""

    cost: LayerCost
    own: int                # index of the pass's layer
    producer: Optional[str]  # dist of the pass feeding it (chain rule)
    src: int                # the producer's layer index (own if none)


def _links(nodes: List[_Node]) -> List[_Link]:
    """:func:`repro.simulator.cost_model.chain` over the nodes' passes."""
    index = {node.name: j for j, node in enumerate(nodes)}
    return [
        _Link(cost, index[cost.name], producer and producer.dist,
              index[(producer or cost).name])
        for cost, producer in chain(
            [cost for node in nodes for cost in node.passes])
    ]


class _Oracle:
    """Prices one pass of one candidate.

    :meth:`price` is the planner's only cost input, so it is the one
    seam a measured per-(layer, pass, width) cost table replaces; the
    chain walk and the DP stay as they are.
    """

    def __init__(self, model: CPUModel, team: int) -> None:
        self.model = model
        self.team = team

    def price(
        self,
        node: _Node,
        cost: LayerCost,
        cand: Candidate,
        producer: Optional[str] = None,
        producer_threads: Optional[int] = None,
    ) -> PassTime:
        # The granularity was derived against the forward space; only
        # apply it to passes that coalesce the same space.
        coarse = cost.space == node.space and cand.granularity > 1
        return self.model.pass_time(
            cost, cand.threads,
            team_threads=self.team,
            space=cand.units if coarse else None,
            reduction_mode=cand.reduction,
            block_count=cost.space,
            producer=producer, producer_threads=producer_threads,
        )

    def link_time(self, nodes: List[_Node], link: _Link,
                  picks: Sequence[Candidate]) -> float:
        """Time of one chain pass under ``picks`` (indexed like nodes)."""
        return self.price(
            nodes[link.own], link.cost, picks[link.own],
            producer=link.producer,
            producer_threads=(
                None if link.producer is None else picks[link.src].threads),
        ).total

    def total(self, nodes: List[_Node], picks: Sequence[Candidate]) -> float:
        """Chain time of one assignment, summed in cost order (fwd then
        bwd per layer) so it is bitwise comparable to
        :meth:`CPUModel.iteration_time` under the uniform assignment."""
        return sum(self.link_time(nodes, link, picks)
                   for link in _links(nodes))


def _prune(node: _Node, oracle: _Oracle, team: int) -> None:
    """Dominance + bound pruning (see module docstring)."""
    node.considered = len(node.candidates)
    by_width: Dict[int, Tuple[float, Candidate]] = {}
    for cand in node.candidates:
        time = sum(oracle.price(node, cost, cand).total
                   for cost in node.passes)
        best = by_width.get(cand.threads)
        if best is None or time < best[0]:
            by_width[cand.threads] = (time, cand)
    # A serial producer re-fetches ``miss * (1 - 1/t)`` of the input; no
    # width mismatch re-fetches more than twice that.
    bound = min(
        time + 2.0 * sum(
            oracle.price(node, cost, cand, producer="serial").locality
            for cost in node.passes)
        for time, cand in by_width.values()
    )
    kept = [
        cand for width, (time, cand) in sorted(by_width.items())
        if time <= bound or width in (1, team)
    ]
    node.pruned = node.considered - len(kept)
    node.candidates = kept


# ---------------------------------------------------------------------------
# the DP search
# ---------------------------------------------------------------------------
def _build_nodes(sym: SymbolicNet) -> List[_Node]:
    if not sym.ok:
        raise ShapeError(sym.errors()[0])
    by_name: Dict[str, Dict[str, LayerCost]] = {}
    for cost in costs_of(sym.layers):
        by_name.setdefault(cost.name, {})[cost.pass_] = cost
    shapes: Dict[str, Sequence[int]] = {}
    types: Dict[str, str] = {}
    for inf in sym.layers:
        types.setdefault(inf.spec.name, inf.spec.type)
        if inf.bottoms:
            shapes.setdefault(inf.spec.name, inf.bottoms[0].shape)
    nodes = []
    for name, passes in by_name.items():
        fwd = passes["forward"]
        dims = derive_dims(types.get(name, fwd.type), shapes.get(name, ()), fwd)
        nodes.append(_Node(name=name, space=fwd.space, dims=dims, fwd=fwd,
                           bwd=passes.get("backward")))
    return nodes


def _search(
    nodes: List[_Node], oracle: _Oracle
) -> Tuple[List[Candidate], float]:
    """Viterbi DP over the layer chain; returns picks and total time.

    The objective is :meth:`_Oracle.total`: each chain pass is priced
    once, as soon as both its layer and its producer are picked.  A
    state is a partial assignment keyed by the picks a pass still to be
    priced reads — the current layer's (the next forward's producer)
    and that of the last layer with a backward pass, whose gradient
    producer may lie beyond a feeder.
    """
    links = _links(nodes)
    # A step sums its forward passes before its backward ones: another
    # order moves the float sums by an ulp and can flip a pick between
    # candidates tied to the ulp.
    due: List[List[_Link]] = [[] for _ in nodes]
    for link in sorted(links, key=lambda link: link.cost.pass_ != "forward"):
        due[max(link.own, link.src)].append(link)
    states = {(): (0.0, ())}
    for j, node in enumerate(nodes):
        live = sorted({
            min(link.own, link.src) for link in links
            if min(link.own, link.src) <= j < max(link.own, link.src)})
        new_states: Dict[tuple, Tuple[float, tuple]] = {}
        for cand in node.candidates:
            for score, picks in states.values():
                picks = picks + (cand,)
                for link in due[j]:
                    score += oracle.link_time(nodes, link, picks)
                key = tuple(picks[k] for k in live)
                if key not in new_states or score < new_states[key][0]:
                    new_states[key] = (score, picks)
        states = new_states
    ((total, picks),) = states.values()
    return list(picks), total


def uniform_candidates(
    nodes: List[_Node], team: int, mode: Optional[str]
) -> List[Candidate]:
    """The paper's global strategy: every layer at the full team width."""
    picks = []
    for node in nodes:
        if node.fwd.serial:
            picks.append(Candidate(1, len(node.dims), 1, node.space, None))
        else:
            has_reduction = (
                node.bwd is not None and node.bwd.reduction_bytes > 0
            )
            picks.append(Candidate(
                team, len(node.dims), 1, node.space,
                mode if has_reduction else None,
            ))
    return picks


# ---------------------------------------------------------------------------
# lint (PL001-PL006) and drift (PL101-PL104)
# ---------------------------------------------------------------------------
def lint_plan(
    plan: ExecutionPlan, spec: Optional[NetSpec] = None, phase: str = "TRAIN"
) -> List[Finding]:
    """Static plan lint — machine-checkable like every repro artifact."""
    findings: List[Finding] = []
    if spec is not None:
        known = {s.name for s in spec.layers_for_phase(phase)}
        # split layers are inserted at net build time; accept their names
        for name in plan.layers:
            if name not in known and "_split" not in name:
                findings.append(Finding(
                    "PL001", name,
                    f"plan references layer {name!r} which does not exist "
                    f"in net {plan.net!r} (phase {phase})",
                ))
    claim_rank = TIER_ORDER.get(plan.tier)
    if claim_rank is None:
        findings.append(Finding(
            "PL004", "",
            f"plan claims unknown invariance tier {plan.tier!r}",
        ))
        claim_rank = 0
    for name, lp in plan.layers.items():
        extents = [extent for _, extent in lp.dims]
        if lp.dims:
            if lp.coalesced < 1 or lp.coalesced > len(extents):
                findings.append(Finding(
                    "PL002", name,
                    f"coalesced depth {lp.coalesced} outside the layer's "
                    f"{len(extents)} declared dim(s)",
                ))
                continue
            if math.prod(extents) != lp.space:
                findings.append(Finding(
                    "PL002", name,
                    f"declared dims {lp.dims} multiply to "
                    f"{math.prod(extents)} but the recorded iteration "
                    f"space is {lp.space}",
                ))
            if math.prod(extents[lp.coalesced:]) != lp.granularity:
                findings.append(Finding(
                    "PL002", name,
                    f"granularity {lp.granularity} does not match the "
                    f"non-coalesced dims product "
                    f"{math.prod(extents[lp.coalesced:])}",
                ))
        units = -(-lp.space // lp.granularity) if lp.space else 0
        if lp.space and lp.threads > max(units, 1):
            findings.append(Finding(
                "PL003", name,
                f"{lp.threads} threads exceed the chunkable extent "
                f"({units} unit(s) of granularity {lp.granularity} over "
                f"space {lp.space})",
            ))
        base_mode = _TIER_BASE_MODE[plan.tier] if claim_rank else "atomic"
        layer_rank = TIER_ORDER[lp.tier(base_mode, True)]
        if layer_rank < claim_rank:
            findings.append(Finding(
                "PL004", name,
                f"reduction mode {lp.reduction!r} under schedule "
                f"{lp.schedule!r} delivers a weaker tier than the plan's "
                f"claimed {plan.tier!r}",
            ))
        if lp.space and lp.threads > 1 and units >= lp.threads:
            ideal = units / lp.threads
            busiest = -(-units // lp.threads)
            imbalance = busiest / ideal - 1.0
            if imbalance > IMBALANCE_THRESHOLD:
                findings.append(Finding(
                    "PL006", name,
                    f"predicted static imbalance {imbalance:.0%} exceeds "
                    f"{IMBALANCE_THRESHOLD:.0%} ({units} unit(s) over "
                    f"{lp.threads} threads: busiest {busiest} vs ideal "
                    f"{ideal:.1f})",
                ))
    if plan.uniform_us and plan.predicted_us > plan.uniform_us:
        findings.append(Finding(
            "PL005", "",
            f"plan predicted {plan.predicted_us:.1f}us, slower than the "
            f"uniform baseline {plan.uniform_us:.1f}us",
        ))
    return findings


def drift_findings(plan: ExecutionPlan, net, num_threads: int) -> List[Finding]:
    """Wrap :func:`repro.core.plan.plan_drift` tuples into Findings:
    PL101 (plan/net mismatch), PL102 (space drift), PL103 (more threads
    than the team) and PL104 (no plan entry)."""
    return [Finding(code, layer, message)
            for code, layer, message in plan_drift(plan, net, num_threads)]


# ---------------------------------------------------------------------------
# report model
# ---------------------------------------------------------------------------
@dataclass
class NetPlanReport(Gated):
    """Planning result for one net at one team size."""

    net: str
    phase: str
    batch: Optional[int]
    threads: int
    claim: str
    plan: Optional[ExecutionPlan] = None
    findings: List[Finding] = field(default_factory=list)
    predicted_us: float = 0.0
    uniform_us: float = 0.0
    candidates_considered: int = 0
    candidates_pruned: int = 0

    @property
    def gate_ok(self) -> bool:
        """Gate contract: lint clean AND predicted >= uniform (PL005)."""
        return self.ok and not any(f.rule == "PL005" for f in self.findings)

    @property
    def predicted_speedup(self) -> float:
        if not self.predicted_us:
            return 0.0
        return self.uniform_us / self.predicted_us

    def to_json(self) -> dict:
        return {
            "net": self.net,
            "phase": self.phase,
            "batch": self.batch,
            "threads": self.threads,
            "claim": self.claim,
            "ok": self.ok,
            "gate_ok": self.gate_ok,
            "predicted_us": self.predicted_us,
            "uniform_us": self.uniform_us,
            "predicted_speedup": self.predicted_speedup,
            "candidates_considered": self.candidates_considered,
            "candidates_pruned": self.candidates_pruned,
            "plan": None if self.plan is None else self.plan.to_json(),
            "findings": [f.to_json() for f in self.findings],
        }

    def summary_lines(self) -> List[str]:
        status = "OK" if self.gate_ok else "VIOLATIONS"
        lines = [
            f"plancheck: net={self.net} phase={self.phase} "
            f"threads={self.threads} claim={self.claim} -> {status} "
            f"(planned {self.predicted_us:.0f}us vs uniform "
            f"{self.uniform_us:.0f}us, "
            f"{self.predicted_speedup:.2f}x predicted, "
            f"{self.candidates_pruned}/{self.candidates_considered} "
            f"candidates pruned)"
        ]
        if self.plan is not None:
            for name, lp in self.plan.layers.items():
                mode = lp.reduction or "-"
                lines.append(
                    f"  {name:<14} t={lp.threads:<2} g={lp.granularity:<6} "
                    f"{lp.schedule:<8} {mode:<9} space={lp.space}"
                )
        lines += ["  " + finding.line() for finding in self.findings]
        return lines


@dataclass
class PlancheckReport:
    """Top-level document: one entry per (net, team size)."""

    reports: List[NetPlanReport] = field(default_factory=list)

    @property
    def findings(self) -> List[Finding]:
        out: List[Finding] = []
        for report in self.reports:
            out.extend(report.findings)
        return out

    @property
    def ok(self) -> bool:
        return all(r.gate_ok for r in self.reports)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "reports": [r.to_json() for r in self.reports],
        }

    def summary_lines(self) -> List[str]:
        lines: List[str] = []
        for report in self.reports:
            lines.extend(report.summary_lines())
        lines.append("verdict: " + ("OK" if self.ok else "VIOLATIONS FOUND"))
        return lines


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def plan_spec(
    spec: NetSpec,
    *,
    net_name: str = "",
    phase: str = "TRAIN",
    threads: int = 8,
    batch: Optional[int] = None,
    claim: str = BITWISE_INVARIANT,
    model: Optional[CPUModel] = None,
    sym: Optional[SymbolicNet] = None,
) -> NetPlanReport:
    """Plan one net at one team size; lint the result.  ``sym`` is
    ``infer_net(spec, phase, batch)`` when the caller already holds it."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if claim not in TIER_ORDER:
        raise ValueError(
            f"unknown invariance tier {claim!r}; expected one of "
            f"{sorted(TIER_ORDER)}"
        )
    model = model or CPUModel()
    label = net_name or spec.name or "<anonymous>"
    report = NetPlanReport(
        net=label, phase=phase, batch=batch, threads=threads, claim=claim,
    )
    try:
        nodes = _build_nodes(
            sym or infer_net(spec, phase=phase, batch=batch))
    except (KeyError, ValueError) as exc:
        # ShapeError, or the split inserter refusing an in-place conflict
        report.findings.append(Finding(
            "PL001", "",
            f"cannot plan {label!r}: {exc} (run netcheck for a full "
            "shape report)",
        ))
        return report
    if not nodes:
        report.findings.append(Finding(
            "PL001", "",
            f"net {label!r} has no layers in phase {phase}",
        ))
        return report

    oracle = _Oracle(model, threads)
    for node in nodes:
        node.candidates = _enumerate_candidates(node, threads, claim)
        _prune(node, oracle, threads)
    report.candidates_considered = sum(n.considered for n in nodes)
    report.candidates_pruned = sum(n.pruned for n in nodes)

    picks, _ = _search(nodes, oracle)
    # Re-sum the winning assignment in cost order so predicted/uniform
    # totals are bitwise comparable to each other (and, under the
    # uniform assignment, to CPUModel.iteration_time).
    predicted = oracle.total(nodes, picks)
    uniform = uniform_candidates(nodes, threads, _TIER_BASE_MODE[claim])
    uniform_us = oracle.total(nodes, uniform)

    plan = ExecutionPlan(
        net=spec.name or label, batch=_batch_of(nodes, batch),
        team_threads=threads, tier=claim, phase=phase,
        predicted_us=predicted, uniform_us=uniform_us,
    )
    for node, cand in zip(nodes, picks):
        plan.add(LayerPlan(
            layer=node.name, threads=cand.threads,
            granularity=cand.granularity, schedule="static",
            reduction=cand.reduction, space=node.space,
            dims=node.dims, coalesced=cand.coalesced,
        ))
    report.plan = plan
    report.predicted_us = predicted
    report.uniform_us = uniform_us
    report.findings.extend(lint_plan(plan, spec, phase))
    return report


def _batch_of(nodes: List[_Node], batch: Optional[int]) -> int:
    if batch is not None:
        return batch
    for node in nodes:
        for dim_name, extent in node.dims:
            if dim_name == "sample":
                return extent
    return 0


def uniform_chain_time(
    spec: NetSpec,
    *,
    threads: int = 8,
    mode: str = "ordered",
) -> float:
    """Price the uniform strategy through the planner's own chain walk.

    With ``mode="ordered"`` this must equal
    ``CPUModel.iteration_time(net_costs(net), threads)`` exactly — the
    cost-model parity regression asserts it for every zoo net.
    """
    nodes = _build_nodes(infer_net(spec))
    return _Oracle(CPUModel(), threads).total(
        nodes, uniform_candidates(nodes, threads, mode))


def certify_plan(
    net_name: str,
    *,
    threads: int = 8,
    claim: str = BITWISE_INVARIANT,
    iters: int = 2,
    batch: int = 4,
) -> Tuple[List[Finding], Optional[ExecutionPlan]]:
    """Dynamically certify that a planned run delivers its claimed tier.

    Re-plans ``net_name`` at the certification batch size (so the plan's
    recorded spaces match the replayed net), then judges the planned
    configuration against the sequential trajectory under the claim
    (:func:`repro.analysis.detcheck.judge`): a broken bitwise or replay
    promise is PL201, a divergence the claim allows is PL202 (info).  A
    ``nondeterministic`` claim promises nothing to certify.
    """
    return _certify_plan(net_name, threads, claim, iters, batch, Baselines())


def _certify_plan(net_name, threads, claim, iters, batch,
                  baselines: Baselines):
    from repro.zoo.build import zoo_spec

    report = plan_spec(
        zoo_spec(net_name), net_name=net_name, threads=threads, batch=batch,
        claim=claim,
    )
    findings = [f for f in report.findings if f.severity == ERROR]
    if findings or report.plan is None or claim == NONDETERMINISTIC:
        return findings, report.plan
    planned = Replay(net_name, iters, batch, threads,
                     _TIER_BASE_MODE[claim], report.plan)
    verdict = judge(baselines[net_name, iters, batch], planned, claim)
    findings += verdict.findings(claim, {
        BROKE_BITWISE: ("PL201", lambda d: (
            f"planned run violates claimed tier {claim!r} vs the "
            f"sequential trajectory: {d.describe()}")),
        BROKE_REPLAY: ("PL201", lambda d: (
            f"planned run violates claimed tier {claim!r}: two replays "
            f"diverge: {d.describe()}")),
        WITHIN_TIER: ("PL202", lambda d: (
            "divergence from the sequential trajectory, within the "
            f"claimed tier: {d.describe()}")),
    })
    return findings, report.plan


def run_plancheck(
    nets: Sequence[Union[str, Tuple[str, NetSpec]]],
    threads: Sequence[int] = (1, 2, 8),
    batch: Optional[int] = None,
    claim: str = BITWISE_INVARIANT,
    certify: bool = False,
    certify_iters: int = 2,
    certify_batch: int = 4,
) -> PlancheckReport:
    """Plan + lint every requested net at every team size.

    A net is a zoo name, or a ``(label, NetSpec)`` pair for a spec from
    anywhere else (a user prototxt); only zoo nets can be replayed, so
    ``certify`` skips the pairs.
    """
    from repro.zoo.build import zoo_spec

    report = PlancheckReport()
    baselines = Baselines()
    for net in nets:
        in_zoo = isinstance(net, str)
        name, spec = (net, zoo_spec(net)) if in_zoo else net
        for team in threads:
            net_report = plan_spec(
                spec, net_name=name, threads=team, batch=batch, claim=claim,
            )
            if certify and in_zoo and team > 1:
                certify_findings, _ = _certify_plan(
                    name, team, claim, certify_iters, certify_batch,
                    baselines)
                net_report.findings.extend(certify_findings)
            report.reports.append(net_report)
    return report
