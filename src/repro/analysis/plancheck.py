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
:meth:`repro.simulator.cpu_model.CPUModel.plan_layer_time` for the
time).  Because a producer/consumer thread-width mismatch costs input
re-fetches, per-layer choices couple along the net DAG; the search is a
Viterbi-style dynamic program over the layer chain whose state is the
layer's thread width, with two branch-and-bound prunes:

* **dominance** — among candidates of one layer with the same thread
  width, only the cheapest (coalesce depth x reduction mode) survives;
  exact, because the DAG coupling depends on widths only;
* **bound** — a width is dropped when its standalone lower bound
  exceeds the cheapest width's standalone time plus an upper bound on
  the locality it could ever save (2x the serial-producer penalty).

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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
from repro.simulator.cost_model import LayerCost, costs_of
from repro.simulator.cpu_model import CPUModel

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
    type: str
    space: int
    dims: Tuple[Tuple[str, int], ...]
    fwd: LayerCost
    bwd: Optional[LayerCost]
    candidates: List[Candidate] = field(default_factory=list)
    considered: int = 0
    pruned: int = 0


def _product(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


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
    if _product(extent for _, extent in dims) != space:
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
    out = [Candidate(1, 1, _product(extents[1:]), extents[0], None)]
    max_depth = min(len(extents), MAX_COALESCE_DEPTH)
    for width in thread_widths(team):
        if width <= 1:
            continue
        for depth in range(1, max_depth + 1):
            units = _product(extents[:depth])
            granularity = _product(extents[depth:])
            if width > units:
                continue  # more threads than schedulable units
            for mode in modes:
                out.append(Candidate(width, depth, granularity, units, mode))
    return out


# ---------------------------------------------------------------------------
# pricing (the cost oracle)
# ---------------------------------------------------------------------------
class _Oracle:
    """Prices candidates with :meth:`CPUModel.plan_layer_time`."""

    def __init__(self, model: CPUModel, team: int) -> None:
        self.model = model
        self.team = team

    def _space_override(
        self, cost: LayerCost, cand: Candidate, node: _Node
    ) -> Optional[int]:
        # The granularity was derived against the forward space; only
        # apply it to passes that coalesce the same space.
        if cost.space == node.space and cand.granularity > 1:
            return cand.units
        return None

    def fwd_time(
        self,
        node: _Node,
        cand: Candidate,
        producer: Optional[str] = None,
        producer_threads: Optional[int] = None,
    ) -> float:
        return self.model.plan_layer_time(
            node.fwd, cand.threads,
            team_threads=self.team,
            space=self._space_override(node.fwd, cand, node),
            producer=producer, producer_threads=producer_threads,
        )

    def bwd_time(
        self,
        node: _Node,
        cand: Candidate,
        producer: Optional[str] = None,
        producer_threads: Optional[int] = None,
    ) -> float:
        if node.bwd is None:
            return 0.0
        return self.model.plan_layer_time(
            node.bwd, cand.threads,
            team_threads=self.team,
            space=self._space_override(node.bwd, cand, node),
            reduction_mode=cand.reduction,
            block_count=node.bwd.space,
            producer=producer, producer_threads=producer_threads,
        )

    def standalone(self, node: _Node, cand: Candidate) -> float:
        return self.fwd_time(node, cand) + self.bwd_time(node, cand)

    def locality_bound(self, node: _Node, cand: Candidate) -> float:
        """Upper bound on locality either pass could ever pay.

        The serial-producer penalty moves ``miss * (1 - 1/t)`` of the
        input; the worst width mismatch moves at most ``miss`` — less
        than twice that for any t >= 2 — so 2x the serial-producer
        delta bounds it.
        """
        if cand.threads <= 1:
            return 0.0
        extra = (
            self.fwd_time(node, cand, producer="serial")
            - self.fwd_time(node, cand)
        )
        extra += (
            self.bwd_time(node, cand, producer="serial")
            - self.bwd_time(node, cand)
        )
        return 2.0 * extra


def _prune(node: _Node, oracle: _Oracle, team: int) -> None:
    """Dominance + bound pruning (see module docstring)."""
    node.considered = len(node.candidates)
    by_width: Dict[int, Tuple[float, Candidate]] = {}
    for cand in node.candidates:
        time = oracle.standalone(node, cand)
        best = by_width.get(cand.threads)
        if best is None or time < best[0]:
            by_width[cand.threads] = (time, cand)
    bound = min(
        time + oracle.locality_bound(node, cand)
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
    order: List[str] = []
    for cost in costs_of(sym.layers):
        if cost.name not in by_name:
            by_name[cost.name] = {}
            order.append(cost.name)
        by_name[cost.name][cost.pass_] = cost
    shapes: Dict[str, Sequence[int]] = {}
    types: Dict[str, str] = {}
    for inf in sym.layers:
        types.setdefault(inf.spec.name, inf.spec.type)
        if inf.bottoms:
            shapes.setdefault(inf.spec.name, inf.bottoms[0].shape)
    nodes = []
    for name in order:
        fwd = by_name[name]["forward"]
        bwd = by_name[name].get("backward")
        dims = derive_dims(types.get(name, fwd.type), shapes.get(name, ()), fwd)
        nodes.append(_Node(
            name=name, type=fwd.type, space=fwd.space, dims=dims,
            fwd=fwd, bwd=bwd,
        ))
    return nodes


def _search(
    nodes: List[_Node], oracle: _Oracle
) -> Tuple[List[Candidate], float]:
    """Viterbi DP over the layer chain; returns picks and total time."""
    INF = float("inf")
    # score[ci] = best total up to node j using candidate ci; back[j][ci]
    score = []
    back: List[List[int]] = []
    for j, node in enumerate(nodes):
        new_score = []
        new_back = []
        for cand in node.candidates:
            if j == 0:
                new_score.append(oracle.fwd_time(node, cand))
                new_back.append(-1)
                continue
            prev_node = nodes[j - 1]
            best, best_prev = INF, -1
            for pi, prev in enumerate(prev_node.candidates):
                total = (
                    score[pi]
                    + oracle.fwd_time(
                        node, cand,
                        producer=prev_node.fwd.dist,
                        producer_threads=prev.threads,
                    )
                    + oracle.bwd_time(
                        prev_node, prev,
                        producer=node.bwd.dist if node.bwd else None,
                        producer_threads=cand.threads,
                    )
                )
                if total < best:
                    best, best_prev = total, pi
            new_score.append(best)
            new_back.append(best_prev)
        score = new_score
        back.append(new_back)
    # close the chain: the last layer's backward has no upstream producer
    last = nodes[-1]
    best_ci, best_total = -1, INF
    for ci, cand in enumerate(last.candidates):
        total = score[ci] + oracle.bwd_time(last, cand)
        if total < best_total:
            best_total, best_ci = total, ci
    picks: List[Candidate] = []
    ci = best_ci
    for j in range(len(nodes) - 1, -1, -1):
        picks.append(nodes[j].candidates[ci])
        ci = back[j][ci]
    picks.reverse()
    return picks, best_total


def assignment_times(
    nodes: List[_Node], picks: List[Candidate], oracle: _Oracle
) -> Dict[str, float]:
    """Per-pass times of one fixed assignment, keyed like
    :meth:`CPUModel.layer_times` (``"<layer>.fwd"`` / ``".bwd"``)."""
    out: Dict[str, float] = {}
    for j, (node, cand) in enumerate(zip(nodes, picks)):
        if j == 0:
            out[node.fwd.key] = oracle.fwd_time(node, cand)
        else:
            prev_node, prev = nodes[j - 1], picks[j - 1]
            out[node.fwd.key] = oracle.fwd_time(
                node, cand,
                producer=prev_node.fwd.dist, producer_threads=prev.threads,
            )
        if node.bwd is not None:
            # Gradients flow from the next layer *with a backward pass*
            # (mirrors cost_model.producer_dist).
            k = j + 1
            while k < len(nodes) and nodes[k].bwd is None:
                k += 1
            nxt_node = nodes[k] if k < len(nodes) else None
            nxt = picks[k] if k < len(nodes) else None
            out[node.bwd.key] = oracle.bwd_time(
                node, cand,
                producer=nxt_node.bwd.dist if nxt_node is not None else None,
                producer_threads=nxt.threads if nxt is not None else None,
            )
    return out


def _chain_time(
    nodes: List[_Node], picks: List[Candidate], oracle: _Oracle
) -> float:
    """Total time of one fixed assignment, summed in cost order (fwd
    then bwd per layer) so it is bitwise comparable to
    :meth:`CPUModel.iteration_time` under the uniform assignment."""
    times = assignment_times(nodes, picks, oracle)
    total = 0.0
    for node in nodes:
        total += times[node.fwd.key]
        if node.bwd is not None:
            total += times[node.bwd.key]
    return total


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
            if _product(extents) != lp.space:
                findings.append(Finding(
                    "PL002", name,
                    f"declared dims {lp.dims} multiply to "
                    f"{_product(extents)} but the recorded iteration "
                    f"space is {lp.space}",
                ))
            if _product(extents[lp.coalesced:]) != lp.granularity:
                findings.append(Finding(
                    "PL002", name,
                    f"granularity {lp.granularity} does not match the "
                    f"non-coalesced dims product "
                    f"{_product(extents[lp.coalesced:])}",
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
    predicted = _chain_time(nodes, picks, oracle)
    base_mode = _TIER_BASE_MODE[claim]
    uniform = uniform_candidates(nodes, threads, base_mode)
    uniform_us = _chain_time(nodes, uniform, oracle)

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
    phase: str = "TRAIN",
    threads: int = 8,
    batch: Optional[int] = None,
    mode: str = "ordered",
    model: Optional[CPUModel] = None,
) -> float:
    """Price the uniform strategy through the planner's own chain walk.

    With ``mode="ordered"`` this must equal
    ``CPUModel.iteration_time(net_costs(net), threads)`` exactly — the
    cost-model parity regression asserts it for every zoo net.
    """
    model = model or CPUModel()
    nodes = _build_nodes(infer_net(spec, phase=phase, batch=batch))
    oracle = _Oracle(model, threads)
    return _chain_time(nodes, uniform_candidates(nodes, threads, mode), oracle)


def certify_plan(
    net_name: str,
    *,
    threads: int = 8,
    claim: str = BITWISE_INVARIANT,
    iters: int = 2,
    batch: int = 4,
    model: Optional[CPUModel] = None,
) -> Tuple[List[Finding], Optional[ExecutionPlan]]:
    """Dynamically certify that a planned run delivers its claimed tier.

    Re-plans ``net_name`` at the certification batch size (so the plan's
    recorded spaces match the replayed net), then judges the planned
    configuration against the sequential trajectory under the claim
    (:func:`repro.analysis.detcheck.judge`): a broken bitwise or replay
    promise is PL201, a divergence the claim allows is PL202 (info).  A
    ``nondeterministic`` claim promises nothing to certify.
    """
    return _certify_plan(net_name, threads, claim, iters, batch, model,
                         Baselines())


def _certify_plan(net_name, threads, claim, iters, batch, model,
                  baselines: Baselines):
    from repro.zoo.build import zoo_spec

    report = plan_spec(
        zoo_spec(net_name), net_name=net_name, threads=threads, batch=batch,
        claim=claim, model=model,
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
                    name, team, claim, certify_iters, certify_batch, None,
                    baselines)
                net_report.findings.extend(certify_findings)
            report.reports.append(net_report)
    return report
