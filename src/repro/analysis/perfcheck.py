"""Performance certifier: PE static lint and roofline classifier (the
ninth analyzer family).

The paper's coarse-grain claim is a *performance* claim, and the planner
(PL) optimizes against :class:`~repro.simulator.cpu_model.CPUModel` —
so the source must stay free of the anti-patterns that eat the planned
speedups, and the places where the model itself says planned threads
are wasted should be visible.  Two passes, neither of which reads a
clock:

* **Static lint (PE001-PE005)** — :mod:`repro.analysis.perflint`:
  float64 upcast creep, hot-loop allocations, contiguity copies, and
  iteration-space-sized Python loops in chunk-reachable code, checked
  against the perf allowances of each layer's
  :class:`~repro.framework.layer.LayerContract`.
* **Roofline classifier (PE101/PE102)** — from
  :func:`~repro.simulator.cost_model.costs_of` and the CPU model:
  per-layer arithmetic intensity and compute- vs bandwidth-bound
  classification at each thread count.  PE101 (INFO) surfaces layers
  whose *planned* thread width exceeds the DRAM bandwidth saturation
  width — the point where an extra thread buys <10% more bandwidth —
  while the layer is DRAM-bound, i.e. threads the planner spent that
  the memory system cannot feed.  PE102 (INFO) flags layers whose
  modelled time is majority per-segment dispatch (granularity-limited).

Measured time is not this family's business: wall-clock numbers come
from ``ledger/run.py`` (``BENCHMARK.json``) and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.perflint import lint_perf
from repro.analysis.report import Finding, Gated

DEFAULT_NETS = ("lenet", "cifar10", "mlp")
DEFAULT_THREADS = (1, 2, 8)

#: Marginal DRAM bandwidth gain per extra thread below which the
#: saturation width is reached (PE101's threshold).
SATURATION_GAIN = 1.10

#: Dispatch share of modelled layer time above which PE102 calls the
#: layer dispatch-bound.
DISPATCH_SHARE = 0.5


# ---------------------------------------------------------------------------
# roofline classifier (PE101 / PE102)
# ---------------------------------------------------------------------------
@dataclass
class RooflineRow:
    """One layer pass's roofline classification across thread counts."""

    key: str
    layer_type: str
    flops: float
    bytes: float
    intensity: float          # flops per byte
    per_threads: Dict[int, Dict[str, object]] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "type": self.layer_type,
            "flops": self.flops,
            "bytes": self.bytes,
            "intensity": round(self.intensity, 3),
            "threads": {str(t): dict(v)
                        for t, v in sorted(self.per_threads.items())},
        }


def dram_saturation_width(model, max_threads: Optional[int] = None) -> int:
    """Smallest width past which an extra thread buys <10% bandwidth.

    Scanned over the modelled machine's full core count regardless of
    the tested thread range — saturation is a machine property.
    """
    if max_threads is None:
        max_threads = model.params.cores
    max_threads = max(max_threads, 2)
    prev = model.dram_bandwidth(1)
    for t in range(2, max_threads + 1):
        bw = model.dram_bandwidth(t)
        if bw < prev * SATURATION_GAIN:
            return t - 1
        prev = bw
    return max_threads


def _classify(model, cost, width: int) -> Dict[str, object]:
    """Compute- vs bandwidth-bound verdict of one pass at ``width``."""
    p = model.params
    serial_compute = cost.flops / model.op_rate(cost.type)
    if cost.serial or width <= 1:
        mem = (cost.bytes / p.serial_bw_bytes_per_us if cost.serial
               else model.memory_time(cost.bytes, 1))
        bound = "bandwidth" if mem > serial_compute else "compute"
        return {"width": 1, "bound": bound, "path": "serial",
                "compute_us": round(serial_compute, 1),
                "memory_us": round(mem, 1)}
    used = min(width, max(cost.space, 1))
    imbalance = model._imbalance(cost.space, used)
    cores = min(model.effective_cores(used), used)
    compute = serial_compute / cores * imbalance
    mem = model.memory_time(cost.bytes, used)
    per_thread = cost.bytes / used
    path = ("cache" if per_thread <= p.cache_resident_bytes else "dram")
    return {"width": used,
            "bound": "bandwidth" if mem > compute else "compute",
            "path": path,
            "compute_us": round(compute, 1),
            "memory_us": round(mem, 1)}


def roofline_net(
    name: str,
    threads: Sequence[int],
    model,
) -> Tuple[List[RooflineRow], List[Finding]]:
    """Roofline rows + PE101/PE102 findings for one zoo net."""
    from repro.analysis.plancheck import plan_spec
    from repro.framework.symbolic import infer_net
    from repro.simulator.cost_model import costs_of
    from repro.zoo.build import zoo_spec

    spec = zoo_spec(name)
    sym = infer_net(spec)
    costs = costs_of(sym.layers)
    sat = dram_saturation_width(model)

    rows: Dict[str, RooflineRow] = {}
    findings: List[Finding] = []
    for team in sorted(set(threads)):
        plan = plan_spec(spec, net_name=name, threads=team, sym=sym).plan
        for cost in costs:
            row = rows.get(cost.key)
            if row is None:
                row = rows[cost.key] = RooflineRow(
                    key=cost.key, layer_type=cost.type, flops=cost.flops,
                    bytes=cost.bytes,
                    intensity=(cost.flops / cost.bytes if cost.bytes
                               else math.inf),
                )
            layer_name = cost.key.rsplit(".", 1)[0]
            planned = plan.layers.get(layer_name) if plan else None
            width = planned.threads if planned else min(
                team, max(cost.space, 1))
            verdict = _classify(model, cost, width)
            row.per_threads[team] = verdict
            if (verdict["bound"] == "bandwidth"
                    and verdict.get("path") == "dram"
                    and verdict["width"] > sat):
                findings.append(Finding(
                    rule="PE101", layer=f"{name}:{cost.key}",
                    message=(
                        f"planned width {verdict['width']} at T={team} "
                        f"exceeds the DRAM saturation width {sat} while "
                        "the pass is bandwidth-bound "
                        f"({verdict['memory_us']}us memory vs "
                        f"{verdict['compute_us']}us compute); the extra "
                        "threads wait on memory the planner's locality "
                        "term already prices"
                    ),
                ))
            if verdict["width"] > 1:
                total = model.layer_time(cost, width)
                dispatch = (cost.segments * model.params.dispatch_us
                            / verdict["width"])
                if total > 0 and dispatch / total > DISPATCH_SHARE:
                    findings.append(Finding(
                        rule="PE102", layer=f"{name}:{cost.key}",
                        message=(
                            f"per-segment dispatch is "
                            f"{dispatch / total:.0%} of the modelled "
                            f"{total:.1f}us at T={team}: the pass is "
                            "granularity-limited, not compute-limited"
                        ),
                    ))
    return list(rows.values()), findings


# ---------------------------------------------------------------------------
# the combined report
# ---------------------------------------------------------------------------
@dataclass
class PerfReport(Gated):
    """Static lint + roofline for a set of zoo nets."""

    nets: Tuple[str, ...]
    threads: Tuple[int, ...]
    static_findings: List[Finding] = field(default_factory=list)
    roofline: Dict[str, List[RooflineRow]] = field(default_factory=dict)
    saturation_width: int = 0
    roofline_findings: List[Finding] = field(default_factory=list)

    @property
    def findings(self) -> List[Finding]:
        return list(self.static_findings) + list(self.roofline_findings)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "nets": list(self.nets),
            "threads": list(self.threads),
            "saturation_width": self.saturation_width,
            "static_findings": [f.to_json() for f in self.static_findings],
            "roofline": {
                name: [row.to_json() for row in rows]
                for name, rows in sorted(self.roofline.items())
            },
            "findings": [f.to_json() for f in self.roofline_findings],
        }

    def summary_lines(self) -> List[str]:
        lines = [
            f"perfcheck: nets={','.join(self.nets)} "
            f"threads={','.join(str(t) for t in self.threads)}"
        ]
        lines.append(
            f"  static lint: {len(self.static_findings)} finding(s)"
        )
        for f in self.static_findings:
            lines.append("    " + f.line())
        lines.append(
            f"  roofline: DRAM saturation width {self.saturation_width}"
        )
        for name, rows in sorted(self.roofline.items()):
            bound_at_max = sum(
                1 for row in rows
                if row.per_threads.get(max(self.threads), {}).get("bound")
                == "bandwidth"
            )
            lines.append(
                f"    {name}: {len(rows)} passes, {bound_at_max} "
                f"bandwidth-bound at T={max(self.threads)}"
            )
        for f in self.roofline_findings:
            lines.append("  " + f.line())
        verdict = "OK" if self.ok else "FAILED"
        lines.append(f"  perfcheck verdict: {verdict}")
        return lines


def run_perfcheck(
    nets: Sequence[str] = DEFAULT_NETS,
    threads: Sequence[int] = DEFAULT_THREADS,
    log=lambda msg: None,
) -> PerfReport:
    """The full perfcheck pass over the given zoo nets."""
    from repro.simulator import CPUModel

    model = CPUModel()

    report = PerfReport(nets=tuple(nets), threads=tuple(threads))
    log("perfcheck: static PE lint ...")
    report.static_findings = lint_perf()

    report.saturation_width = dram_saturation_width(model)
    for name in nets:
        log(f"perfcheck: roofline {name} ...")
        rows, findings = roofline_net(name, threads, model)
        report.roofline[name] = rows
        report.roofline_findings.extend(findings)
    return report
