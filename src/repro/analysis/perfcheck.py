"""Performance certifier: PE static lint, roofline classifier, and
cost-model calibration (the ninth analyzer family).

The paper's coarse-grain claim is a *performance* claim, and the planner
(PL) optimizes against :class:`~repro.simulator.cpu_model.CPUModel` —
so two things need certifying that no correctness gate covers: the
source stays free of the anti-patterns that eat the planned speedups,
and the cost model keeps predicting the machine it runs on.  Three
passes:

* **Static lint (PE001-PE005)** — :mod:`repro.analysis.perflint`:
  float64 upcast creep, hot-loop allocations, contiguity copies, and
  iteration-space-sized Python loops in chunk-reachable code, checked
  against each layer's declared
  :class:`~repro.framework.layer.PerfDecl` allow-list.
* **Roofline classifier (PE101/PE102)** — from
  :func:`~repro.simulator.cost_model.net_costs` and the CPU model:
  per-layer arithmetic intensity and compute- vs bandwidth-bound
  classification at each thread count.  PE101 (INFO) surfaces layers
  whose *planned* thread width exceeds the DRAM bandwidth saturation
  width — the point where an extra thread buys <10% more bandwidth —
  while the layer is DRAM-bound, i.e. threads the planner spent that
  the memory system cannot feed.  PE102 (INFO) flags layers whose
  modelled time is majority per-segment dispatch (granularity-limited).
* **Calibration certifier (PE201-PE203)** — times every zoo layer
  fwd/bwd through :class:`~repro.core.trace.TracingExecutor` at each
  thread count (median-of-k, BLAS pools pinned), compares against
  ``CPUModel.layer_times``, and gates on drift.  Absolute microseconds
  are host-specific — the model is calibrated to the paper's Xeon, the
  measuring container is whatever CI hands us — so a global scale
  (geometric mean of measured/predicted over all quiet layers) absorbs
  the host difference, and the gate checks the *per-layer-type
  residuals* around that scale: the model's job here is ranking layers
  and thread counts for the planner, which survives a uniform rescale
  but not a per-type bias.  PE201 (ERROR) fires when a (type, pass)
  geomean residual leaves the tolerance band; PE203 (WARNING) marks
  measurements too noisy to use (MAD/median above 0.5, or under the
  noise floor); PE202 (INFO) summarizes each fit.

The calibration run is written to ``BENCH_perf.json`` in the
``repro-bench/1`` envelope (:mod:`repro.bench.schema`) so CI can diff
successive runs on the same host.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.perflint import lint_perf
from repro.analysis.report import ERROR, INFO, WARNING, Finding

DEFAULT_NETS = ("lenet", "cifar10", "mlp")
DEFAULT_THREADS = (1, 2, 8)
DEFAULT_ITERS = 3
DEFAULT_WARMUP = 1

#: Band half-width for PE201: a (type, pass) geomean residual outside
#: [1/tol, tol] of the fitted global scale fails the gate.  Python-level
#: per-type overheads differ (a numpy pooling plane walk and a BLAS gemm
#: sit at different distances from the model's C-like efficiency
#: assumptions), so the band is wide; what it refuses is a *systematic*
#: per-type bias large enough to invert the planner's layer ranking.
DEFAULT_TOLERANCE = 8.0

#: Layers measured below this are timer noise on any host; they never
#: enter the scale fit or the gate (they stay in the report).
NOISE_FLOOR_US = 50.0

#: MAD/median above this marks a measurement unstable (PE203).
NOISY_MAD_RATIO = 0.5

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
    from repro.simulator.cost_model import spec_costs
    from repro.zoo.build import zoo_spec

    costs = spec_costs(zoo_spec(name))
    sat = dram_saturation_width(model)

    rows: Dict[str, RooflineRow] = {}
    findings: List[Finding] = []
    for team in sorted(set(threads)):
        plan = plan_spec(zoo_spec(name), net_name=name, threads=team).plan
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
                    rule="PE101", severity=INFO, layer=f"{name}:{cost.key}",
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
                        rule="PE102", severity=INFO,
                        layer=f"{name}:{cost.key}",
                        message=(
                            f"per-segment dispatch is "
                            f"{dispatch / total:.0%} of the modelled "
                            f"{total:.1f}us at T={team}: the pass is "
                            "granularity-limited, not compute-limited"
                        ),
                    ))
    return list(rows.values()), findings


# ---------------------------------------------------------------------------
# calibration certifier (PE201 / PE202 / PE203)
# ---------------------------------------------------------------------------
def _geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _measure_net(
    name: str, team: int, iters: int, warmup: int
) -> Tuple[Dict[str, List[float]], object]:
    """Per-(layer, pass) microsecond samples over ``iters`` iterations.

    Returns ``(samples, net)`` — the net is reused for cost extraction
    so predictions see the measured batch geometry.
    """
    from repro.core import ParallelExecutor, TracingExecutor
    from repro.framework.solvers.base import SequentialExecutor
    from repro.zoo import build_net

    net = build_net(name)
    if team > 1:
        inner = ParallelExecutor(num_threads=team, reduction="blockwise")
    else:
        inner = SequentialExecutor()
    tracer = TracingExecutor(inner)
    samples: Dict[str, List[float]] = {}
    try:
        for _ in range(max(warmup, 0)):
            net.clear_param_diffs()
            tracer.forward(net)
            tracer.backward(net)
        for _ in range(max(iters, 1)):
            tracer.trace.clear()
            net.clear_param_diffs()
            tracer.forward(net)
            tracer.backward(net)
            for (layer, pass_), secs in tracer.trace.totals().items():
                suffix = "fwd" if pass_ == "forward" else "bwd"
                samples.setdefault(f"{layer}.{suffix}", []).append(secs * 1e6)
    finally:
        if isinstance(inner, ParallelExecutor):
            inner.close()
    return samples, net


def calibrate_net(
    name: str,
    threads: Sequence[int],
    iters: int,
    warmup: int,
    model,
    residual_pool: Dict[Tuple[str, str], List[float]],
) -> Tuple[Dict[str, object], List[Finding]]:
    """Measure one net at every team size; returns (BENCH entry, findings).

    Per-type residuals are appended to ``residual_pool`` so the PE201
    gate aggregates across every net before judging a layer type.
    """
    from repro.simulator import net_costs

    findings: List[Finding] = []
    per_team: Dict[str, object] = {}
    batch = None
    for team in threads:
        samples, net = _measure_net(name, team, iters, warmup)
        if net.tops and net.tops[0]:
            batch = net.tops[0][0].shape[0]
        costs = list(net_costs(net))
        predicted = model.layer_times(costs, team)
        kinds = {c.key: (c.type, c.pass_) for c in costs}

        records: Dict[str, Dict[str, object]] = {}
        fit: List[Tuple[str, float, float]] = []  # (key, measured, predicted)
        for key in sorted(samples):
            values = samples[key]
            med = statistics.median(values)
            mad = statistics.median([abs(v - med) for v in values])
            pred = predicted.get(key)
            noisy = (med <= 0 or (len(values) > 1 and mad / med
                                  > NOISY_MAD_RATIO))
            quiet = (not noisy and med >= NOISE_FLOOR_US
                     and pred is not None and pred > 0)
            records[key] = {
                "measured_us": round(med, 1),
                "mad_us": round(mad, 1),
                "predicted_us": (None if pred is None else round(pred, 1)),
                "residual": None,
                "noisy": not quiet,
            }
            if quiet:
                fit.append((key, med, pred))
            elif noisy and med >= NOISE_FLOOR_US:
                findings.append(Finding(
                    rule="PE203", severity=WARNING,
                    layer=f"{name}:{key}",
                    message=(
                        f"unstable measurement at T={team}: median "
                        f"{med:.1f}us with MAD {mad:.1f}us over {iters} "
                        "iterations; excluded from the calibration fit"
                    ),
                ))

        scale = _geomean([m / p for _, m, p in fit]) if fit else 1.0
        residuals = []
        for key, measured, pred in fit:
            residual = (measured / pred) / scale
            records[key]["residual"] = round(residual, 3)
            residuals.append(residual)
            kind = kinds.get(key)
            if kind is not None:
                residual_pool.setdefault(kind, []).append(residual)
        spread = (f"[{min(residuals):.2f}, {max(residuals):.2f}]"
                  if residuals else "[]")
        findings.append(Finding(
            rule="PE202", severity=INFO, layer=name,
            message=(
                f"T={team}: host/model scale {scale:.2f}x over "
                f"{len(fit)} quiet layer passes, residual spread {spread}"
            ),
        ))
        per_team[str(team)] = {"scale": round(scale, 4), "layers": records}

    entry = {"iters": iters, "warmup": warmup, "threads": per_team}
    if batch is not None:
        entry["batch"] = int(batch)
    return entry, findings


def judge_residuals(
    residual_pool: Dict[Tuple[str, str], List[float]],
    tolerance: float,
    severity: str = ERROR,
) -> Tuple[Dict[str, float], List[Finding]]:
    """PE201 over the pooled per-(type, pass) residuals."""
    findings: List[Finding] = []
    summary: Dict[str, float] = {}
    for (layer_type, pass_), residuals in sorted(residual_pool.items()):
        geo = _geomean(residuals)
        summary[f"{layer_type}.{pass_}"] = round(geo, 3)
        if geo > tolerance or geo < 1.0 / tolerance:
            findings.append(Finding(
                rule="PE201", severity=severity,
                layer=f"{layer_type}.{pass_}",
                message=(
                    f"calibration drift: measured/predicted residual "
                    f"{geo:.2f}x (geomean over {len(residuals)} "
                    f"measurements) outside the [{1.0 / tolerance:.3f}, "
                    f"{tolerance:.1f}] tolerance band; recalibrate "
                    "op_efficiency for this layer type or investigate "
                    "the regression"
                ),
            ))
    return summary, findings


# ---------------------------------------------------------------------------
# the combined report
# ---------------------------------------------------------------------------
@dataclass
class PerfReport:
    """Static lint + roofline + calibration for a set of zoo nets."""

    nets: Tuple[str, ...]
    threads: Tuple[int, ...]
    static_findings: List[Finding] = field(default_factory=list)
    roofline: Dict[str, List[RooflineRow]] = field(default_factory=dict)
    saturation_width: int = 0
    calibration_findings: List[Finding] = field(default_factory=list)
    type_residuals: Dict[str, float] = field(default_factory=dict)
    bench_nets: Dict[str, object] = field(default_factory=dict)
    timing_ran: bool = False
    timer: Optional[Dict[str, object]] = None

    @property
    def findings(self) -> List[Finding]:
        return list(self.static_findings) + list(self.calibration_findings)

    @property
    def ok(self) -> bool:
        return not any(f.severity == ERROR for f in self.findings)

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
            "type_residuals": dict(sorted(self.type_residuals.items())),
            "timing_ran": self.timing_ran,
            "findings": [f.to_json() for f in self.calibration_findings],
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
            lines.append(f"    {f.rule} [{f.severity}] {f.layer}: "
                         f"{f.message}")
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
        if self.timing_ran:
            lines.append("  calibration:")
            for key, value in sorted(self.type_residuals.items()):
                lines.append(f"    residual {key}: {value:.2f}x")
        else:
            lines.append("  calibration: skipped (--static-only)")
        for f in self.calibration_findings:
            lines.append(f"  {f.rule} [{f.severity}] {f.layer}: {f.message}")
        verdict = "OK" if self.ok else "FAILED"
        lines.append(f"  perfcheck verdict: {verdict}")
        return lines


def run_perfcheck(
    nets: Sequence[str] = DEFAULT_NETS,
    threads: Sequence[int] = DEFAULT_THREADS,
    iters: int = DEFAULT_ITERS,
    warmup: int = DEFAULT_WARMUP,
    tolerance: float = DEFAULT_TOLERANCE,
    static_only: bool = False,
    timing_warn_only: bool = False,
    model=None,
    log=lambda msg: None,
) -> PerfReport:
    """The full perfcheck pass over the given zoo nets."""
    from repro.bench.pinning import pin_blas_threads

    blas = pin_blas_threads()
    if model is None:
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
        report.calibration_findings.extend(findings)

    if not static_only:
        residual_pool: Dict[Tuple[str, str], List[float]] = {}
        for name in nets:
            log(f"perfcheck: calibrating {name} at "
                f"T={','.join(str(t) for t in threads)} "
                f"(iters={iters}, warmup={warmup}) ...")
            entry, findings = calibrate_net(
                name, threads, iters, warmup, model, residual_pool,
            )
            report.bench_nets[name] = entry
            report.calibration_findings.extend(findings)
        severity = WARNING if timing_warn_only else ERROR
        residual_summary, drift = judge_residuals(
            residual_pool, tolerance, severity)
        report.type_residuals = residual_summary
        report.calibration_findings.extend(drift)
        report.timing_ran = True
        report.timer = {"iters": iters, "warmup": warmup,
                        "clock": "perf_counter", "blas": blas}
    return report
