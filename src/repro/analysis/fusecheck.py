"""Graph-compiler certifier: fusion + arena checked by the existing gates.

``fusecheck`` takes every net through the full compiler pipeline and
holds the result to the analyzers' standards:

1. **Transform** — :func:`repro.compiler.fuse.fuse_spec` (FU001 when the
   pass itself fails, FU005 info when there is nothing to fuse).
2. **Shape parity** — the fused spec must lint clean under netcheck and
   every blob surviving fusion must keep its unfused shape (FU002).
3. **Footprint lint** — the fused layer classes run through the static
   FP analyzer; their chunk methods must classify exactly as declared
   (absorbed FP findings).
4. **Arena audit** — :func:`repro.compiler.arena.plan_arena` on the
   built net; no two simultaneously-live blobs may share storage
   (FU003), and the liveness-peak memory is reported.
5. **Cost parity** — the one cost ladder must price the fused net alike
   from its live shapes (``net_costs``) and from the inferred ones
   (FU004): a fused shape rule must report the shapes the layer takes.
6. **Plan lint** — the fused spec goes through plancheck's planner;
   its PL findings are absorbed.
7. **Replay certification** (zoo nets) — the fused net, with the arena
   applied and the planner's plan driving a thread team, must train
   bitwise identically to the *unfused sequential* baseline (FU201 on
   divergence, FU202 info on success).

The ``--gate`` contract matches the other passes: any ERROR fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import zip_longest
from typing import List, Optional, Sequence, Tuple, Union

from repro.analysis.detcheck import (
    BROKE_BITWISE,
    CERTIFIED,
    Baselines,
    Replay,
    judge,
)
from repro.analysis.plancheck import PlancheckReport, plan_spec
from repro.analysis.report import ERROR, Finding, Gated
from repro.core.reduction import BITWISE_INVARIANT
from repro.framework.net_spec import NetSpec, with_batch


@dataclass
class NetFuseReport(Gated):
    """Fusion + arena certification for one net at one team size."""

    net: str
    phase: str = "TRAIN"
    batch: Optional[int] = None
    threads: int = 1
    findings: List[Finding] = field(default_factory=list)
    fusion: Optional[dict] = None        # FusionReport.to_json()
    arena: Optional[dict] = None         # ArenaReport.to_json()
    predicted_us: float = 0.0
    uniform_us: float = 0.0

    @property
    def gate_ok(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {
            "net": self.net,
            "phase": self.phase,
            "batch": self.batch,
            "threads": self.threads,
            "ok": self.ok,
            "fusion": self.fusion,
            "arena": self.arena,
            "predicted_us": self.predicted_us,
            "uniform_us": self.uniform_us,
            "findings": [f.to_json() for f in self.findings],
        }

    def summary_lines(self) -> List[str]:
        status = "OK" if self.ok else "VIOLATIONS"
        fused = len(self.fusion["fused"]) if self.fusion else 0
        rewrites = len(self.fusion["rewrites"]) if self.fusion else 0
        line = (
            f"fusecheck: net={self.net} phase={self.phase} "
            f"threads={self.threads} -> {status} "
            f"({fused} chain(s) fused, {rewrites} in-place rewrite(s)"
        )
        if self.arena:
            line += (
                f"; arena {self.arena['baseline_bytes']} -> "
                f"{self.arena['arena_bytes']} B"
            )
        line += ")"
        lines = [line]
        if self.fusion:
            for d in self.fusion["fused"]:
                lines.append(
                    f"  {d['primary']} <- {' + '.join(d['absorbed'])} "
                    f"({d['fused_type']})"
                )
            for r in self.fusion["rewrites"]:
                lines.append(
                    f"  in-place: {r['layer']} now writes {r['new_top']} "
                    f"(was {r['old_top']})"
                )
        lines += ["  " + finding.line() for finding in self.findings]
        return lines


class FusecheckReport(PlancheckReport):
    """Top-level document: one :class:`NetFuseReport` per (net, team
    size) — same verdict, JSON and summary shape as plancheck's."""


def _fused_layer_classes():
    from repro.framework.layers.fused import (
        FusedConvolutionLayer,
        FusedEltwiseReLU,
        FusedInnerProductReLU,
        FusedScaleBias,
    )

    return [
        FusedConvolutionLayer,
        FusedInnerProductReLU,
        FusedEltwiseReLU,
        FusedScaleBias,
    ]


def check_fuse(
    spec: NetSpec,
    *,
    net_name: str = "",
    threads: int = 8,
    batch: Optional[int] = None,
) -> NetFuseReport:
    """Run the static stages (1-6 above) for one net's training phase at
    one team size."""
    from repro.analysis.footprint import analyze_classes
    from repro.analysis.netcheck import check_spec
    from repro.compiler.fuse import FusionError, fuse_spec
    from repro.framework.net import Net
    from repro.simulator.cost_model import costs_of, net_costs

    label = net_name or spec.name or "<anonymous>"
    phase = "TRAIN"
    report = NetFuseReport(
        net=label, phase=phase, batch=batch, threads=threads)

    # 1. transform
    try:
        fused_spec, fusion = fuse_spec(spec)
    except (FusionError, ValueError, KeyError) as exc:
        report.findings.append(Finding(
            "FU001", "", f"fusion pass failed for {label!r}: {exc}"))
        return report
    report.fusion = fusion.to_json()
    if not fusion.fused and not fusion.rewrites:
        report.findings.append(Finding(
            "FU005", "",
            f"no fusable chains or in-place opportunities in {label!r}"))

    # 2. netcheck + shape parity on the surviving blobs
    base_check = check_spec(spec, phase=phase, threads=[threads], batch=batch)
    fused_check = check_spec(
        fused_spec, phase=phase, threads=[threads], batch=batch)
    if not fused_check.ok:
        for f in fused_check.findings:
            if f.severity == ERROR:
                report.findings.append(Finding(
                    "FU002", f.layer,
                    f"fused spec fails netcheck [{f.rule}]: {f.message}"))
    for name, shape in fused_check.shapes.items():
        base_shape = base_check.shapes.get(name)
        if base_shape is not None and tuple(base_shape) != tuple(shape):
            report.findings.append(Finding(
                "FU002", name,
                f"shape parity violated at blob {name!r}: unfused "
                f"{tuple(base_shape)} vs fused {tuple(shape)}"))

    # 3. footprint lint of the fused layer classes
    for cls_name, layer_report in analyze_classes(
            _fused_layer_classes()).items():
        report.findings += [replace(f, layer=cls_name)
                            for f in layer_report.findings]

    # 4 + 5 need a live net; a spec that cannot build is a compiler
    # failure for zoo nets and a hard stop either way.
    net = None
    if fused_check.ok:
        try:
            net = Net(with_batch(fused_spec, batch), phase=phase)
            net.forward()
        except Exception as exc:
            report.findings.append(Finding(
                "FU001", "",
                f"fused net for {label!r} cannot be built/run: {exc}"))
            net = None
    if net is not None:
        from repro.compiler.arena import plan_arena

        arena = plan_arena(net)
        report.arena = arena.to_json()
        for a, b in arena.overlap_violations():
            report.findings.append(Finding(
                "FU003", a,
                f"arena aliasing: blobs {a!r} and {b!r} share storage "
                f"while simultaneously live"))

        for lc, sc in zip_longest(
                net_costs(net), costs_of(fused_check.sym.layers)):
            if lc != sc:
                report.findings.append(Finding(
                    "FU004", (lc or sc).name,
                    f"fused cost parity broken at {(lc or sc).key}: "
                    f"net={lc} vs spec={sc}"))
                break

    # 6. plan lint of the fused spec
    plan_report = plan_spec(
        fused_spec, net_name=label, phase=phase, threads=threads,
        batch=batch, sym=fused_check.sym)
    report.predicted_us = plan_report.predicted_us
    report.uniform_us = plan_report.uniform_us
    report.findings.extend(plan_report.findings)
    return report


def certify_fuse(
    net_name: str,
    *,
    threads: int = 8,
    iters: int = 2,
    batch: int = 4,
) -> Tuple[List[Finding], Optional[object]]:
    """Stage 7: bitwise replay of the fused+arena net vs the unfused
    sequential baseline.  Returns ``(findings, plan)``."""
    return _certify_fuse(net_name, threads, iters, batch, Baselines())


def _certify_fuse(net_name, threads, iters, batch, baselines: Baselines):
    from repro.compiler.arena import apply_arena
    from repro.compiler.fuse import fuse_spec
    from repro.zoo.build import zoo_spec

    fused_spec, _ = fuse_spec(zoo_spec(net_name))
    plan_report = plan_spec(
        fused_spec, net_name=net_name, threads=threads, batch=batch)
    findings = [f for f in plan_report.findings if f.severity == ERROR]
    if findings or plan_report.plan is None:
        return findings, plan_report.plan

    fused = Replay(net_name, iters, batch, threads, "blockwise",
                   plan_report.plan,
                   spec_transform=lambda s: fuse_spec(s)[0],
                   post_build=apply_arena)
    verdict = judge(baselines[net_name, iters, batch], fused,
                    BITWISE_INVARIANT)
    findings += verdict.findings(BITWISE_INVARIANT, {
        BROKE_BITWISE: ("FU201", lambda d: (
            "fused+arena replay diverges from the unfused sequential "
            f"baseline: {d.describe()}")),
        CERTIFIED: ("FU202", lambda d: (
            "fused+arena replay bitwise-identical to the unfused "
            f"sequential baseline ({iters} iters, batch {batch}, "
            f"{threads} thread(s))")),
    })
    return findings, plan_report.plan


def run_fusecheck(
    nets: Sequence[Union[str, Tuple[str, NetSpec]]],
    threads: Sequence[int] = (1, 2, 8),
    batch: Optional[int] = None,
    certify: bool = False,
    certify_iters: int = 2,
    certify_batch: int = 4,
) -> FusecheckReport:
    """Compile + check every requested net at every team size.

    A net is a zoo name, or a ``(label, NetSpec)`` pair for a spec from
    anywhere else (a user prototxt); only zoo nets can be replayed, so
    ``certify`` skips the pairs.
    """
    from repro.zoo.build import zoo_spec

    report = FusecheckReport()
    baselines = Baselines()
    for net in nets:
        in_zoo = isinstance(net, str)
        name, spec = (net, zoo_spec(net)) if in_zoo else net
        for team in threads:
            net_report = check_fuse(
                spec, net_name=name, threads=team, batch=batch)
            if certify and in_zoo:
                certify_findings, _ = _certify_fuse(
                    name, team, certify_iters, certify_batch, baselines)
                net_report.findings.extend(certify_findings)
            report.reports.append(net_report)
    return report
