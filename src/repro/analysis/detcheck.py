"""Determinism certifier: configuration tier rules + bitwise replay.

The paper's convergence-invariance claim (Section 4.3) is a statement
about *trajectories*: swapping the sequential executor for the parallel
one must not change the training parameters.  PR 1 certified the memory
model (no races) and PR 2 the graph (shapes/DAG); this pass certifies
the *numerics*.  It has three parts:

1. the static RNG lint (:mod:`repro.analysis.rng_lint`, DC001-DC007),
2. configuration tier rules (:func:`classify_config`, DC101-DC104) that
   reject a (net, solver, reduction-mode, threads) tuple claiming an
   invariance tier its reduction mode cannot deliver, and
3. the dynamic replay certifier (:func:`certify_mode`), which actually
   trains each zoo net for a few iterations at several thread counts
   and diffs the full trajectory — loss, per-parameter update values,
   and parameters — bitwise and in ULPs against the sequential run.

The tiers (:mod:`repro.core.reduction`) order the guarantees:

* ``bitwise_invariant`` — the trajectory is byte-identical at every
  thread count (``blockwise``, and every mode at T=1);
* ``deterministic_per_t`` — two runs at the same T are byte-identical,
  but different T reassociate the gradient sums (``ordered``/``tree``);
* ``nondeterministic`` — the merge order depends on thread completion
  (``atomic``), so not even replay is guaranteed.

A tier violation observed dynamically is DC201 (bitwise promised,
divergence found) or DC202 (replay at fixed T diverged).  Divergence
*within* the declared tier is reported as DC203 (info) with the first
diverging iteration, site, and owning layer — the certifier's answer to
"where does atomic first leave the sequential trajectory?".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.codes import CODE_CATALOGUE
from repro.analysis.report import ERROR, INFO, WARNING, Finding
from repro.analysis.rng_lint import class_constructs_rng, lint_rng
from repro.core.reduction import (
    BITWISE_INVARIANT,
    DETERMINISTIC_PER_T,
    NONDETERMINISTIC,
    REDUCTION_MODES,
    TIER_ORDER,
    invariance_tier,
)
from repro.zoo.build import build_solver, zoo_solver_params, zoo_spec

#: Solver types the certifier has exercised; others run fine but get a
#: DC104 warning because no replay evidence backs them.
_CERTIFIED_SOLVERS = {"sgd", "adagrad", "nesterov"}

#: Reduction modes exercised by default (atomic is opt-in: its tier
#: promises nothing a gate could enforce).
DEFAULT_MODES = ("blockwise", "ordered", "tree")
DEFAULT_THREADS = (1, 2, 8)


# ---------------------------------------------------------------------------
# ULP distance
# ---------------------------------------------------------------------------
def _ulp_keys32(values: np.ndarray) -> np.ndarray:
    """Monotone integer key per float32: |key(a)-key(b)| == ULP distance."""
    u = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
    u = u.astype(np.int64)
    return np.where(u < 2**31, u + 2**31, 2**32 - u)


def ulp_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Max ULP distance between two equal-shape float32 arrays."""
    if a.size == 0:
        return 0
    return int(np.abs(_ulp_keys32(a) - _ulp_keys32(b)).max())


def _ulp_key64(value: float) -> int:
    (u,) = struct.unpack("<Q", struct.pack("<d", value))
    return u + 2**63 if u < 2**63 else 2**64 - u


def ulp_distance_scalar(a: float, b: float) -> int:
    """ULP distance between two float64 scalars (e.g. loss values)."""
    return abs(_ulp_key64(a) - _ulp_key64(b))


# ---------------------------------------------------------------------------
# trajectory capture
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class IterationSnapshot:
    """Bitwise record of one solver step."""

    loss: float
    updates: Tuple[np.ndarray, ...]   # blob.flat_diff after apply_update
    params: Tuple[np.ndarray, ...]    # blob.flat_data after apply_update


@dataclass(frozen=True)
class Trajectory:
    param_names: Tuple[str, ...]
    param_owners: Tuple[str, ...]
    snapshots: Tuple[IterationSnapshot, ...]


def snapshot_steps(solver, iters: int) -> List[IterationSnapshot]:
    """Advance ``solver`` by ``iters`` steps, recording each bitwise."""
    net = solver.net
    snapshots = []
    for _ in range(iters):
        solver.step(1)
        snapshots.append(IterationSnapshot(
            loss=solver.loss_history[-1],
            updates=tuple(b.flat_diff.copy() for b in net.learnable_params),
            params=tuple(b.flat_data.copy() for b in net.learnable_params),
        ))
    return snapshots


def trajectory_of(net, snapshots: Sequence[IterationSnapshot]) -> Trajectory:
    """Label ``snapshots`` with ``net``'s parameter names and owners."""
    return Trajectory(
        param_names=tuple(b.name for b in net.learnable_params),
        param_owners=tuple(net.param_owners),
        snapshots=tuple(snapshots),
    )


def capture_trajectory(
    name: str,
    iters: int,
    batch: Optional[int] = None,
    threads: int = 0,
    mode: str = "blockwise",
    plan=None,
    spec_transform=None,
    post_build=None,
) -> Trajectory:
    """Train ``name`` for ``iters`` steps and snapshot every step bitwise.

    ``threads == 0`` is the plain sequential baseline (no executor
    machinery at all); otherwise a :class:`ParallelExecutor` with
    ``threads`` threads and reduction ``mode`` drives the net.  ``plan``
    optionally supplies a per-layer
    :class:`~repro.core.plan.ExecutionPlan` (plancheck's tier
    certification replays planned configurations through this path).
    ``spec_transform`` rewrites the zoo spec before the net is built and
    ``post_build`` mutates the built net (fusecheck certifies the graph
    compiler by replaying fused+arena nets through these hooks).
    """
    from repro.core import ParallelExecutor

    def run(executor) -> Trajectory:
        solver = build_solver(name, iters, executor=executor, batch=batch,
                              spec_transform=spec_transform,
                              post_build=post_build)
        return trajectory_of(solver.net, snapshot_steps(solver, iters))

    if threads == 0:
        return run(None)
    with ParallelExecutor(
        num_threads=threads, reduction=mode, plan=plan
    ) as executor:
        return run(executor)


# ---------------------------------------------------------------------------
# trajectory comparison
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Divergence:
    """First chronological point where two trajectories differ."""

    iteration: int
    site: str        # "loss", "update:<blob>", or "param:<blob>"
    layer: str       # owning layer instance name ("" for the loss)
    max_ulps: int
    max_abs: float
    count: int       # differing scalar positions at the site

    def describe(self) -> str:
        where = f"layer {self.layer!r}, " if self.layer else ""
        return (
            f"iteration {self.iteration}, {where}site {self.site}: "
            f"{self.count} value(s) differ, max {self.max_ulps} ULPs "
            f"(max abs diff {self.max_abs:.3e})"
        )

    def to_json(self) -> dict:
        return {
            "iteration": self.iteration,
            "site": self.site,
            "layer": self.layer,
            "max_ulps": self.max_ulps,
            "max_abs": self.max_abs,
            "count": self.count,
        }


def _array_divergence(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        return len(a) or 1, float("inf"), max(len(a), len(b))
    neq = a != b
    # NaNs compare unequal to themselves; treat equal-bit NaNs as equal.
    both_nan = np.isnan(a) & np.isnan(b)
    neq &= ~(both_nan & (a.view(np.uint32) == b.view(np.uint32)))
    if not neq.any():
        return None
    return (
        ulp_distance(a[neq], b[neq]),
        float(np.abs(a[neq].astype(np.float64)
                     - b[neq].astype(np.float64)).max()),
        int(neq.sum()),
    )


def first_divergence(a: Trajectory, b: Trajectory) -> Optional[Divergence]:
    """Scan two trajectories in chronological order.

    Within one iteration the forward pass (loss) happens first, then the
    backward pass computes update values in *reverse* layer order, then
    ``apply_update`` writes the parameters — the scan follows that order
    so the reported site is the earliest computation that differed,
    i.e. the layer where the numerics first fork.
    """
    names, owners = a.param_names, a.param_owners
    for i, (sa, sb) in enumerate(zip(a.snapshots, b.snapshots)):
        if struct.pack("<d", sa.loss) != struct.pack("<d", sb.loss):
            return Divergence(
                iteration=i, site="loss", layer="",
                max_ulps=ulp_distance_scalar(sa.loss, sb.loss),
                max_abs=abs(sa.loss - sb.loss), count=1,
            )
        for idx in reversed(range(len(names))):
            diff = _array_divergence(sa.updates[idx], sb.updates[idx])
            if diff is not None:
                ulps, max_abs, count = diff
                return Divergence(
                    iteration=i, site=f"update:{names[idx]}",
                    layer=owners[idx], max_ulps=ulps, max_abs=max_abs,
                    count=count,
                )
        for idx in range(len(names)):
            diff = _array_divergence(sa.params[idx], sb.params[idx])
            if diff is not None:
                ulps, max_abs, count = diff
                return Divergence(
                    iteration=i, site=f"param:{names[idx]}",
                    layer=owners[idx], max_ulps=ulps, max_abs=max_abs,
                    count=count,
                )
    return None


# ---------------------------------------------------------------------------
# configuration tier rules (DC101-DC104)
# ---------------------------------------------------------------------------
def classify_config(
    net: str,
    mode: str,
    threads: Sequence[int],
    spec=None,
    solver_type: Optional[str] = None,
    claim: Optional[str] = None,
    schedule_static: bool = True,
) -> List[Finding]:
    """Static lint of one (net, solver, reduction-mode, threads) tuple."""
    where = f"<config:{net}/{mode}>"
    findings: List[Finding] = []
    if mode not in REDUCTION_MODES:
        return [Finding(
            rule="DC101", severity=ERROR, layer=where,
            message=f"unknown reduction mode {mode!r}; "
                    f"have {REDUCTION_MODES}",
        )]
    tier = invariance_tier(mode, schedule_static)
    if not schedule_static and mode in ("ordered", "tree"):
        findings.append(Finding(
            rule="DC102", severity=ERROR, layer=where,
            message=(
                f"{mode} reduction under a dynamic/guided schedule "
                "degrades to nondeterministic: chunk ownership varies "
                "per run, so the merge order does too; use a static "
                "schedule or the blockwise reduction"
            ),
        ))
    if claim is not None:
        if claim not in TIER_ORDER:
            findings.append(Finding(
                rule="DC101", severity=ERROR, layer=where,
                message=f"unknown invariance tier {claim!r}; "
                        f"have {sorted(TIER_ORDER)}",
            ))
        elif (TIER_ORDER[claim] > TIER_ORDER[tier]
              and max(threads, default=1) > 1):
            # At T=1 every mode short-circuits to the sequential loop,
            # so any claim is trivially met.
            findings.append(Finding(
                rule="DC101", severity=ERROR, layer=where,
                message=(
                    f"configuration claims tier {claim!r} but the "
                    f"{mode} reduction guarantees at most {tier!r} at "
                    f"T > 1; no run can certify this claim"
                ),
            ))
    if spec is not None:
        findings.extend(_check_spec_rng(net, spec))
    if solver_type is not None and (
            solver_type.lower() not in _CERTIFIED_SOLVERS):
        findings.append(Finding(
            rule="DC104", severity=WARNING, layer=where,
            message=(
                f"solver type {solver_type!r} is outside the "
                "deterministic-certified set "
                f"{sorted(_CERTIFIED_SOLVERS)}; no replay evidence "
                "backs its update rule"
            ),
        ))
    return findings


def _check_spec_rng(net: str, spec) -> List[Finding]:
    """DC103: every stochastic layer in the net must carry a provenance
    declaration, else the certificate would vouch for a stream nobody
    described."""
    from repro.framework.layer import registered_layer_class

    findings: List[Finding] = []
    try:
        layer_specs = spec.layers_for_phase("TRAIN")
    except AttributeError:
        layer_specs = spec.layers
    for layer_spec in layer_specs:
        cls = registered_layer_class(layer_spec.type)
        if cls is None:
            continue  # NG007's problem, not ours
        constructs = any(class_constructs_rng(c) for c in cls.__mro__
                        if c is not object)
        if constructs and getattr(cls, "rng_provenance", None) is None:
            findings.append(Finding(
                rule="DC103", severity=ERROR,
                layer=f"{net}/{layer_spec.name}",
                message=(
                    f"stochastic layer {layer_spec.name!r} "
                    f"({layer_spec.type}) constructs an RNG but its class "
                    f"{cls.__name__} declares no rng_provenance; the "
                    "configuration cannot be certified"
                ),
            ))
    return findings


# ---------------------------------------------------------------------------
# dynamic replay certification (DC201-DC203)
# ---------------------------------------------------------------------------
@dataclass
class ModeCertificate:
    """Replay evidence for one (net, reduction mode) pair."""

    net: str
    mode: str
    promised_tier: str
    observed_tier: str = NONDETERMINISTIC
    threads: List[int] = field(default_factory=list)
    iters: int = 0
    bitwise_vs_sequential: Dict[int, bool] = field(default_factory=dict)
    replay_deterministic: Dict[int, bool] = field(default_factory=dict)
    first_divergence: Dict[int, Optional[Divergence]] = field(
        default_factory=dict)
    findings: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(f.severity == ERROR for f in self.findings)

    def to_json(self) -> dict:
        return {
            "net": self.net,
            "mode": self.mode,
            "promised_tier": self.promised_tier,
            "observed_tier": self.observed_tier,
            "threads": list(self.threads),
            "iters": self.iters,
            "ok": self.ok,
            "bitwise_vs_sequential": {
                str(t): v for t, v in self.bitwise_vs_sequential.items()},
            "replay_deterministic": {
                str(t): v for t, v in self.replay_deterministic.items()},
            "first_divergence": {
                str(t): None if d is None else d.to_json()
                for t, d in self.first_divergence.items()},
            "findings": [f.to_json() for f in self.findings],
        }


def certify_mode(
    net: str,
    mode: str,
    threads: Sequence[int],
    iters: int = 2,
    batch: Optional[int] = 4,
    sequential: Optional[Trajectory] = None,
) -> ModeCertificate:
    """Train ``net`` under ``mode`` at each thread count and certify."""
    promised = invariance_tier(mode)
    cert = ModeCertificate(
        net=net, mode=mode, promised_tier=promised,
        threads=sorted(set(threads)), iters=iters,
    )
    if sequential is None:
        sequential = capture_trajectory(net, iters, batch)

    for t in cert.threads:
        run1 = capture_trajectory(net, iters, batch, threads=t, mode=mode)
        div = first_divergence(sequential, run1)
        cert.bitwise_vs_sequential[t] = div is None
        cert.first_divergence[t] = div
        if t > 1:
            run2 = capture_trajectory(net, iters, batch, threads=t,
                                      mode=mode)
            cert.replay_deterministic[t] = (
                first_divergence(run1, run2) is None)

        where = f"{net}/{mode}@T={t}"
        must_be_bitwise = t == 1 or promised == BITWISE_INVARIANT
        if must_be_bitwise and div is not None:
            cert.findings.append(Finding(
                rule="DC201", severity=ERROR, layer=where,
                message=(
                    f"tier {promised!r} promises a bitwise-identical "
                    f"trajectory but the parallel run diverged: "
                    f"{div.describe()}"
                ),
            ))
        elif (t > 1 and promised == DETERMINISTIC_PER_T
              and not cert.replay_deterministic[t]):
            cert.findings.append(Finding(
                rule="DC202", severity=ERROR, layer=where,
                message=(
                    f"tier {promised!r} promises replay determinism at "
                    f"fixed T but two runs at T={t} diverged"
                ),
            ))
        elif div is not None:
            cert.findings.append(Finding(
                rule="DC203", severity=INFO, layer=where,
                message=(
                    "diverges from the sequential trajectory within its "
                    f"tier ({promised!r}): {div.describe()}"
                ),
            ))

    if all(cert.bitwise_vs_sequential.values()):
        cert.observed_tier = BITWISE_INVARIANT
    elif all(cert.replay_deterministic.values()):
        cert.observed_tier = DETERMINISTIC_PER_T
    else:
        cert.observed_tier = NONDETERMINISTIC
    return cert


# ---------------------------------------------------------------------------
# top-level report
# ---------------------------------------------------------------------------
@dataclass
class DetcheckReport:
    """Static lint + configuration rules + replay certificates."""

    static_findings: List[Finding] = field(default_factory=list)
    config_findings: List[Finding] = field(default_factory=list)
    certificates: List[ModeCertificate] = field(default_factory=list)

    @property
    def findings(self) -> List[Finding]:
        out = self.static_findings + self.config_findings
        for cert in self.certificates:
            out.extend(cert.findings)
        return out

    @property
    def ok(self) -> bool:
        return not any(f.severity == ERROR for f in self.findings)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "static_findings": [f.to_json() for f in self.static_findings],
            "config_findings": [f.to_json() for f in self.config_findings],
            "certificates": [c.to_json() for c in self.certificates],
        }

    def summary_lines(self) -> List[str]:
        def count(findings, severity):
            return sum(1 for f in findings if f.severity == severity)

        lines = [
            f"detcheck static: {count(self.static_findings, ERROR)} "
            f"error(s), {count(self.static_findings, WARNING)} warning(s) "
            "from the RNG/nondeterminism lint"
        ]
        for f in self.static_findings:
            lines.append(f"  [{f.rule}/{f.severity}] {f.layer}: {f.message}")
        if self.config_findings:
            lines.append(
                f"detcheck config: {count(self.config_findings, ERROR)} "
                f"error(s), {count(self.config_findings, WARNING)} "
                "warning(s)")
            for f in self.config_findings:
                lines.append(
                    f"  [{f.rule}/{f.severity}] {f.layer}: {f.message}")
        for cert in self.certificates:
            bits = ",".join(
                f"T={t}:{'=' if ok else '!='}"
                for t, ok in sorted(cert.bitwise_vs_sequential.items()))
            lines.append(
                f"certificate: net={cert.net} mode={cert.mode} "
                f"promised={cert.promised_tier} observed="
                f"{cert.observed_tier} vs-sequential[{bits}] -> "
                f"{'OK' if cert.ok else 'VIOLATION'}")
            for f in cert.findings:
                lines.append(
                    f"  [{f.rule}/{f.severity}] {f.layer}: {f.message}")
        lines.append(
            "verdict: " + ("CERTIFIED" if self.ok else "VIOLATIONS FOUND"))
        return lines


def run_detcheck(
    nets: Iterable[str] = ("lenet", "cifar10", "mlp"),
    modes: Iterable[str] = DEFAULT_MODES,
    threads: Sequence[int] = DEFAULT_THREADS,
    iters: int = 2,
    batch: Optional[int] = 4,
    claim: Optional[str] = None,
    static_only: bool = False,
) -> DetcheckReport:
    """The full determinism-certification pass.

    Static half always runs (source lint + layer provenance + config
    rules); the dynamic half trains every requested zoo net under every
    reduction mode at every thread count unless ``static_only``.
    """
    assert all(code in CODE_CATALOGUE
               for code in ("DC001", "DC101", "DC201"))
    report = DetcheckReport(static_findings=lint_rng())

    nets = list(nets)
    modes = list(modes)
    for name in nets:
        spec = zoo_spec(name)
        solver_type = zoo_solver_params(name, max_iter=1).type
        for mode in modes:
            report.config_findings.extend(classify_config(
                name, mode, threads, spec=spec, solver_type=solver_type,
                claim=claim,
            ))
    # One spec-level DC103 sweep per net is enough; drop per-mode repeats.
    seen = set()
    deduped = []
    for f in report.config_findings:
        key = (f.rule, f.layer, f.message)
        if key not in seen:
            seen.add(key)
            deduped.append(f)
    report.config_findings = deduped

    if not static_only:
        for name in nets:
            sequential = capture_trajectory(name, iters, batch)
            for mode in modes:
                report.certificates.append(certify_mode(
                    name, mode, threads, iters=iters, batch=batch,
                    sequential=sequential,
                ))
    return report
