"""Resilience certifier: static state-write lint + dynamic recovery gate.

Fourth coded analysis pass (after FP/RT, NG, DC).  The paper's
convergence-invariance claim survives a real training run only if the
runtime can crash, resume, and contain faults *without forking the
certified trajectory* — that is what this pass proves, per zoo net and
reduction mode:

1. **Static lint** (RS001-RS004) — parses the runtime sources and
   inspects the registered layer / batch-source classes for state that
   would escape the resilience machinery: raw ``np.savez``/``np.save``
   outside the atomic checkpoint writer (a crash mid-save destroys the
   previous snapshot), raw ``np.load`` (corruption surfaces as a zipfile
   traceback instead of a coded error), per-forward RNG streams the
   checkpoint cannot capture, and batch sources without a cursor.
2. **Resume certification** (RS101/RS102) — for each net x mode x T:
   train ``iters`` iterations uninterrupted, then train with a
   checkpoint+fresh-process-style resume at the midpoint, and diff the
   two trajectories bitwise (loss, update values, parameters, every
   iteration).  Within each certified mode's invariance tier the resumed
   run must be byte-identical.  Save -> load -> save must also be
   bitwise stable (no silent state loss).
3. **Fault certification** (RS201-RS204) — the deterministic injection
   harness (:mod:`repro.resilience.faults`) fires every fault class and
   the certifier checks the *configured* recovery behaviour: a chunk
   abort must surface its root cause and leave the thread team reusable
   (no hang, no torn state); a layer exception under a
   :class:`~repro.resilience.guards.HealthGuard` must restore the
   pre-iteration state bitwise; NaN injection must honour each guard
   policy (halt / skip-batch / rollback); a crash after a checkpoint
   must resume onto the reference trajectory; and corrupt / truncated /
   old-format checkpoint files must be rejected with coded errors.

``--gate`` fails on any ERROR finding, like the sibling passes.
"""

from __future__ import annotations

import ast
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.analysis.detcheck import BROKE_BITWISE, Replay, judge
from repro.analysis.report import ERROR, Finding, Gated, tally
from repro.analysis.rng_lint import rng_owners, rng_sites
from repro.analysis.sources import (
    Rule,
    _dotted,
    builtin_layer_classes,
    own_contract,
    package_roots,
    visit,
)
from repro.core.reduction import BITWISE_INVARIANT
from repro.resilience.faults import fault_target_layer

#: Modes certified by default; atomic's tier promises nothing bitwise a
#: resume could be checked against, so it is opt-in (mirrors detcheck).
DEFAULT_MODES = ("blockwise", "ordered", "tree")
DEFAULT_THREADS = (1, 2, 8)

#: Wall-clock bound for any injected-fault run; exceeding it is a hang
#: (RS201), the exact failure mode a broken barrier abort produces.
FAULT_TIMEOUT_S = 60.0

#: Files allowed to call np.savez/np.load directly: the atomic writer
#: itself is the single place raw serialization is supposed to live.
_WRITER_ALLOWLIST = ("resilience/checkpoint.py",)


# ---------------------------------------------------------------------------
# static lint (RS001-RS004)
# ---------------------------------------------------------------------------
_RAW_WRITERS = {"savez", "savez_compressed", "save"}
_NUMPY_NAMES = ("np", "numpy")


#: Packages that may touch trajectory state on disk.
_STATE_PACKAGES = ("core", "framework", "data", "resilience", "tools")


class _StateWriteRule(Rule):
    """RS001/RS002 on every numpy call outside the atomic writer."""

    code = "RS001"

    def visit_Call(self, node: ast.Call, site) -> Optional[List[Finding]]:
        chain = _dotted(node.func)
        if (chain is None or len(chain) < 2 or chain[-2] not in _NUMPY_NAMES
                or site.path.as_posix().endswith(_WRITER_ALLOWLIST)):
            return None
        if chain[-1] in _RAW_WRITERS:
            return [site.finding(
                "RS001", node,
                f"np.{chain[-1]} writes state in place: a crash mid-save "
                "destroys the previous snapshot; route the write through "
                "repro.resilience.checkpoint (atomic temp + os.replace, "
                "CRC-32)")]
        if chain[-1] == "load":
            return [site.finding(
                "RS002", node,
                "np.load without digest verification: a corrupt or "
                "truncated file surfaces a raw zipfile error; use "
                "repro.resilience.checkpoint's verified loaders")]
        return None


def lint_state_writes(
    roots: Optional[Iterable[Path]] = None,
) -> List[Finding]:
    """RS001/RS002: raw serialization outside the atomic writer."""
    if roots is None:
        roots = package_roots(*_STATE_PACKAGES)
    return visit(roots, [_StateWriteRule()])


def lint_rng_capture(
    classes: Optional[Sequence[type]] = None,
) -> List[Finding]:
    """RS003: per-forward random streams must be checkpoint-capturable.

    A layer whose RNG-constructing class declares ``draws='per_forward'``
    holds a live stream whose position is trajectory state;
    :meth:`Layer.rng_state` captures it through the ``self._rng``
    convention.  A per-forward drawer that stores its generator anywhere
    else silently forks on resume.
    """
    from repro.framework.layer import RNG_PER_FORWARD

    if classes is None:
        classes = list(builtin_layer_classes().values())
    findings: List[Finding] = []
    for cls in classes:
        per_forward = any(own_contract(owner).draws == RNG_PER_FORWARD
                          for owner in rng_owners(cls))
        if per_forward and not any(rng_sites(c).stores_self_rng
                                   for c in cls.__mro__ if c is not object):
            findings.append(Finding(
                rule="RS003", layer=cls.__name__,
                message=(
                    "draws per-forward random numbers but never stores "
                    "its generator in self._rng, so rng_state() cannot "
                    "capture the stream; a resumed run would fork the "
                    "draw sequence"
                ),
            ))
    return findings


def lint_batch_sources(
    classes: Optional[Sequence[type]] = None,
) -> List[Finding]:
    """RS004: every concrete batch source must expose its cursor."""
    if classes is None:
        import inspect

        import repro.data.batch_source as module

        classes = [
            cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__
            and hasattr(cls, "next_batch")
            and not inspect.isabstract(cls)
            and cls.__name__ != "BatchSource"  # the Protocol itself
        ]
    findings: List[Finding] = []
    for cls in classes:
        missing = [name for name in ("get_state", "set_state")
                   if not callable(getattr(cls, name, None))]
        if missing:
            findings.append(Finding(
                rule="RS004", layer=cls.__name__,
                message=(
                    f"batch source lacks {'/'.join(missing)}: the stream "
                    "cursor is trajectory state; without it a resumed "
                    "run replays or skips samples"
                ),
            ))
    return findings


def lint_resilience() -> List[Finding]:
    """The full static RS0xx pass."""
    return lint_state_writes() + lint_rng_capture() + lint_batch_sources()


# ---------------------------------------------------------------------------
# resume certification (RS101 / RS102)
# ---------------------------------------------------------------------------
@dataclass
class ResumeCertificate(Gated):
    """Checkpoint/resume evidence for one (net, reduction mode) pair."""

    net: str
    mode: str
    threads: List[int] = field(default_factory=list)
    iters: int = 0
    resume_at: int = 0
    resume_bitwise: Dict[int, bool] = field(default_factory=dict)
    roundtrip_stable: Dict[int, bool] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "net": self.net,
            "mode": self.mode,
            "threads": list(self.threads),
            "iters": self.iters,
            "resume_at": self.resume_at,
            "ok": self.ok,
            "resume_bitwise": {
                str(t): v for t, v in self.resume_bitwise.items()},
            "roundtrip_stable": {
                str(t): v for t, v in self.roundtrip_stable.items()},
            "findings": [f.to_json() for f in self.findings],
        }


def certify_resume(
    net: str,
    mode: str,
    threads: Sequence[int],
    iters: int = 2,
    batch: Optional[int] = 4,
) -> ResumeCertificate:
    """RS101/RS102 for one net x mode across thread counts.

    Both runs of each pair execute at the *same* thread count, so every
    certified mode — bitwise-invariant or deterministic-per-T — must
    reproduce the uninterrupted trajectory byte for byte; a resume that
    diverges has lost state, whatever the tier.
    """
    resume_at = max(1, iters // 2)
    cert = ResumeCertificate(
        net=net, mode=mode, threads=sorted(set(threads)), iters=iters,
        resume_at=resume_at,
    )
    for t in cert.threads:
        uninterrupted = Replay(net, iters, batch, t, mode)
        verdict = judge(uninterrupted.capture(),
                        replace(uninterrupted, resume_at=resume_at),
                        BITWISE_INVARIANT)
        cert.resume_bitwise[t] = verdict.divergence is None
        cert.roundtrip_stable[t] = verdict.roundtrip_stable
        where = f"{net}/{mode}@T={t}"
        cert.findings += verdict.findings(BITWISE_INVARIANT, {
            BROKE_BITWISE: ("RS101", lambda d: (
                f"resume at iteration {resume_at} diverges from the "
                f"uninterrupted run: {d.describe()}; the checkpoint lost "
                "trajectory state")),
        }, layer=where)
        if not verdict.roundtrip_stable:
            cert.findings.append(Finding(
                rule="RS102", layer=where,
                message=(
                    "save -> load -> save is not bitwise stable: some "
                    "captured state is lost or mutated on restore"
                ),
            ))
    return cert


# ---------------------------------------------------------------------------
# fault certification (RS201-RS204)
# ---------------------------------------------------------------------------
def _run_bounded(fn, timeout: float = FAULT_TIMEOUT_S):
    """Run ``fn`` with a wall-clock bound; ('ok'|'error'|'hang', value)."""
    box: dict = {}

    def target() -> None:
        try:
            box["result"] = ("ok", fn())
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            box["result"] = ("error", exc)

    worker = threading.Thread(target=target, daemon=True,
                              name="rescheck-fault-run")
    worker.start()
    worker.join(timeout)
    if worker.is_alive():
        return ("hang", None)
    return box["result"]


def _params_snapshot(solver) -> List[np.ndarray]:
    return [b.flat_data.copy() for b in solver.net.learnable_params]


def _params_equal(solver, saved: List[np.ndarray]) -> bool:
    return all(
        np.array_equal(b.flat_data, s)
        for b, s in zip(solver.net.learnable_params, saved)
    )


def _fault_blob(net) -> str:
    """An activation produced mid-net (the fault layer's first top)."""
    target = fault_target_layer(net)
    for layer, tops in zip(net.layers, net.tops):
        if layer.name == target and tops:
            return tops[0].name
    return net.layers[-1].name


def certify_faults(
    net: str,
    threads: int,
    iters: int = 2,
    batch: Optional[int] = 4,
) -> List[Finding]:
    """RS201-RS204: fire every fault class against one net.

    Runs at a single (the highest requested) thread count under the
    bitwise-invariant blockwise mode, where every recovery promise is
    strongest.
    """
    from repro.core.team import WorkerError
    from repro.resilience import (
        ChunkAbort,
        CheckpointCorrupt,
        CheckpointError,
        CheckpointFormatError,
        FaultPlan,
        HealthGuard,
        InjectedFault,
        LayerRaise,
        NaNBlob,
        NumericFault,
        corrupt_checkpoint,
        inject,
        truncate_checkpoint,
    )

    findings: List[Finding] = []
    where = f"{net}@T={threads}"

    def fail(rule: str, message: str) -> None:
        findings.append(Finding(rule=rule, layer=where, message=message))

    def is_injected(exc: BaseException) -> bool:
        if isinstance(exc, InjectedFault):
            return True
        return (isinstance(exc, WorkerError)
                and isinstance(exc.original, InjectedFault))

    reference = Replay(net, iters, batch, threads, "blockwise")
    with tempfile.TemporaryDirectory(prefix="rescheck-faults-",
                                     ignore_cleanup_errors=True) as tmpdir, \
            reference.solver() as solver:
        layer_name = fault_target_layer(solver.net)
        blob_name = _fault_blob(solver.net)

        # -- chunk abort: root cause surfaces, team stays usable -------
        plan = FaultPlan(ChunkAbort(layer=layer_name,
                                    iteration=solver.iteration))
        with inject(solver, plan):
            status, value = _run_bounded(lambda: solver.step(1))
        if status == "hang":
            fail("RS201", "chunk abort hung the runtime: a peer thread "
                          "is still blocked on a barrier or ordered turn")
        elif status == "ok":
            fail("RS201", "chunk abort was silently swallowed: the "
                          "iteration completed as if no fault fired")
        elif not is_injected(value):
            fail("RS201", f"chunk abort surfaced "
                          f"{type(value).__name__} instead of the "
                          "injected root cause: the abort path masked "
                          "the originating error")
        # recovery: the same team must run the next region cleanly.
        status, value = _run_bounded(lambda: solver.step(1))
        if status != "ok":
            detail = ("hung" if status == "hang"
                      else f"raised {type(value).__name__}: {value}")
            fail("RS201", f"team is not reusable after a chunk abort: "
                          f"the recovery step {detail}")

        # -- layer exception under a guard: state restored bitwise -----
        solver.guard = HealthGuard(policy="halt")
        before = _params_snapshot(solver)
        plan = FaultPlan(LayerRaise(layer=layer_name,
                                    iteration=solver.iteration,
                                    phase="forward"))
        with inject(solver, plan):
            status, value = _run_bounded(lambda: solver.step(1))
        if status == "hang":
            fail("RS201", "layer exception hung the runtime")
        elif status == "ok":
            fail("RS201", "layer exception was silently swallowed")
        else:
            if not is_injected(value):
                fail("RS201", f"layer exception surfaced "
                              f"{type(value).__name__} instead of the "
                              "injected fault")
            if not _params_equal(solver, before):
                fail("RS201", "guard containment left torn state: "
                              "parameters differ from the pre-iteration "
                              "shadow after a contained exception")
        solver.guard = None

        # -- post-crash resume onto the reference trajectory (RS202) ---
        def crash(crasher) -> None:
            plan = FaultPlan(LayerRaise(layer=layer_name,
                                        iteration=crasher.iteration,
                                        phase="forward"))
            with inject(crasher, plan):
                status, value = _run_bounded(lambda: crasher.step(1))
            if status == "hang":
                fail("RS201", "crash simulation hung the runtime")
            elif status == "ok" or not is_injected(value):
                fail("RS201", "crash simulation did not raise the "
                              "injected fault")

        verdict = judge(reference.capture(),
                        replace(reference, resume_at=max(1, iters // 2),
                                crash=crash),
                        BITWISE_INVARIANT)
        findings += verdict.findings(BITWISE_INVARIANT, {
            BROKE_BITWISE: ("RS202", lambda d: (
                "trajectory resumed from the pre-crash checkpoint "
                f"diverges from the reference: {d.describe()}")),
        }, layer=where)

        # -- NaN injection vs every guard policy (RS203) ----------------
        for policy in ("halt", "skip-batch", "rollback"):
            with reference.solver() as victim:
                victim.guard = HealthGuard(policy=policy)
                before = _params_snapshot(victim)
                plan = FaultPlan(NaNBlob(blob=blob_name, iteration=0))
                with inject(victim, plan):
                    status, value = _run_bounded(
                        lambda v=victim: v.step(iters))
                if status == "hang":
                    fail("RS203", f"guard policy {policy!r} hung")
                    continue
                if policy == "halt":
                    if status != "error" or not isinstance(value,
                                                           NumericFault):
                        got = ("no error" if status == "ok"
                               else type(value).__name__)
                        fail("RS203", f"halt policy must raise "
                                      f"NumericFault on injected NaN, "
                                      f"got {got}")
                    elif not _params_equal(victim, before):
                        fail("RS203", "halt policy left parameters "
                                      "different from the last healthy "
                                      "state")
                else:
                    if status != "ok":
                        fail("RS203", f"{policy} policy must continue "
                                      f"training past an injected NaN, "
                                      f"raised {type(value).__name__}")
                        continue
                    if victim.iteration != iters:
                        fail("RS203", f"{policy} policy lost iterations: "
                                      f"reached {victim.iteration} of "
                                      f"{iters}")
                    if not victim.guard.events:
                        fail("RS203", f"{policy} policy recorded no "
                                      "GuardEvent for the injected NaN")
                    if not all(
                            np.all(np.isfinite(b.flat_data))
                            for b in victim.net.learnable_params):
                        fail("RS203", f"{policy} policy let NaN reach "
                                      "the parameters")

        # -- damaged / old-format checkpoints must be rejected (RS204) --
        good_path = os.path.join(tmpdir, "good.rckp")
        solver.save_state(good_path)

        def expect_rejection(label: str, path: str, expected) -> None:
            try:
                with Replay(net, iters, batch).solver() as fresh:
                    fresh.load_state(path)
            except expected:
                return
            except CheckpointError as exc:
                fail("RS204", f"{label} checkpoint raised "
                              f"{type(exc).__name__}, expected "
                              f"{expected.__name__}")
            except Exception as exc:  # noqa: BLE001 - uncoded error
                fail("RS204", f"{label} checkpoint surfaced an uncoded "
                              f"{type(exc).__name__}: {exc}")
            else:
                fail("RS204", f"{label} checkpoint was accepted; it "
                              "must be rejected with a coded error")

        corrupt_path = os.path.join(tmpdir, "corrupt.rckp")
        shutil.copyfile(good_path, corrupt_path)
        corrupt_checkpoint(corrupt_path, seed=0)
        expect_rejection("corrupt", corrupt_path, CheckpointCorrupt)

        truncated_path = os.path.join(tmpdir, "truncated.rckp")
        shutil.copyfile(good_path, truncated_path)
        truncate_checkpoint(truncated_path, fraction=0.5)
        expect_rejection("truncated", truncated_path,
                         (CheckpointCorrupt, CheckpointFormatError))

        legacy_path = os.path.join(tmpdir, "legacy.npz")
        with open(legacy_path, "wb") as handle:
            np.savez(handle, __iteration__=np.array(1))
        expect_rejection("old-format (unversioned .npz)", legacy_path,
                         CheckpointFormatError)
    return findings


# ---------------------------------------------------------------------------
# top-level report
# ---------------------------------------------------------------------------
@dataclass
class RescheckReport(Gated):
    """Static lint + resume certificates + fault certification."""

    static_findings: List[Finding] = field(default_factory=list)
    certificates: List[ResumeCertificate] = field(default_factory=list)
    fault_findings: List[Finding] = field(default_factory=list)

    @property
    def findings(self) -> List[Finding]:
        out = list(self.static_findings)
        for cert in self.certificates:
            out.extend(cert.findings)
        out.extend(self.fault_findings)
        return out

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "static_findings": [f.to_json() for f in self.static_findings],
            "certificates": [c.to_json() for c in self.certificates],
            "fault_findings": [f.to_json() for f in self.fault_findings],
        }

    def summary_lines(self) -> List[str]:
        lines = [
            f"rescheck static: {tally(self.static_findings, ERROR)} "
            "error(s) from the state-write / RNG-capture / cursor lint"
        ]
        lines += ["  " + f.line() for f in self.static_findings]
        for cert in self.certificates:
            bits = ",".join(
                f"T={t}:{'=' if ok else '!='}"
                for t, ok in sorted(cert.resume_bitwise.items()))
            lines.append(
                f"resume certificate: net={cert.net} mode={cert.mode} "
                f"save@{cert.resume_at}/{cert.iters} "
                f"vs-uninterrupted[{bits}] -> "
                f"{'OK' if cert.ok else 'VIOLATION'}")
            lines += ["  " + f.line() for f in cert.findings]
        if self.fault_findings or self.certificates:
            lines.append(
                f"fault certification: {tally(self.fault_findings, ERROR)} "
                "error(s) across chunk-abort / layer-raise / NaN / "
                "damaged-checkpoint injections")
            lines += ["  " + f.line() for f in self.fault_findings]
        lines.append(
            "verdict: " + ("RESILIENT" if self.ok else "VIOLATIONS FOUND"))
        return lines


def run_rescheck(
    nets: Iterable[str] = ("lenet", "cifar10", "mlp"),
    modes: Iterable[str] = DEFAULT_MODES,
    threads: Sequence[int] = DEFAULT_THREADS,
    iters: int = 2,
    batch: Optional[int] = 4,
    static_only: bool = False,
    skip_faults: bool = False,
) -> RescheckReport:
    """The full resilience-certification pass."""
    report = RescheckReport(static_findings=lint_resilience())
    if static_only:
        return report

    nets = list(nets)
    modes = list(modes)
    for name in nets:
        for mode in modes:
            report.certificates.append(certify_resume(
                name, mode, threads, iters=iters, batch=batch,
            ))
        if not skip_faults:
            report.fault_findings.extend(certify_faults(
                name, threads=max(threads), iters=iters, batch=batch,
            ))
    return report
