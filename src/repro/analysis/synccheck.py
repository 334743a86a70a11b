"""Concurrency certifier: static sync lint + interleaving model checking.

The paper's runtime stands on one OpenMP-shaped primitive set —
:class:`~repro.core.team.ThreadTeam` barriers, the critical lock, the
ordered turn — and every other certifier (detcheck, rescheck, …) takes
the *correct use* of those primitives on faith.  synccheck certifies it
from two sides:

1. **Static** (:mod:`repro.analysis.synclint`, SY001-SY006): an AST
   pass over ``repro.core`` / ``repro.compiler`` / ``repro.resilience``
   extracts every threading primitive, builds the inter-procedural
   lock-acquisition graph, and lints lock-order cycles, locks held
   across barriers or blocking calls, bare condition waits, unguarded
   module-global writes, and barrier divergence across code paths.

2. **Dynamic** (:mod:`repro.analysis.interleave`, SY101-SY104): the
   program under test runs with a :class:`CheckerSync` backend that
   virtualizes every primitive and fully serializes the threads; a
   CHESS-style explorer (iterative context bounding, default 2
   preemptions) enumerates schedules, pruning alternatives whose
   pending operations commute — chunk pairs certified independent by
   the layers' declared write footprints, barrier-release permutations.
   Verdicts: deadlock, exception, and digest divergence for
   configurations whose reduction tier promises schedule-invariant
   bits.  Every verdict carries a serialized schedule that
   :meth:`ModelChecker.replay` re-executes deterministically.

The checker certifies *itself* the way rescheck does — by seeded
defects (SY201/SY202): a :class:`~repro.resilience.faults.FaultPlan`
carrying :class:`~repro.resilience.faults.LockOrderInversion` and
:class:`~repro.resilience.faults.BarrierSkip` descriptors is expanded
into known-deadlocking team programs, and the gate requires the
explorer to rediscover each one as a deadlock whose recorded schedule
replays faithfully.

CLI: ``python -m repro.analysis synccheck --net lenet --threads 1,2,8
--gate`` (also ``--json``, ``--preemptions N``, ``--trace PATH`` to
dump replayable schedules, ``--replay PATH`` to re-execute one, and
``--static-only`` for the lint alone).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.detcheck import Replay, Trajectory
from repro.analysis.interleave import (
    TRACE_VERSION,
    CheckerSync,
    ModelChecker,
    Op,
    RunRecord,
    schedule_from_json,
)
from repro.analysis.report import Finding, Gated
from repro.analysis.synclint import lint_sync
from repro.resilience.faults import BarrierSkip, FaultPlan, LockOrderInversion

DEFAULT_NETS = ("lenet", "cifar10", "mlp")
DEFAULT_THREADS = (1, 2, 8)
#: Reduction mode model-checked by default: ordered is the paper's
#: deterministic-per-T default and exercises the ordered-turn protocol
#: (the hairiest primitive) on every backward pass.
DEFAULT_MODE = "ordered"
#: Schedule budget per configuration.  Two-thread configurations
#: exhaust their 2-preemption space well inside this; eight-thread
#: configurations truncate (reported as SY104, a warning not a gate
#: failure — the exhaustiveness claim is made at <= 2 threads).
DEFAULT_MAX_RUNS = 64


# ---------------------------------------------------------------------------
# programs under test
# ---------------------------------------------------------------------------
def chunk_independence(name: str,
                       batch: Optional[int] = 4) -> Callable[[Op, Op], bool]:
    """Build the chunk-commutativity oracle for ``name`` from its
    layers' declared write footprints.

    Two pending chunk grants commute when they cannot touch the same
    bytes: different layers (the executor separates layers with region
    barriers, so co-pending cross-layer chunks are already
    data-independent), different phases (same reason), or same
    layer+phase with disjoint ``[lo, hi)`` ranges under a footprint
    that certifies sample-disjoint writes (forward) or
    sample-disjoint/privatized-reduction writes (backward).  Anything
    uncertified is dependent and both orders are explored.
    """
    from repro.framework.layer import REDUCTION, SAMPLE_DISJOINT

    with Replay(name, 1, batch).solver() as solver:
        decls = {layer.name: layer.footprint()
                 for layer in solver.net.layers}

    def independent(a: Op, b: Op) -> bool:
        layer_a, phase_a, lo_a, hi_a = a.payload
        layer_b, phase_b, lo_b, hi_b = b.payload
        if layer_a != layer_b or phase_a != phase_b:
            return True
        if not (hi_a <= lo_b or hi_b <= lo_a):
            return False  # overlapping ranges never commute
        decl = decls.get(layer_a)
        if decl is None:
            return False
        if phase_a == "forward":
            return decl.forward == SAMPLE_DISJOINT
        return decl.backward in (SAMPLE_DISJOINT, REDUCTION)

    return independent


def _final_digest(trajectory: Trajectory) -> int:
    """CRC-32 over the last step's loss and every learnable parameter's
    bytes — bit-level fingerprint of a run's observable output."""
    last = trajectory.snapshots[-1]
    digest = zlib.crc32(struct.pack("<d", last.loss))
    for param in last.params:
        digest = zlib.crc32(param.tobytes(), digest)
    return digest


def _lock_order_inversion(fault: LockOrderInversion, ctx) -> None:
    """ABBA: even threads take the ordered turn then the critical lock;
    odd threads nest the other way."""
    def noop() -> None:
        pass

    if ctx.thread_id % 2 == 0:
        ctx.ordered(lambda: ctx.critical(noop))
    else:
        ctx.critical(lambda: ctx.ordered(noop))


def _barrier_skip(fault: BarrierSkip, ctx) -> None:
    """Thread ``skip_tid`` skips the first of two region barriers."""
    if ctx.thread_id != fault.skip_tid:
        ctx.barrier()
    ctx.barrier()


#: The seeded defects: each descriptor class and the region body
#: ``body(fault, ctx)`` it expands into.
SEEDED_DEFECTS = {
    LockOrderInversion: _lock_order_inversion,
    BarrierSkip: _barrier_skip,
}


def seeded_program(fault) -> Callable[[CheckerSync], int]:
    """Expand a seeded-defect descriptor into its team program: its
    region body run once by a ``fault.threads``-thread team on the
    checker's backend."""
    from repro.core.team import ThreadTeam

    body = SEEDED_DEFECTS.get(type(fault))
    if body is None:
        raise TypeError(
            f"no seeded program for fault {type(fault).__name__}"
        )

    def program(sync: CheckerSync) -> int:
        team = ThreadTeam(fault.threads, sync=sync)
        try:
            team.parallel(lambda ctx: body(fault, ctx))
        finally:
            team.shutdown()
        return 0

    return program


def model_checker(config: dict,
                  max_runs: int = DEFAULT_MAX_RUNS) -> ModelChecker:
    """The :class:`ModelChecker` of a serialized trace ``config``: a zoo
    configuration (a :class:`Replay` on the checker's backend, judged by
    the digest of its trajectory) or a seeded defect."""
    kind = config.get("kind")
    if kind == "zoo":
        run = Replay(config["net"], config.get("iters", 1),
                     config.get("batch"), config["threads"], config["mode"])

        def program(sync: CheckerSync) -> int:
            return _final_digest(replace(run, sync=sync).capture())

        independent = chunk_independence(run.net, run.batch)
    elif kind == "seeded":
        by_name = {cls.__name__: cls for cls in SEEDED_DEFECTS}
        cls = by_name.get(config.get("defect"))
        if cls is None:
            raise ValueError(
                f"trace names no seeded defect of {sorted(by_name)}: "
                f"{config.get('defect')!r}")
        program, independent = seeded_program(cls()), None
    else:
        raise ValueError(f"trace config kind {kind!r} not replayable")
    return ModelChecker(program, preemptions=int(config.get("preemptions", 2)),
                        max_runs=max_runs, independent=independent)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------
@dataclass
class ConfigResult:
    """Model-checking outcome for one (net, threads, mode) tuple."""

    net: str
    threads: int
    mode: str
    tier: str
    explored: int
    truncated: bool
    deadlocks: int
    errors: int
    digests: int

    def to_json(self) -> dict:
        return {
            "net": self.net, "threads": self.threads, "mode": self.mode,
            "tier": self.tier, "explored": self.explored,
            "truncated": self.truncated, "deadlocks": self.deadlocks,
            "errors": self.errors, "distinct_digests": self.digests,
        }


@dataclass
class SynccheckReport(Gated):
    findings: List[Finding] = field(default_factory=list)
    configs: List[ConfigResult] = field(default_factory=list)
    certifications: List[dict] = field(default_factory=list)
    #: Replayable schedule traces for every dynamic verdict, in finding
    #: order; ``--trace`` serializes these.
    traces: List[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "findings": [f.to_json() for f in self.findings],
            "configs": [c.to_json() for c in self.configs],
            "certifications": self.certifications,
            "traces": self.traces,
        }

    def summary_lines(self) -> List[str]:
        lines = [f.line() for f in self.findings]
        for c in self.configs:
            extra = " TRUNCATED" if c.truncated else ""
            lines.append(
                f"-- {c.net} t={c.threads} {c.mode} ({c.tier}): "
                f"{c.explored} schedules, {c.deadlocks} deadlocks, "
                f"{c.errors} errors, {c.digests} digest(s){extra}"
            )
        for cert in self.certifications:
            lines.append(
                f"-- seeded {cert['defect']}: "
                f"{'rediscovered' if cert['found'] else 'MISSED'}, "
                f"replay {'faithful' if cert['replayed'] else 'BROKEN'}"
            )
        lines.append(
            "synccheck: OK" if self.ok else "synccheck: FINDINGS"
        )
        return lines


# ---------------------------------------------------------------------------
# model-checking drivers
# ---------------------------------------------------------------------------
#: Trailing steps a finding's schedule preview shows.
_PREVIEW_STEPS = 6


def _schedule_preview(record: RunRecord) -> str:
    steps = [f"t{s.tid}:{s.kind}({s.resource})"
             for s in record.schedule[-_PREVIEW_STEPS:]]
    prefix = ["..."] if len(record.schedule) > _PREVIEW_STEPS else []
    return " -> ".join(prefix + steps)


def check_config(
    name: str,
    threads: int,
    mode: str = DEFAULT_MODE,
    batch: Optional[int] = 4,
    iters: int = 1,
    preemptions: int = 2,
    max_runs: int = DEFAULT_MAX_RUNS,
) -> Tuple[ConfigResult, List[Finding], List[dict]]:
    """Model-check one zoo configuration; returns (result, findings,
    traces)."""
    from repro.core.reduction import invariance_tier

    tier = invariance_tier(mode, True)
    config = {
        "kind": "zoo", "net": name, "threads": threads, "mode": mode,
        "batch": batch, "iters": iters, "preemptions": preemptions,
    }
    result = model_checker(config, max_runs).explore()

    where = f"{name} t={threads} {mode}"
    findings: List[Finding] = []
    traces: List[dict] = []

    for record in result.deadlocks[:1]:
        findings.append(Finding(
            "SY101", where,
            f"deadlock under interleaving after {len(record.schedule)} "
            f"sync points ({record.preemptions} preemptions); pending: "
            f"{json.dumps(record.deadlock['pending'])}",
            _schedule_preview(record),
        ))
        traces.append(record.trace_json(config))
    for record in result.errors[:1]:
        findings.append(Finding(
            "SY102", where,
            f"{record.error_type} raised under interleaving "
            f"({record.preemptions} preemptions): "
            f"{(record.error or '').strip().splitlines()[-1]}",
            _schedule_preview(record),
        ))
        traces.append(record.trace_json(config))
    digests = result.digests
    if len(digests) > 1 and tier in ("bitwise_invariant",
                                     "deterministic_per_t"):
        findings.append(Finding(
            "SY103", where,
            f"{len(digests)} distinct output digests across "
            f"{result.explored} schedules but tier {tier!r} promises "
            "schedule-invariant bits",
        ))
        for record in result.runs:
            if record.status == "complete":
                traces.append(record.trace_json(config))
    if result.truncated:
        findings.append(Finding(
            "SY104", where,
            f"exploration truncated at {max_runs} schedules before "
            f"exhausting the {preemptions}-preemption space",
        ))

    return (
        ConfigResult(
            net=name, threads=threads, mode=mode, tier=tier,
            explored=result.explored, truncated=result.truncated,
            deadlocks=len(result.deadlocks), errors=len(result.errors),
            digests=len(digests),
        ),
        findings,
        traces,
    )


def certify_seeded(
    preemptions: int = 2,
    max_runs: int = DEFAULT_MAX_RUNS,
) -> Tuple[List[dict], List[Finding], List[dict]]:
    """Seeded-defect certification: the model checker must rediscover a
    planted lock-order inversion and a planted barrier skip, and the
    recorded schedule must replay faithfully."""
    plan = FaultPlan(LockOrderInversion(), BarrierSkip())
    certs: List[dict] = []
    findings: List[Finding] = []
    traces: List[dict] = []
    for fault in plan:
        defect = type(fault).__name__
        config = {"kind": "seeded", "defect": defect,
                  "preemptions": preemptions}
        checker = model_checker(config, max_runs)
        result = checker.explore()
        deadlocks = result.deadlocks
        found = bool(deadlocks)
        replayed = False
        if found:
            trace = deadlocks[0].trace_json(config)
            replayed, _record = replay_trace(trace)
        certs.append({
            "defect": defect, "explored": result.explored,
            "found": found, "replayed": replayed,
        })
        if found and replayed:
            findings.append(Finding(
                "SY202", defect,
                f"seeded defect rediscovered as a deadlock in "
                f"{result.explored} schedule(s) and replayed "
                "faithfully",
                _schedule_preview(deadlocks[0]),
            ))
            traces.append(trace)
        else:
            reason = ("no deadlocking schedule found" if not found
                      else "recorded schedule did not replay faithfully")
            findings.append(Finding(
                "SY201", defect,
                f"seeded defect NOT certified: {reason} "
                f"({result.explored} schedules explored)",
            ))
    return certs, findings, traces


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------
def run_synccheck(
    nets: Sequence[str] = DEFAULT_NETS,
    threads: Sequence[int] = DEFAULT_THREADS,
    mode: str = DEFAULT_MODE,
    batch: Optional[int] = 4,
    iters: int = 1,
    preemptions: int = 2,
    max_runs: int = DEFAULT_MAX_RUNS,
    static_only: bool = False,
    certify: bool = True,
) -> SynccheckReport:
    """Full certification: static lint, seeded-defect certification,
    then model checking of every (net, threads) configuration."""
    report = SynccheckReport()
    report.findings.extend(lint_sync())
    if static_only:
        return report
    if certify:
        certs, findings, traces = certify_seeded(
            preemptions=preemptions, max_runs=max_runs
        )
        report.certifications = certs
        report.findings.extend(findings)
        report.traces.extend(traces)
    for name in nets:
        for t in threads:
            result, findings, traces = check_config(
                name, t, mode=mode, batch=batch, iters=iters,
                preemptions=preemptions, max_runs=max_runs,
            )
            report.configs.append(result)
            report.findings.extend(findings)
            report.traces.extend(traces)
    return report


# ---------------------------------------------------------------------------
# trace replay
# ---------------------------------------------------------------------------
def replay_trace(trace: dict) -> Tuple[bool, RunRecord]:
    """Re-execute a serialized ``--trace`` entry deterministically.

    Rebuilds the program from the trace's embedded config (zoo
    configuration or seeded defect) and forces the recorded schedule;
    returns (faithful, record): faithful when the run grants exactly the
    recorded steps and ends in the recorded status.
    """
    if trace.get("version") != TRACE_VERSION:
        raise ValueError(
            f"unsupported trace version {trace.get('version')!r} "
            f"(expected {TRACE_VERSION!r})"
        )
    if "status" not in trace:
        raise ValueError("trace records no status to replay into")
    checker = model_checker(trace.get("config") or {})
    faithful, record = checker.replay(schedule_from_json(trace["schedule"]))
    return faithful and record.status == trace["status"], record
