"""Serving certifier: static serve-path lint + dynamic chaos replay.

The tenth analyzer family (SV codes) certifies :mod:`repro.serve` the
house way — a static pass that must hold for *all* inputs, and a
dynamic pass that replays concrete chaos and demands exact outcomes.

**Static (SV001-SV005)** — an AST lint over the serve package:

* SV001  bounded-queue discipline: the only sanctioned queue is
  :class:`repro.serve.admission.BoundedDeque` (rejects loudly at
  capacity).  ``queue.Queue`` (grows without bound) and
  ``deque(maxlen=...)`` (drops silently from the far end) are flagged;
  a bare ``deque()`` is allowed only inside BoundedDeque itself.
* SV002  unbounded blocking: ``.wait()`` / ``.join()`` calls with no
  timeout argument.
* SV003  synccheck's SY001-SY006 lock rules re-applied to the serve
  sources (:func:`repro.analysis.synclint.analyze_sync` over the
  serve package's parsed modules).
* SV004  wall-clock reads (``time`` / ``datetime``) anywhere except
  ``clock.py`` — the detcheck DC discipline applied to serving:
  deadlines must replay in virtual time.
* SV005  swallowed exceptions: bare ``except:`` or a handler whose
  body is a lone ``pass`` — a fault must become a coded response.

**Dynamic (SV101-SV105)** — a deterministic trace replayed twice per
(net, team-width) configuration on a :class:`ManualClock`:

* *healthy* — no faults; every request must come back ``ok`` (SV104
  guards the declared deadline budget) and every output must equal the
  direct sequential ``Net.forward`` of the identical staged batch,
  bitwise (SV103).
* *chaos* — a :class:`FaultPlan` injects a worker crash
  (:class:`ChunkAbort`), a straggler (:class:`SlowChunk`), a poisoned
  NaN sample (:class:`PoisonSample`) and an overload burst
  (:class:`RequestStorm`), plus a mid-trace hot reload from a
  checkpoint of the same weights.  The gate: zero lost (SV101), zero
  duplicated (SV102) responses; the poisoned request quarantined with a
  code while its batch-mates stay bit-exact; at least one team
  restart actually exercised.

CLI: ``python -m repro.analysis servecheck --net lenet --threads 1,2
--gate`` (also ``--json``, ``--static-only``, ``--requests N``,
``--trace-out FILE`` to save the replayed trace).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.report import Finding, Gated
from repro.analysis.sources import Rule, package_roots, visit
from repro.analysis.synclint import analyze_sync

DEFAULT_NETS = ("lenet", "mlp")
DEFAULT_THREADS = (1, 2, 8)
#: Requests per certification replay (the real-clock chaos run of the
#: same shape is tests/serve/test_server.py::TestBackgroundDispatcher).
DEFAULT_REQUESTS = 60

#: The one module allowed to touch the real clock.
_CLOCK_MODULE = "clock.py"
#: Wall-clock attribute reads flagged by SV004.
_WALL_CLOCK_ATTRS = {
    "time", "monotonic", "perf_counter", "process_time", "sleep",
    "monotonic_ns", "perf_counter_ns", "time_ns", "now", "utcnow", "today",
}
_WALL_CLOCK_MODULES = {"time", "datetime"}
#: Unbounded-queue constructors flagged by SV001.
_QUEUE_CTORS = {"Queue", "LifoQueue", "PriorityQueue", "SimpleQueue"}
#: Blocking methods needing a timeout (SV002).
_BLOCKING_METHODS = {"wait", "join"}


# ---------------------------------------------------------------------------
# static lint (SV001-SV005)
# ---------------------------------------------------------------------------
class _ServeRule(Rule):
    """SV001-SV005 over the serve package."""

    code = "SV001"

    def __init__(self, root: Path) -> None:
        self.root = root

    def _found(self, code: str, site, node: ast.AST,
               message: str) -> List[Finding]:
        return [site.finding(
            code, node, message,
            layer=os.path.relpath(str(site.path), str(self.root.parent)))]

    # -- SV004: wall-clock reads ---------------------------------------
    def visit_Import(self, node, site) -> List[Finding]:
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""])
        found: List[Finding] = []
        if site.path.name != _CLOCK_MODULE:
            for name in names:
                if name.split(".")[0] in _WALL_CLOCK_MODULES:
                    found += self._found(
                        "SV004", site, node,
                        f"imports {name!r}: only {_CLOCK_MODULE} may touch "
                        "the real clock; take a Clock instance")
        return found

    visit_ImportFrom = visit_Import

    def visit_Attribute(self, node: ast.Attribute,
                        site) -> Optional[List[Finding]]:
        if (site.path.name != _CLOCK_MODULE
                and isinstance(node.value, ast.Name)
                and node.value.id in _WALL_CLOCK_MODULES
                and node.attr in _WALL_CLOCK_ATTRS):
            return self._found(
                "SV004", site, node,
                f"wall-clock read {node.value.id}.{node.attr}: "
                "deadlines must flow through the injected Clock")
        return None

    def visit_Call(self, node: ast.Call, site) -> List[Finding]:
        found: List[Finding] = []
        func = node.func
        ctor = (func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else "")
        # -- SV001: queue discipline -----------------------------------
        if ctor in _QUEUE_CTORS:
            found += self._found(
                "SV001", site, node,
                f"{ctor}() constructed in the serve path: unbounded "
                "growth under overload; use BoundedDeque (coded "
                "rejection at capacity)")
        elif ctor == "deque":
            inside = next((a.name for a in site.ancestors(node)
                           if isinstance(a, ast.ClassDef)), "")
            if any(kw.arg == "maxlen" for kw in node.keywords):
                found += self._found(
                    "SV001", site, node,
                    "deque(maxlen=...) in the serve path drops "
                    "silently from the far end at capacity; use "
                    "BoundedDeque (coded rejection)")
            elif inside != "BoundedDeque":
                found += self._found(
                    "SV001", site, node,
                    "bare deque() outside BoundedDeque: every serve "
                    "queue must enforce a capacity with coded "
                    "rejection")
        # -- SV002: blocking without a bound ---------------------------
        if (isinstance(func, ast.Attribute)
                and func.attr in _BLOCKING_METHODS
                and not node.args
                and not any(kw.arg == "timeout" for kw in node.keywords)):
            found += self._found(
                "SV002", site, node,
                f".{func.attr}() with no timeout: a stalled peer "
                "freezes the serving thread forever; every wait in "
                "the serve path must be bounded")
        return found

    # -- SV005: swallowed exceptions -----------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler,
                            site) -> Optional[List[Finding]]:
        if node.type is None:
            return self._found(
                "SV005", site, node,
                "bare except: catches everything (including "
                "KeyboardInterrupt) and hides the fault class; "
                "catch Exception and answer with a coded response")
        if len(node.body) == 1 and isinstance(node.body[0], ast.Pass):
            return self._found(
                "SV005", site, node,
                "except-pass: the fault vanishes instead of "
                "becoming a coded response or a counter")
        return None

    # -- SV003: synccheck's lock rules with the serve package as corpus --
    def done(self, parsed) -> List[Finding]:
        return [Finding("SV003", sy.layer, f"[{sy.rule}] {sy.message}",
                         sy.location) for sy in analyze_sync(parsed)]


def lint_serve(root: Optional[Path] = None) -> List[Finding]:
    """The full SV001-SV005 static pass over the serve package."""
    root = Path(root) if root is not None else package_roots("serve")[0]
    return visit([root], [_ServeRule(root)])


# ---------------------------------------------------------------------------
# dynamic certification (SV101-SV105)
# ---------------------------------------------------------------------------
@dataclass
class ReplayOutcome:
    """Everything one replay produced, for auditing."""

    net: str
    threads: int
    regime: str                     # "healthy" | "chaos"
    budget: float = 0.5             # uniform trace latency budget
    submitted: List[str] = field(default_factory=list)
    deliveries: Dict[str, List] = field(default_factory=dict)
    status_counts: Dict[str, int] = field(default_factory=dict)
    restarts: int = 0
    reloads: int = 0
    shed: int = 0
    duplicates_suppressed: int = 0
    batches: int = 0

    def to_json(self) -> dict:
        return {
            "net": self.net, "threads": self.threads,
            "regime": self.regime, "requests": len(self.submitted),
            "status_counts": dict(self.status_counts),
            "restarts": self.restarts, "reloads": self.reloads,
            "shed": self.shed, "batches": self.batches,
            "duplicates_suppressed": self.duplicates_suppressed,
        }


def _sequential_reference(net_name: str, max_batch: int):
    """A fresh sequential net with staged sources, for parity replay."""
    from repro.serve.engine import (
        _resolve_output_blob,
        _swap_in_staged_sources,
    )
    from repro.zoo.build import build_net

    net = build_net(net_name, phase="TEST")
    staged = _swap_in_staged_sources(net, max_batch)
    output = _resolve_output_blob(net, None)
    return net, staged, output


def _audit_replay(
    outcome: ReplayOutcome,
    engine,
    net_name: str,
    healthy: bool,
) -> List[Finding]:
    """SV101-SV104 over one replay's deliveries and batch log."""
    findings: List[Finding] = []
    where = f"{net_name}/t={outcome.threads}/{outcome.regime}"

    lost = [rid for rid in outcome.submitted
            if rid not in outcome.deliveries]
    if lost:
        findings.append(Finding(
            "SV101", where,
            f"{len(lost)} of {len(outcome.submitted)} requests got no "
            f"response (first: {lost[:3]})",
        ))
    dup = {rid: len(rs) for rid, rs in outcome.deliveries.items()
           if len(rs) > 1}
    if dup:
        findings.append(Finding(
            "SV102", where,
            f"{len(dup)} request(s) answered more than once: "
            f"{sorted(dup.items())[:3]}",
        ))

    # Late 'ok' responses are a protocol bug in any regime: the server
    # must demote them to coded timeouts.  The trace uses one uniform
    # budget, so each request's deadline reconstructs as submitted_at +
    # budget, and submitted_at = completed_at - latency.
    late_ok = [
        resp for responses in outcome.deliveries.values()
        for resp in responses[:1]
        if resp.status == "ok"
        and resp.completed_at > (resp.completed_at - resp.latency
                                 + outcome.budget)
    ]
    if late_ok:
        findings.append(Finding(
            "SV104", where,
            f"{len(late_ok)} 'ok' response(s) delivered after their "
            "deadline instead of being demoted to coded timeouts",
        ))
    if healthy:
        non_ok = {status: count
                  for status, count in outcome.status_counts.items()
                  if status != "ok"}
        if non_ok:
            findings.append(Finding(
                "SV104", where,
                "healthy replay must serve every request within its "
                f"budget, got {non_ok}",
            ))

    # SV103: bitwise parity of every served batch vs sequential forward.
    ref_net, ref_staged, ref_output = _sequential_reference(
        net_name, engine.max_batch
    )
    mismatches = 0
    first = None
    for record in engine.batch_log:
        for source in ref_staged:
            source.stage(record.images)
        ref_net.forward()
        ref_rows = np.array(ref_output.data, copy=True)
        for row, rid in enumerate(record.request_ids):
            if rid is None or rid not in outcome.deliveries:
                continue
            resp = outcome.deliveries[rid][0]
            if resp.status != "ok":
                continue
            if not np.array_equal(resp.output, ref_rows[row]):
                mismatches += 1
                if first is None:
                    first = (record.batch_index, row, rid)
    if mismatches:
        findings.append(Finding(
            "SV103", where,
            f"{mismatches} served output(s) differ bitwise from "
            f"sequential Net.forward (first: batch {first[0]} row "
            f"{first[1]} request {first[2]!r})",
        ))
    return findings


def certify_config(
    net_name: str,
    threads: int,
    requests: int = DEFAULT_REQUESTS,
    seed: int = 0,
    plan=None,
    max_batch: int = 4,
    max_delay: float = 0.004,
    capacity: int = 16,
    budget: float = 0.5,
    trace_out: Optional[str] = None,
) -> Tuple[List[Finding], List[ReplayOutcome]]:
    """Healthy + chaos replays for one (net, team width)."""
    import tempfile

    from repro.resilience.faults import (
        ChunkAbort,
        FaultPlan,
        PoisonSample,
        RequestStorm,
        SlowChunk,
    )
    from repro.serve.chaos import chaos
    from repro.serve.clock import ManualClock
    from repro.serve.engine import InferenceEngine
    from repro.serve.server import InferenceServer
    from repro.serve.trace import RequestTrace, replay_trace
    from repro.zoo.build import build_net

    findings: List[Finding] = []
    outcomes: List[ReplayOutcome] = []

    def run_replay(regime: str) -> Tuple[ReplayOutcome, object]:
        clock = ManualClock()
        engine = InferenceEngine(
            lambda: build_net(net_name, phase="TEST"),
            num_threads=threads, max_batch=max_batch, clock=clock,
            backoff_s=0.001,
        )
        outcome = ReplayOutcome(net=net_name, threads=threads,
                                regime=regime, budget=budget)

        def record(resp) -> None:
            outcome.deliveries.setdefault(resp.request_id, []).append(resp)

        server = InferenceServer(
            engine, capacity=capacity, max_delay=max_delay,
            on_deliver=record,
        )
        trace = RequestTrace.generate(
            requests, engine.sample_shape, seed=seed, budget=budget,
        )
        if trace_out and regime == "healthy":
            trace.save(trace_out)
        try:
            if regime == "healthy":
                outcome.submitted = replay_trace(server, trace)
            else:
                # The chaos script: crash batch 1, straggle batch 3,
                # poison one mid-trace request, storm past capacity at
                # two-thirds, and hot-reload same-weights mid-trace.
                target_layer = _first_parallel_layer(engine.net)
                plan_ = plan if plan is not None else FaultPlan(
                    ChunkAbort(layer=target_layer, iteration=1),
                    SlowChunk(layer=target_layer, batch=3,
                              delay_s=min(0.05, budget / 4)),
                    PoisonSample(request=requests // 3),
                    RequestStorm(at_request=(2 * requests) // 3,
                                 count=capacity + max_batch),
                )
                with tempfile.TemporaryDirectory() as tmp:
                    snapshot = os.path.join(tmp, "weights.npz")
                    engine.net.save(snapshot)
                    hooks = {
                        requests // 2: lambda: server.reload(snapshot),
                    }
                    with chaos(engine, plan_) as harness:
                        outcome.submitted = replay_trace(
                            server, trace, chaos=harness, hooks=hooks,
                        )
        finally:
            stats = server.stats()
            outcome.status_counts = {
                status: count
                for status, count in stats["delivered"].items()
            }
            outcome.restarts = stats["engine_restarts"]
            outcome.reloads = stats["engine_reloads"]
            outcome.shed = stats["shed"]
            outcome.batches = stats["batches_served"]
            outcome.duplicates_suppressed = stats["duplicates_suppressed"]
        return outcome, engine

    for regime in ("healthy", "chaos"):
        outcome, engine = run_replay(regime)
        outcomes.append(outcome)
        try:
            findings.extend(_audit_replay(
                outcome, engine, net_name, healthy=(regime == "healthy"),
            ))
            if regime == "chaos":
                where = f"{net_name}/t={threads}/chaos"
                if plan is None:
                    poisoned_id = f"t{seed}-{requests // 3}"
                    poisoned = outcome.deliveries.get(poisoned_id, [])
                    if not poisoned or \
                            poisoned[0].status != "quarantined-input":
                        got = (poisoned[0].status if poisoned
                               else "nothing")
                        findings.append(Finding(
                            "SV104", where,
                            f"poisoned request {poisoned_id!r} was not "
                            f"quarantined with a coded response "
                            f"(got {got})",
                        ))
                if plan is None and outcome.restarts < 1:
                    findings.append(Finding(
                        "SV104", where,
                        "injected worker crash never exercised a team "
                        "restart (the recovery path went untested)",
                    ))
                findings.append(Finding(
                    "SV105", where,
                    f"chaos replay: {len(outcome.submitted)} requests, "
                    f"statuses {dict(sorted(outcome.status_counts.items()))}, "
                    f"{outcome.restarts} restart(s), "
                    f"{outcome.reloads} reload(s), {outcome.shed} shed, "
                    f"{outcome.duplicates_suppressed} duplicate(s) "
                    "suppressed",
                ))
        finally:
            engine.close()
    return findings, outcomes


def _first_parallel_layer(net) -> str:
    """The chaos target: the first layer with learnable parameters
    (conv/fc — guaranteed chunked across worker threads)."""
    for layer in net.layers:
        if layer.blobs:
            return layer.name
    return net.layer_names[-1]


# ---------------------------------------------------------------------------
# report + driver
# ---------------------------------------------------------------------------
@dataclass
class ServecheckReport(Gated):
    findings: List[Finding] = field(default_factory=list)
    replays: List[ReplayOutcome] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "findings": [f.to_json() for f in self.findings],
            "replays": [r.to_json() for r in self.replays],
        }

    def summary_lines(self) -> List[str]:
        lines = [f.line() for f in self.findings]
        for r in self.replays:
            lines.append(
                f"-- {r.net} t={r.threads} {r.regime}: "
                f"{len(r.submitted)} requests, "
                f"{dict(sorted(r.status_counts.items()))}, "
                f"{r.restarts} restart(s), {r.batches} batch(es)"
            )
        lines.append(
            "servecheck: OK" if self.ok else "servecheck: FINDINGS"
        )
        return lines


def run_servecheck(
    nets: Sequence[str] = DEFAULT_NETS,
    threads: Sequence[int] = DEFAULT_THREADS,
    requests: int = DEFAULT_REQUESTS,
    seed: int = 0,
    static_only: bool = False,
    trace_out: Optional[str] = None,
) -> ServecheckReport:
    """The full servecheck pass: static lint, then per-config replays."""
    report = ServecheckReport()
    report.findings.extend(lint_serve())
    if static_only:
        return report
    for net_name in nets:
        for team in threads:
            findings, outcomes = certify_config(
                net_name, team, requests=requests, seed=seed,
                trace_out=trace_out,
            )
            report.findings.extend(findings)
            report.replays.extend(outcomes)
    return report
