"""The coded-finding catalogue of the analysis suite.

Nine passes, ten code families, one place that names them all:

* **FP/RT** — parallel-safety analyzer (PR 1): write-footprint
  classification and runtime-invariant lint.
* **NG** — net-graph static checker (PR 2): spec/DAG lint.
* **DC** — determinism certifier (PR 3): static nondeterminism lint,
  configuration invariance-tier rules, and dynamic replay certification.
* **RS** — resilience certifier (PR 5): unguarded-state-write lint,
  checkpoint/resume bitwise certification, and fault-injection
  recovery certification.
* **PL** — auto-parallelization planner (PR 6): per-layer execution-plan
  lint, load-time executor/plan drift checks, and planned-run tier
  certification.
* **FU** — graph compiler (PR 7): operator-fusion / memory-arena
  transform checks (shape and cost parity, arena aliasing) and
  fused-vs-unfused bitwise replay certification.
* **SY** — concurrency certifier (PR 8): lock-order / barrier-protocol
  static lint over the runtime sources, deterministic bounded model
  checking of the thread team under interleaving (deadlock, exception,
  digest divergence), and seeded-defect certification of the checker
  itself.
* **PE** — performance certifier (PR 9): static performance-bug lint
  over the layer chunk code (float64 upcasts, hot-loop allocations,
  implicit copies, iteration-space Python loops) gated by per-layer
  ``PerfDecl`` allow-lists, and a roofline classifier over the cost
  model.
* **SV** — serving certifier (PR 10): static robustness lint over the
  ``repro.serve`` path (bounded-queue discipline, unbounded waits,
  wall-clock reads outside the injected clock, swallowed exceptions,
  synccheck's lock rules re-applied) and dynamic chaos certification —
  a recorded request trace replayed in virtual time under injected
  worker crashes, straggler chunks, poisoned samples and request
  storms, gating on zero lost/duplicated responses and bitwise parity
  of every served output against sequential ``Net.forward``.

``python -m repro.analysis --list-codes`` prints this table.  Codes are
stable identifiers: CI configs and suppression lists may reference them,
so a code is never renumbered or reused once released.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: code -> (pass, default severity, one-line description).
CODE_CATALOGUE: Dict[str, Tuple[str, str, str]] = {
    # ---- parallel-safety analyzer: static footprint pass ----
    "FP001": ("footprint", "error",
              "layer defines its own chunk method(s) without declaring "
              "write_footprint"),
    "FP002": ("footprint", "error",
              "inferred write classification contradicts the declared "
              "footprint"),
    "FP003": ("footprint", "error",
              "parameter gradients bypass the privatized param_grads "
              "buffers (or reduction_params understate the accumulated "
              "indices)"),
    "FP004": ("footprint", "error",
              "chunk code writes undeclared or non-chunk-bounded layer "
              "state (scratch)"),
    "FP005": ("footprint", "error",
              "forward_chunk writes outside the chunk bounds without "
              "forward=SEQUENTIAL"),
    "FP006": ("footprint", "warning",
              "a write the analyzer cannot resolve; footprint downgraded "
              "to unknown"),
    # ---- parallel-safety analyzer: runtime-invariant lint ----
    "RT001": ("runtime", "error",
              "add_into inside a parallel region without "
              "ctx.ordered/ctx.critical protection"),
    # ---- net-graph static checker ----
    "NG001": ("netcheck", "error",
              "bottom shapes incompatible with the layer's parameters"),
    "NG002": ("netcheck", "error",
              "in-place top violates the chunk-write protocol"),
    "NG003": ("netcheck", "warning",
              "dead blob: produced but never consumed"),
    "NG004": ("netcheck", "error",
              "duplicate producers: a later layer silently shadows a blob"),
    "NG005": ("netcheck", "warning",
              "conv/pool pad-stride geometry drops or skips pixels"),
    "NG006": ("netcheck", "error",
              "net input declared without an input shape"),
    "NG007": ("netcheck", "error",
              "unknown layer type (no registered inference rule)"),
    "NG008": ("netcheck", "error",
              "dangling bottom: consumed but never produced"),
    "NG009": ("netcheck", "error",
              "duplicate layer name within one phase"),
    # ---- determinism certifier: static RNG / nondeterminism lint ----
    "DC001": ("detcheck", "error",
              "unseeded RNG construction (np.random.default_rng() / "
              "RandomState() with no seed draws from OS entropy)"),
    "DC002": ("detcheck", "error",
              "process-salted seed: hash()/id() derived values differ "
              "across interpreter processes (PYTHONHASHSEED)"),
    "DC003": ("detcheck", "error",
              "wall-clock or OS-entropy value feeding RNG state "
              "(time.*, os.urandom, uuid, secrets inside a seed)"),
    "DC004": ("detcheck", "error",
              "RNG draw inside chunk-parallel code: the draw count/order "
              "depends on the chunk schedule and thread count"),
    "DC005": ("detcheck", "error",
              "legacy global numpy RNG stream (np.random.rand/seed/...): "
              "draw order couples unrelated call sites"),
    "DC006": ("detcheck", "error",
              "layer constructs an RNG but declares no rng_provenance"),
    "DC007": ("detcheck", "error",
              "rng_provenance declaration inconsistent with the layer "
              "source (seed params never read, wrong draw site, or "
              "missing stable_seed fallback)"),
    # ---- determinism certifier: configuration tier rules ----
    "DC101": ("detcheck", "error",
              "configuration claims an invariance tier its reduction "
              "mode cannot deliver (e.g. atomic claiming bitwise)"),
    "DC102": ("detcheck", "error",
              "ordered/tree reduction under a dynamic or guided schedule "
              "degrades to nondeterministic"),
    "DC103": ("detcheck", "error",
              "stochastic layer with undeclared RNG provenance in a "
              "certified configuration"),
    "DC104": ("detcheck", "warning",
              "solver type outside the deterministic-certified set"),
    # ---- determinism certifier: dynamic replay certification ----
    "DC201": ("detcheck", "error",
              "bitwise invariance violated: parallel replay diverges from "
              "the sequential trajectory where the tier promises equality"),
    "DC202": ("detcheck", "error",
              "per-thread-count determinism violated: two runs of the "
              "same configuration diverge"),
    "DC203": ("detcheck", "info",
              "divergence observed within the declared tier (first "
              "diverging layer/iteration and ULP distance reported)"),
    # ---- resilience certifier: static state-safety lint ----
    "RS001": ("rescheck", "error",
              "state written in place (np.savez/np.save outside the "
              "atomic checkpoint writer): a crash mid-save destroys the "
              "previous snapshot"),
    "RS002": ("rescheck", "error",
              "state read without digest verification (np.load outside "
              "the verified loaders): corruption surfaces as a raw "
              "zipfile error instead of a coded rejection"),
    "RS003": ("rescheck", "error",
              "per-forward RNG stream not checkpoint-capturable (layer "
              "never stores its generator in self._rng)"),
    "RS004": ("rescheck", "error",
              "batch source without get_state/set_state: the stream "
              "cursor is trajectory state and would be lost on resume"),
    # ---- resilience certifier: checkpoint/resume certification ----
    "RS101": ("rescheck", "error",
              "resume divergence: the trajectory resumed from a "
              "mid-run checkpoint is not bitwise equal to the "
              "uninterrupted run at the same (net, mode, threads)"),
    "RS102": ("rescheck", "error",
              "state loss on roundtrip: save -> load -> save is not "
              "bitwise stable"),
    # ---- resilience certifier: fault-injection certification ----
    "RS201": ("rescheck", "error",
              "fault containment failure: an injected fault hung the "
              "runtime, masked its root cause, left the thread team "
              "unusable, or left torn state"),
    "RS202": ("rescheck", "error",
              "post-crash resume divergence: recovery from the last "
              "pre-crash checkpoint does not rejoin the reference "
              "trajectory bitwise"),
    "RS203": ("rescheck", "error",
              "guard policy not honoured: halt/skip-batch/rollback did "
              "not deliver its promised recovery behaviour on an "
              "injected NaN"),
    "RS204": ("rescheck", "error",
              "damaged checkpoint accepted: a corrupt, truncated, or "
              "pre-resilience snapshot must be rejected with a coded "
              "CheckpointCorrupt/CheckpointFormatError"),
    # ---- auto-parallelization planner: static plan lint ----
    "PL001": ("plancheck", "error",
              "plan references an unknown layer (or the net cannot be "
              "planned: unregistered layer type / shape error)"),
    "PL002": ("plancheck", "error",
              "coalesced dims inconsistent with the layer's iteration "
              "space (dims product, coalesce depth, or granularity "
              "mismatch)"),
    "PL003": ("plancheck", "error",
              "thread count exceeds the chunkable extent (more threads "
              "than schedulable units at the plan's granularity)"),
    "PL004": ("plancheck", "error",
              "a layer's reduction mode / schedule delivers a weaker "
              "invariance tier than the plan claims"),
    "PL005": ("plancheck", "warning",
              "plan predicted slower than the uniform baseline (the "
              "uniform strategy is always in the search space, so this "
              "flags a planner regression)"),
    "PL006": ("plancheck", "info",
              "predicted static-schedule imbalance exceeds 20% for a "
              "layer (busiest thread vs ideal split)"),
    # ---- auto-parallelization planner: executor/plan drift at load ----
    "PL101": ("plancheck", "error",
              "plan/net mismatch at load time (derived for a different "
              "net, or a plan entry matches no live layer)"),
    "PL102": ("plancheck", "error",
              "a layer's recorded iteration space drifted from the live "
              "net's actual coalesced space (granularity is ignored)"),
    "PL103": ("plancheck", "error",
              "a layer plan wants more threads than the executor team "
              "has"),
    "PL104": ("plancheck", "warning",
              "parallelizable live layer has no plan entry; it falls "
              "back to the executor-wide uniform strategy"),
    # ---- auto-parallelization planner: dynamic tier certification ----
    "PL201": ("plancheck", "error",
              "planned run violates the plan's claimed invariance tier "
              "(trajectory diverges where the tier promises equality)"),
    "PL202": ("plancheck", "info",
              "planned-run divergence within the claimed tier (first "
              "diverging site and ULP distance reported)"),
    # ---- graph compiler: fusion / arena transform checks ----
    "FU001": ("fusecheck", "error",
              "fusion pass failed (invalid transformed spec, or the "
              "fused net cannot be built)"),
    "FU002": ("fusecheck", "error",
              "fused shape parity violated: the fused spec's inferred "
              "blob shapes differ from the unfused net's at a surviving "
              "blob (or the fused spec fails netcheck)"),
    "FU003": ("fusecheck", "error",
              "arena aliasing: two simultaneously-live blobs were "
              "assigned overlapping arena storage"),
    "FU004": ("fusecheck", "error",
              "fused cost parity broken: spec_costs and net_costs "
              "disagree on a fused layer's work descriptor"),
    "FU005": ("fusecheck", "info",
              "no fusable chains or in-place opportunities in the net"),
    # ---- graph compiler: dynamic replay certification ----
    "FU201": ("fusecheck", "error",
              "fused+arena replay diverges bitwise from the unfused "
              "sequential baseline trajectory"),
    "FU202": ("fusecheck", "info",
              "fused+arena replay certified bitwise-identical to the "
              "unfused sequential baseline"),
    # ---- concurrency certifier: static sync-protocol lint ----
    "SY001": ("synccheck", "error",
              "lock-order cycle: two locks are acquired in opposite "
              "nesting orders on different code paths (ABBA deadlock)"),
    "SY002": ("synccheck", "error",
              "lock held across a barrier, ordered turn, condition "
              "wait, or blocking call (join/parallel region)"),
    "SY003": ("synccheck", "error",
              "Condition.wait outside a predicate re-check loop "
              "(missed/spurious wakeups go unnoticed)"),
    "SY004": ("synccheck", "error",
              "module-level mutable state written without holding a "
              "lock in a threading-aware module"),
    "SY005": ("synccheck", "error",
              "barrier divergence: non-exempt code paths through a "
              "function hit a team barrier a different number of times"),
    "SY006": ("synccheck", "error",
              "re-acquisition of a held non-reentrant lock "
              "(self-deadlock)"),
    # ---- concurrency certifier: interleaving model checker ----
    "SY101": ("synccheck", "error",
              "deadlock under some explored interleaving (every live "
              "thread blocked; pending ops and replayable schedule "
              "reported)"),
    "SY102": ("synccheck", "error",
              "exception raised under some explored interleaving that "
              "the canonical schedule does not raise"),
    "SY103": ("synccheck", "error",
              "schedule-dependent output: a configuration whose "
              "invariance tier promises determinism produced different "
              "output bits under two interleavings"),
    "SY104": ("synccheck", "warning",
              "exploration truncated at the run budget before "
              "exhausting the preemption-bounded schedule space"),
    # ---- concurrency certifier: seeded-defect certification ----
    "SY201": ("synccheck", "error",
              "seeded synchronization defect NOT rediscovered: the "
              "model checker missed a planted lock-order inversion or "
              "barrier skip (checker regression)"),
    "SY202": ("synccheck", "info",
              "seeded defect rediscovered as a deadlock and its "
              "recorded schedule replayed faithfully"),
    # ---- performance certifier: static performance-bug lint ----
    "PE001": ("perfcheck", "error",
              "undeclared float64 upcast in chunk-reachable code "
              "(astype/dtype=/np.float64 outside the layer's PerfDecl "
              "allow-list): silently doubles bandwidth per element"),
    "PE002": ("perfcheck", "error",
              "undeclared array allocation in chunk-reachable code "
              "(np.zeros/empty/... per chunk instead of the scratch "
              "pool): allocator traffic scales with the thread count"),
    "PE003": ("perfcheck", "warning",
              "undeclared implicit copy in chunk-reachable code "
              "(ascontiguousarray / flatten / ravel of a strided view "
              "materializes a hidden temporary)"),
    "PE004": ("perfcheck", "warning",
              "undeclared Python-level loop over an iteration-space-"
              "sized range in chunk-reachable code (interpreter "
              "dispatch per element instead of a vectorized op)"),
    "PE005": ("perfcheck", "error",
              "PerfDecl drift: an allowance names an unknown or "
              "non-chunk-reachable method, or vouches for a hazard the "
              "method no longer contains (stale declaration)"),
    # ---- performance certifier: roofline classifier ----
    "PE101": ("perfcheck", "info",
              "planned thread width exceeds the modelled DRAM "
              "bandwidth saturation width for a bandwidth-bound layer "
              "(extra threads buy <10% marginal bandwidth)"),
    "PE102": ("perfcheck", "info",
              "dispatch/fork-join overhead exceeds half the modelled "
              "layer time at the planned width (layer too small to "
              "parallelize profitably)"),
    # ---- serving certifier: static serve-path lint ----
    "SV001": ("servecheck", "error",
              "bounded-queue discipline violated in the serve path: a "
              "queue.Queue (unbounded growth) or deque(maxlen=...) "
              "(silent far-end drops) constructed instead of the "
              "reject-loudly BoundedDeque"),
    "SV002": ("servecheck", "error",
              "unbounded blocking call in the serve path (.wait()/"
              ".join() with no timeout): a stalled peer freezes the "
              "serving thread forever"),
    "SV003": ("servecheck", "error",
              "synccheck lock-discipline violation in the serve path "
              "(the SY001-SY006 static rules re-applied to repro.serve; "
              "the original SY code is named in the message)"),
    "SV004": ("servecheck", "error",
              "wall-clock read outside the injected-clock module: "
              "time/datetime used directly, so deadlines cannot be "
              "replayed in virtual time"),
    "SV005": ("servecheck", "error",
              "exception swallowed silently in the serve path (bare "
              "except, or a handler that only passes): a fault must "
              "become a coded response, not vanish"),
    # ---- serving certifier: dynamic chaos certification ----
    "SV101": ("servecheck", "error",
              "lost response: a submitted request finished the trace "
              "replay with no delivered response"),
    "SV102": ("servecheck", "error",
              "duplicated response: more than one response reached the "
              "client for a single request id (idempotent delivery "
              "broken, e.g. by a crash-replay)"),
    "SV103": ("servecheck", "error",
              "served output differs bitwise from direct sequential "
              "Net.forward on the identical staged batch"),
    "SV104": ("servecheck", "error",
              "deadline/degradation violation: a healthy-regime replay "
              "produced non-ok responses, or an 'ok' response was "
              "delivered after its request's deadline"),
    "SV105": ("servecheck", "info",
              "chaos certification summary (responses by status, team "
              "restarts, reloads, sheds, duplicates suppressed)"),
}


def source_code_references() -> Dict[str, List[str]]:
    """Scan the analysis package sources for finding-code mentions.

    Returns ``code -> [filenames]`` for every ``XX###`` token in any
    module of this package except the catalogue itself.  Both emission
    sites (``Finding(rule="SY101", ...)``) and documentation mentions
    count as references — the drift check wants the catalogue and the
    sources to agree, whichever direction a code travels.
    """
    import os
    import re

    pattern = re.compile(r"\b(?:FP|RT|NG|DC|RS|PL|FU|SY|PE|SV)\d{3}\b")
    pkg = os.path.dirname(os.path.abspath(__file__))
    refs: Dict[str, List[str]] = {}
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py") or fname == "codes.py":
            continue
        with open(os.path.join(pkg, fname), encoding="utf-8") as fh:
            text = fh.read()
        for code in sorted(set(pattern.findall(text))):
            refs.setdefault(code, []).append(fname)
    return refs


def check_code_drift() -> Tuple[List[str], List[str]]:
    """Catalogue/source consistency: returns (unregistered, unreferenced).

    *unregistered* — codes the analyzer sources mention but the
    catalogue does not define (an analyzer emitting an undocumented
    code).  *unreferenced* — catalogue entries no analyzer source
    mentions (a dead registration).  CI fails on either.
    """
    refs = source_code_references()
    unregistered = sorted(c for c in refs if c not in CODE_CATALOGUE)
    unreferenced = sorted(c for c in CODE_CATALOGUE if c not in refs)
    return unregistered, unreferenced


def drift_lines() -> List[str]:
    """One line per catalogue/source disagreement; empty when in sync."""
    unregistered, unreferenced = check_code_drift()
    lines = [f"DRIFT {code}: emitted by an analyzer but missing from the "
             "catalogue" for code in unregistered]
    lines += [f"DRIFT {code}: registered in the catalogue but no analyzer "
              "source mentions it" for code in unreferenced]
    return lines


def catalogue_lines() -> List[str]:
    """Human-readable rendering of the full code catalogue."""
    lines = [f"{len(CODE_CATALOGUE)} finding codes "
             "(FP/RT: parallel-safety, NG: netcheck, DC: detcheck, "
             "RS: rescheck, PL: plancheck, FU: fusecheck, "
             "SY: synccheck, PE: perfcheck, SV: servecheck)"]
    for code, (pass_name, severity, desc) in sorted(CODE_CATALOGUE.items()):
        lines.append(f"  {code}  {pass_name:<10} {severity:<8} {desc}")
    return lines
