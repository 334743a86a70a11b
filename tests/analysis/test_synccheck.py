"""Tests for synccheck: static sync lint + interleaving model checker."""

import json

import pytest

from repro.analysis.codes import CODE_CATALOGUE, check_code_drift
from repro.analysis.interleave import (
    CheckerSync,
    ModelChecker,
    Op,
    Scheduler,
    schedule_from_json,
)
from repro.analysis.report import ERROR, INFO
from repro.analysis.synccheck import (
    certify_seeded,
    check_config,
    replay_trace,
    seeded_program,
)
from repro.analysis.synclint import lint_sync
from repro.resilience.faults import (
    BarrierSkip,
    ChunkAbort,
    FaultPlan,
    LockOrderInversion,
)

_BAD_MODULE = '''
import threading

A = threading.Lock()
B = threading.Lock()
COND = threading.Condition()
BAR = threading.Barrier(2)
SHARED = []


def ab():
    with A:
        with B:
            pass


def ba():
    with B:
        with A:
            pass


def double():
    with A:
        with A:
            pass


def held_across_barrier():
    with A:
        BAR.wait()


def bare_wait():
    with COND:
        if not SHARED:
            COND.wait()


def unguarded_write():
    SHARED.append(1)


def diverge(flag):
    if flag:
        BAR.wait()
    BAR.wait()
'''


# ---------------------------------------------------------------------------
# static lint
# ---------------------------------------------------------------------------
class TestSyncLint:
    def test_all_rules_fire_on_fixture(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(_BAD_MODULE)
        rules = {f.rule for f in lint_sync([bad])}
        assert rules == {"SY001", "SY002", "SY003", "SY004",
                         "SY005", "SY006"}

    def test_clean_module_is_clean(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text(
            "import threading\n"
            "LOCK = threading.Lock()\n"
            "STATE = {}\n"
            "def guarded():\n"
            "    with LOCK:\n"
            "        STATE['k'] = 1\n"
        )
        assert lint_sync([good]) == []

    def test_runtime_corpus_is_lint_clean(self):
        findings = lint_sync()
        assert findings == [], [
            f"{f.rule} {f.layer}: {f.message}" for f in findings
        ]

    def test_exempt_shutdown_branch_not_divergence(self, tmp_path):
        mod = tmp_path / "loop.py"
        mod.write_text(
            "import threading\n"
            "BAR = threading.Barrier(2)\n"
            "_shutdown = False\n"
            "def worker_loop():\n"
            "    BAR.wait()\n"
            "    if _shutdown:\n"
            "        return\n"
            "    BAR.wait()\n"
        )
        assert [f.rule for f in lint_sync([mod])] == []


# ---------------------------------------------------------------------------
# scheduler / model checker
# ---------------------------------------------------------------------------
def _defect_free_program(sync):
    from repro.core.team import ThreadTeam

    team = ThreadTeam(2, sync=sync)
    try:
        order = []

        def body(ctx):
            ctx.barrier()
            ctx.ordered(lambda: order.append(ctx.thread_id))
            ctx.barrier()

        team.parallel(body)
        return sum((i + 1) * tid for i, tid in enumerate(order))
    finally:
        team.shutdown()


def _racy_digest_program(sync):
    from repro.core.team import ThreadTeam

    team = ThreadTeam(2, sync=sync)
    try:
        order = []

        def body(ctx):
            ctx.critical(lambda: order.append(ctx.thread_id))

        team.parallel(body)
        # first-come-first-served: the digest encodes acquisition order
        return order[0] * 10 + order[1]
    finally:
        team.shutdown()


class TestModelChecker:
    def test_defect_free_program_completes_everywhere(self):
        checker = ModelChecker(_defect_free_program, preemptions=2,
                               max_runs=128)
        result = checker.explore()
        assert not result.truncated
        assert result.deadlocks == []
        assert result.errors == []
        # the ordered construct serializes in thread-id order on every
        # schedule, so the digest is schedule-invariant
        assert len(result.digests) == 1

    def test_schedule_dependence_is_observable(self):
        checker = ModelChecker(_racy_digest_program, preemptions=2,
                               max_runs=128)
        result = checker.explore()
        assert not result.truncated
        # both lock-acquisition orders must have been explored
        assert result.digests == {1, 10}

    def test_finds_lock_order_inversion(self):
        checker = ModelChecker(seeded_program(LockOrderInversion()),
                               preemptions=2, max_runs=128)
        result = checker.explore()
        assert result.deadlocks, "inversion deadlock not discovered"
        record = result.deadlocks[0]
        pending_kinds = {p["kind"]
                         for p in record.deadlock["pending"].values()}
        assert pending_kinds == {"acquire", "turn_wait"}

    def test_finds_barrier_skip(self):
        checker = ModelChecker(seeded_program(BarrierSkip()),
                               preemptions=2, max_runs=128)
        result = checker.explore()
        assert result.deadlocks, "barrier-skip deadlock not discovered"

    def test_deadlock_schedule_replays_faithfully(self):
        checker = ModelChecker(seeded_program(LockOrderInversion()),
                               preemptions=2, max_runs=128)
        record = checker.explore().deadlocks[0]
        faithful, replayed = checker.replay(record.schedule)
        assert faithful
        assert replayed.status == "deadlock"
        assert replayed.deadlock == record.deadlock

    def test_replay_of_a_prefix_or_another_status_is_not_faithful(self):
        checker = ModelChecker(seeded_program(LockOrderInversion()),
                               preemptions=2, max_runs=128)
        record = checker.explore().deadlocks[0]
        assert not checker.replay(record.schedule[:-1])[0]
        trace = record.trace_json({"kind": "seeded",
                                   "defect": "LockOrderInversion"})
        assert replay_trace(trace)[0]
        assert not replay_trace({**trace, "status": "complete"})[0]

    def test_schedule_json_roundtrip(self):
        checker = ModelChecker(seeded_program(BarrierSkip()),
                               preemptions=2, max_runs=64)
        record = checker.explore().deadlocks[0]
        trace = record.trace_json({"kind": "seeded",
                                   "defect": "BarrierSkip"})
        rebuilt = schedule_from_json(trace["schedule"])
        assert rebuilt == record.schedule
        faithful, _ = checker.replay(rebuilt)
        assert faithful

    def test_preemption_bound_zero_is_single_canonical_run(self):
        checker = ModelChecker(_racy_digest_program, preemptions=0,
                               max_runs=64)
        result = checker.explore()
        # without preemptions only free (non-preempting) switches branch;
        # the racy acquire is reached by both threads from a barrier
        # release, so zero-bound still explores both resumption orders
        assert result.explored >= 1
        assert not result.truncated

    def test_chunk_independence_prunes(self):
        calls = []

        def independent(a, b):
            calls.append((a.resource, b.resource))
            return True

        sched = Scheduler(independent=independent)
        a = Op("chunk", "l/forward[0:2]", payload=("l", "forward", 0, 2))
        b = Op("chunk", "l/forward[2:4]", payload=("l", "forward", 2, 4))
        assert sched._op_independent(a, b)
        assert calls

    def test_chunk_vs_sync_independent(self):
        sched = Scheduler()
        chunk = Op("chunk", "l/forward[0:2]",
                   payload=("l", "forward", 0, 2))
        assert sched._op_independent(chunk, Op("acquire", "critical"))
        assert sched._op_independent(Op("barrier", "region", parties=2),
                                     chunk)

    def test_contended_acquires_are_dependent(self):
        sched = Scheduler()
        assert not sched._op_independent(Op("acquire", "critical"),
                                         Op("turn_wait", "ordered"))


# ---------------------------------------------------------------------------
# seeded-defect certification + fault vocabulary
# ---------------------------------------------------------------------------
class TestCertification:
    def test_both_seeded_defects_certify(self):
        certs, findings, traces = certify_seeded()
        assert [c["defect"] for c in certs] == [
            "LockOrderInversion", "BarrierSkip"]
        assert all(c["found"] and c["replayed"] for c in certs)
        assert [f.rule for f in findings] == ["SY202", "SY202"]
        assert all(f.severity == INFO for f in findings)
        assert len(traces) == 2

    def test_certification_trace_replays_standalone(self):
        _, _, traces = certify_seeded()
        for trace in traces:
            faithful, record = replay_trace(trace)
            assert faithful
            assert record.status == "deadlock"

    def test_fault_plan_accepts_sync_descriptors(self):
        plan = FaultPlan(LockOrderInversion(), BarrierSkip(skip_tid=1),
                         ChunkAbort(layer="conv1", iteration=0))
        assert len(list(plan)) == 3

    def test_fault_plan_still_rejects_junk(self):
        with pytest.raises(TypeError):
            FaultPlan(object())

    def test_seeded_program_rejects_unknown_fault(self):
        with pytest.raises(TypeError):
            seeded_program(ChunkAbort(layer="conv1", iteration=0))


# ---------------------------------------------------------------------------
# zoo configuration checking
# ---------------------------------------------------------------------------
class TestZooConfig:
    def test_mlp_two_threads_is_clean(self):
        result, findings, traces = check_config(
            "mlp", 2, batch=4, iters=1, max_runs=32)
        assert result.deadlocks == 0
        assert result.errors == 0
        assert result.digests == 1
        assert not result.truncated
        assert [f for f in findings if f.severity == ERROR] == []


# ---------------------------------------------------------------------------
# codes + CLI
# ---------------------------------------------------------------------------
class TestCodesAndCli:
    def test_sy_codes_registered(self):
        sy = {c for c in CODE_CATALOGUE if c.startswith("SY")}
        assert sy == {"SY001", "SY002", "SY003", "SY004", "SY005",
                      "SY006", "SY101", "SY102", "SY103", "SY104",
                      "SY201", "SY202"}
        assert all(CODE_CATALOGUE[c][0] == "synccheck" for c in sy)

    def test_no_code_drift(self):
        unregistered, unreferenced = check_code_drift()
        assert unregistered == []
        assert unreferenced == []

    def test_cli_static_only_json(self, capsys):
        from repro.analysis.__main__ import main

        rc = main(["synccheck", "--static-only", "--json", "--gate"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["ok"] is True
        assert payload["configs"] == []

    def test_cli_check_codes(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["--check-codes"]) == 0
        assert "agree" in capsys.readouterr().out

    def test_cli_trace_and_replay_roundtrip(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        trace_file = tmp_path / "traces.json"
        rc = main([
            "synccheck", "--net", "mlp", "--threads", "2", "--max-runs", "16",
            "--trace", str(trace_file), "--json",
        ])
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(trace_file.read_text())
        assert payload["traces"], "seeded certification traces expected"
        rc = main(["synccheck", "--replay", str(trace_file), "--gate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "faithful" in out

    def test_cli_replay_of_a_verdict_that_does_not_reproduce_is_broken(
            self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        trace_file = tmp_path / "trace.json"
        trace_file.write_text(json.dumps({
            "version": "synccheck-trace/1",
            "config": {"kind": "zoo", "net": "mlp", "threads": 1,
                       "mode": "ordered", "batch": 4, "iters": 1,
                       "preemptions": 2},
            "status": "deadlock", "schedule": [],
        }))
        rc = main(["synccheck", "--replay", str(trace_file), "--gate"])
        assert rc == 1
        assert "replay BROKEN" in capsys.readouterr().out

    @pytest.mark.parametrize("trace", [
        {"config": {"kind": "seeded", "defect": "BarrierSkip"},
         "schedule": []},
        {"config": {"kind": "seeded", "defect": "FaultPlan"},
         "status": "deadlock", "schedule": []},
    ], ids=["no-status", "not-a-seeded-defect"])
    def test_cli_replay_of_an_unreplayable_trace_is_an_input_error(
            self, trace, tmp_path, capsys):
        from repro.analysis.__main__ import main

        trace_file = tmp_path / "trace.json"
        trace_file.write_text(json.dumps(
            {"version": "synccheck-trace/1", **trace}))
        with pytest.raises(SystemExit) as info:
            main(["synccheck", "--replay", str(trace_file), "--gate"])
        assert info.value.code == 2
        assert "not a replayable trace file" in capsys.readouterr().err
