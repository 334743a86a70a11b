"""Unit tests for the ThreadTeam runtime."""

import threading
import time

import numpy as np
import pytest

from repro.core.scheduling import DynamicSchedule
from repro.core.team import ThreadTeam, WorkerError


@pytest.fixture
def team4():
    with ThreadTeam(4) as team:
        yield team


class TestParallelRegion:
    def test_all_threads_run(self, team4):
        seen = [False] * 4
        team4.parallel(lambda ctx: seen.__setitem__(ctx.thread_id, True))
        assert all(seen)

    def test_caller_is_thread_zero(self, team4):
        main = threading.get_ident()
        idents = {}
        team4.parallel(
            lambda ctx: idents.__setitem__(ctx.thread_id, threading.get_ident())
        )
        assert idents[0] == main
        assert len(set(idents.values())) == 4

    def test_single_thread_inline(self):
        with ThreadTeam(1) as team:
            ran = []
            team.parallel(lambda ctx: ran.append(ctx.thread_id))
            assert ran == [0]

    def test_num_threads_exposed(self, team4):
        counts = []
        team4.parallel(lambda ctx: counts.append(ctx.num_threads))
        assert counts.count(4) == 4

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ThreadTeam(0)

    def test_reuse_many_regions(self, team4):
        total = []
        for i in range(20):
            team4.parallel(lambda ctx: total.append(1))
        assert len(total) == 80


class TestSynchronization:
    def test_ordered_is_in_thread_order(self, team4):
        for _ in range(5):
            order = []
            team4.parallel(lambda ctx: ctx.ordered(
                lambda: order.append(ctx.thread_id)))
            assert order == [0, 1, 2, 3]

    def test_critical_mutual_exclusion(self, team4):
        counter = {"value": 0}

        def bump():
            value = counter["value"]
            time.sleep(0.001)  # widen the race window
            counter["value"] = value + 1

        team4.parallel(lambda ctx: ctx.critical(bump))
        assert counter["value"] == 4

    def test_barrier(self, team4):
        phase = []

        def region(ctx):
            phase.append(("a", ctx.thread_id))
            ctx.barrier()
            phase.append(("b", ctx.thread_id))

        team4.parallel(region)
        labels = [tag for tag, _ in phase]
        assert labels[:4] == ["a"] * 4 and labels[4:] == ["b"] * 4


class TestErrors:
    def test_worker_error_propagates(self, team4):
        def region(ctx):
            if ctx.thread_id == 1:
                raise KeyError("boom")

        with pytest.raises(WorkerError) as info:
            team4.parallel(region)
        assert info.value.thread_id == 1
        assert isinstance(info.value.original, KeyError)

    def test_error_does_not_deadlock_ordered(self, team4):
        def region(ctx):
            if ctx.thread_id == 2:
                raise ValueError("x")
            ctx.ordered(lambda: None)

        with pytest.raises(WorkerError) as info:
            team4.parallel(region)
        assert info.value.thread_id == 2  # root cause, not a secondary

    def test_team_usable_after_error(self, team4):
        with pytest.raises(WorkerError):
            team4.parallel(lambda ctx: 1 / 0)
        order = []
        team4.parallel(lambda ctx: ctx.ordered(lambda: order.append(ctx.thread_id)))
        assert order == [0, 1, 2, 3]

    def test_master_error(self, team4):
        def region(ctx):
            if ctx.thread_id == 0:
                raise RuntimeError("master")

        with pytest.raises(WorkerError) as info:
            team4.parallel(region)
        assert info.value.thread_id == 0

    def test_shutdown_rejects_new_regions(self):
        team = ThreadTeam(2)
        team.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            team.parallel(lambda ctx: None)

    def test_barrier_peers_are_secondary_not_root(self, team4):
        # Peers parked at a barrier when the abort breaks it raise
        # BrokenBarrierError; the surfaced WorkerError must still be
        # the thread that actually failed.
        def region(ctx):
            if ctx.thread_id == 3:
                raise ValueError("real failure")
            ctx.barrier()

        with pytest.raises(WorkerError) as info:
            team4.parallel(region)
        assert info.value.thread_id == 3
        assert isinstance(info.value.original, ValueError)

    def test_peer_errors_collected_on_root(self, team4):
        def region(ctx):
            if ctx.thread_id == 2:
                raise KeyError("root")
            ctx.barrier()

        with pytest.raises(WorkerError) as info:
            team4.parallel(region)
        peers = info.value.peer_errors
        assert peers and all(isinstance(p, WorkerError) for p in peers)
        assert all(p.thread_id != 2 for p in peers)
        assert all(
            isinstance(p.original, threading.BrokenBarrierError)
            for p in peers
        )

    def test_abort_cannot_leave_thread_blocked_on_barrier(self, team4):
        # The failing thread aborts the barrier, so peers cannot stay
        # parked; the same team (and its barrier) must then run a
        # barrier-using region cleanly.
        def region(ctx):
            if ctx.thread_id == 1:
                raise RuntimeError("abort me")
            ctx.barrier()

        with pytest.raises(WorkerError):
            team4.parallel(region)

        phase = []

        def healthy(ctx):
            phase.append(("a", ctx.thread_id))
            ctx.barrier()
            phase.append(("b", ctx.thread_id))

        team4.parallel(healthy)
        labels = [tag for tag, _ in phase]
        assert labels[:4] == ["a"] * 4 and labels[4:] == ["b"] * 4

    def test_team_reusable_after_repeated_aborts(self, team4):
        for _ in range(3):
            with pytest.raises(WorkerError):
                team4.parallel(lambda ctx: 1 / 0)
            order = []
            team4.parallel(
                lambda ctx: ctx.ordered(lambda: order.append(ctx.thread_id))
            )
            assert order == [0, 1, 2, 3]


class TestParallelFor:
    def test_covers_space(self, team4):
        out = np.zeros(101)
        team4.parallel_for(101, lambda lo, hi, tid: out[lo:hi].fill(1))
        assert out.all()

    def test_disjoint_writes(self, team4):
        out = np.full(64, -1.0)
        team4.parallel_for(64, lambda lo, hi, tid: out[lo:hi].fill(tid))
        assert (out >= 0).all()

    def test_zero_space_noop(self, team4):
        team4.parallel_for(0, lambda lo, hi, tid: 1 / 0)

    def test_dynamic_schedule(self, team4):
        out = np.zeros(50)
        team4.parallel_for(
            50, lambda lo, hi, tid: out[lo:hi].__iadd__(1),
            DynamicSchedule(chunk=3),
        )
        assert np.allclose(out, 1.0)

    def test_single_thread_team(self):
        with ThreadTeam(1) as team:
            out = np.zeros(10)
            team.parallel_for(10, lambda lo, hi, tid: out[lo:hi].fill(tid + 1))
            assert np.allclose(out, 1.0)


class TestAbortAtEverySyncPoint:
    """Fault-inject a failure at each region sync point; the root cause
    must win error selection and the team must stay usable."""

    POINTS = ("start", "critical", "ordered", "finish")

    @staticmethod
    def _body(point, faulty):
        from repro.resilience.faults import InjectedFault

        def noop():
            pass

        def boom():
            raise InjectedFault(f"injected at {point}")

        def body(ctx):
            if ctx.thread_id == faulty and point == "start":
                raise InjectedFault("injected at start")
            ctx.barrier()
            if point == "critical":
                ctx.critical(boom if ctx.thread_id == faulty else noop)
            elif point == "ordered":
                ctx.ordered(boom if ctx.thread_id == faulty else noop)
            else:
                ctx.critical(noop)
                ctx.ordered(noop)
            ctx.barrier()
            if ctx.thread_id == faulty and point == "finish":
                raise InjectedFault("injected after last barrier")

        return body

    @pytest.mark.parametrize("nthreads", [2, 8])
    @pytest.mark.parametrize("point", POINTS)
    def test_root_cause_wins_and_team_survives(self, nthreads, point):
        from repro.core.team import _RegionAborted
        from repro.resilience.faults import InjectedFault

        with ThreadTeam(nthreads) as team:
            with pytest.raises(WorkerError) as excinfo:
                team.parallel(self._body(point, faulty=1))
            err = excinfo.value
            assert isinstance(err.original, InjectedFault), (
                f"{point}: root cause was {type(err.original).__name__}"
            )
            assert err.thread_id == 1
            for peer in err.peer_errors:
                assert isinstance(
                    peer.original,
                    (_RegionAborted, threading.BrokenBarrierError),
                ), f"{point}: peer {peer.thread_id} not demoted"
            # clean teardown: the team must run a full region afterwards
            out = np.zeros(nthreads)
            team.parallel_for(
                nthreads, lambda lo, hi, tid: out[lo:hi].fill(1.0))
            assert np.allclose(out, 1.0)

    @pytest.mark.parametrize("nthreads", [2, 8])
    def test_master_abort_at_start(self, nthreads):
        from repro.resilience.faults import InjectedFault

        with ThreadTeam(nthreads) as team:
            with pytest.raises(WorkerError) as excinfo:
                team.parallel(self._body("start", faulty=0))
            assert isinstance(excinfo.value.original, InjectedFault)
            assert excinfo.value.thread_id == 0
            team.parallel(lambda ctx: None)


class TestWatchdog:
    def test_default_is_disabled(self):
        with ThreadTeam(2) as team:
            assert team.watchdog is None

    def test_env_var_parsing(self, monkeypatch):
        from repro.core.team import _default_watchdog

        for raw, want in (("2.5", 2.5), ("", None), (" ", None)):
            monkeypatch.setenv("REPRO_TEAM_WATCHDOG", raw)
            assert _default_watchdog() == want
        monkeypatch.delenv("REPRO_TEAM_WATCHDOG")
        assert _default_watchdog() is None
        # A malformed value must not switch the deadlock detector off
        # without a word: the same ValueError as ThreadTeam(n, watchdog=0).
        for raw in ("junk", "-1", "0", "nan", "inf"):
            monkeypatch.setenv("REPRO_TEAM_WATCHDOG", raw)
            with pytest.raises(ValueError,
                               match=f"REPRO_TEAM_WATCHDOG.*{raw!r}"):
                ThreadTeam(2)

    def test_invalid_watchdog_rejected(self):
        with pytest.raises(ValueError):
            ThreadTeam(2, watchdog=0)
        # an unwaitable timeout would fail every region barrier instead
        with pytest.raises(ValueError):
            ThreadTeam(2, watchdog=float("inf"))

    def test_barrier_timeout_reports_stuck_thread(self):
        from repro.core.team import TeamDeadlock

        with ThreadTeam(2, watchdog=0.2) as team:

            def body(ctx):
                if ctx.thread_id == 1:
                    time.sleep(1.0)  # never reaches the barrier in time
                ctx.barrier()

            with pytest.raises(WorkerError) as excinfo:
                team.parallel(body)
            root = excinfo.value.original
            assert isinstance(root, TeamDeadlock)
            assert root.point == "region-barrier"
            assert "last sync point" in str(root)
            assert "thread 1" in str(root)
            # stack dump names the sleeping frame
            assert "time.sleep" in str(root) or "sleep" in str(root)
            team.parallel(lambda ctx: None)  # team recovered

    def test_ordered_timeout_names_the_turn(self):
        from repro.core.team import TeamDeadlock

        with ThreadTeam(2, watchdog=0.2) as team:

            def body(ctx):
                if ctx.thread_id == 1:
                    ctx.ordered(lambda: None)  # waits on t0's turn forever
                else:
                    time.sleep(1.0)

            with pytest.raises(WorkerError) as excinfo:
                team.parallel(body)
            root = excinfo.value.original
            assert isinstance(root, TeamDeadlock)
            assert root.point == "ordered"
            team.parallel(lambda ctx: None)

    def test_critical_timeout_while_lock_hogged(self):
        from repro.core.team import TeamDeadlock

        with ThreadTeam(2, watchdog=0.2) as team:

            def body(ctx):
                if ctx.thread_id == 0:
                    ctx.critical(lambda: time.sleep(1.0))
                else:
                    time.sleep(0.05)  # let t0 grab the lock first
                    ctx.critical(lambda: None)

            with pytest.raises(WorkerError) as excinfo:
                team.parallel(body)
            root = excinfo.value.original
            assert isinstance(root, TeamDeadlock)
            assert root.point == "critical"
            team.parallel(lambda ctx: None)

    def test_last_sync_recorded_per_thread(self):
        with ThreadTeam(2, watchdog=5.0) as team:
            team.parallel(lambda ctx: ctx.barrier())
            assert team._last_sync[0] is not None
            assert team._last_sync[1] is not None


class TestLifecycle:
    """shutdown() idempotence and restart() — the serving supervisor's
    recovery primitives."""

    def test_double_shutdown_is_idempotent(self):
        team = ThreadTeam(4)
        team.shutdown()
        team.shutdown()  # must not hang or raise
        with pytest.raises(RuntimeError, match="shut down"):
            team.parallel(lambda ctx: None)

    def test_shutdown_from_another_thread(self):
        # The serving watchdog calls shutdown from its own (non-master)
        # thread after an abort; this must not deadlock.
        team = ThreadTeam(4)
        with pytest.raises(WorkerError):
            team.parallel(lambda ctx: 1 / 0)
        errors = []

        def watchdog():
            try:
                team.shutdown()
            except BaseException as exc:  # noqa: BLE001 - test recorder
                errors.append(exc)

        thread = threading.Thread(target=watchdog)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "shutdown deadlocked off-master"
        assert errors == []

    def test_restart_after_shutdown_runs_regions(self):
        team = ThreadTeam(4)
        team.shutdown()
        team.restart()
        try:
            seen = [False] * 4
            team.parallel(lambda ctx: seen.__setitem__(ctx.thread_id, True))
            assert all(seen)
        finally:
            team.shutdown()

    def test_abort_restart_run(self):
        team = ThreadTeam(4)
        try:
            with pytest.raises(WorkerError):
                team.parallel(lambda ctx: 1 / 0)
            team.restart()
            order = []
            team.parallel(
                lambda ctx: ctx.ordered(lambda: order.append(ctx.thread_id))
            )
            assert order == [0, 1, 2, 3]
        finally:
            team.shutdown()

    def test_restart_without_shutdown(self):
        # restart() on a live team recycles it in place.
        team = ThreadTeam(2)
        try:
            team.parallel(lambda ctx: None)
            team.restart()
            out = np.zeros(10)
            team.parallel_for(10, lambda lo, hi, tid: out[lo:hi].fill(1))
            assert out.all()
        finally:
            team.shutdown()

    def test_repeated_restarts(self):
        team = ThreadTeam(2)
        try:
            for _ in range(3):
                team.restart()
                total = []
                team.parallel(lambda ctx: total.append(1))
                assert len(total) == 2
        finally:
            team.shutdown()
