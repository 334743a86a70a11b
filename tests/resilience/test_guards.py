"""Unit tests for the numeric health guards.

A guarded healthy run must be bitwise identical to the unguarded one;
each policy (halt / skip-batch / rollback) must deliver its promised
recovery on poisoned losses and post-update parameters; and any
exception escaping forward/backward must be contained (state restored,
diffs cleared, re-raised) under every policy.
"""

import numpy as np
import pytest

from repro.resilience.guards import (
    GUARD_POLICIES,
    GuardEvent,
    HealthGuard,
    NumericFault,
)
from repro.zoo import build_solver


def _params(solver):
    return [b.flat_data.copy() for b in solver.net.learnable_params]


def _poison_loss_once(solver, at_iteration):
    """Make forward/backward report a NaN loss at one iteration."""
    inner = solver._forward_backward

    def wrapped():
        loss = inner()
        if solver.iteration == at_iteration:
            return float("nan")
        return loss

    solver._forward_backward = wrapped


class TestHealthyPath:
    def test_guarded_run_bitwise_equals_unguarded(self):
        plain = build_solver("mlp", 4, batch=4)
        plain.step(4)

        guarded = build_solver("mlp", 4, batch=4)
        guarded.guard = HealthGuard(policy="halt")
        guarded.step(4)

        assert guarded.loss_history == plain.loss_history
        for got, want in zip(_params(guarded), _params(plain)):
            np.testing.assert_array_equal(got, want)
        assert guarded.guard.events == []

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown guard policy"):
            HealthGuard(policy="retry")


class TestHaltPolicy:
    def test_nan_loss_halts_with_restored_params(self):
        solver = build_solver("mlp", 4, batch=4)
        solver.guard = HealthGuard(policy="halt")
        solver.step(1)
        before = _params(solver)
        _poison_loss_once(solver, at_iteration=1)
        with pytest.raises(NumericFault) as info:
            solver.step(1)
        event = info.value.event
        assert event.stage == "loss" and event.action == "halt"
        assert solver.iteration == 1  # poisoned iteration did not count
        for got, want in zip(_params(solver), before):
            np.testing.assert_array_equal(got, want)
        assert all(
            np.all(b.flat_diff == 0)
            for b in solver.net.learnable_params
        )


class TestSkipBatchPolicy:
    def test_update_dropped_iteration_counts(self):
        solver = build_solver("mlp", 4, batch=4)
        solver.guard = HealthGuard(policy="skip-batch")
        solver.step(1)
        before = _params(solver)
        _poison_loss_once(solver, at_iteration=1)
        solver.step(1)
        assert solver.iteration == 2  # the skipped iteration counted
        assert len(solver.loss_history) == 2
        for got, want in zip(_params(solver), before):
            np.testing.assert_array_equal(got, want)  # update dropped
        events = solver.guard.events
        assert len(events) == 1 and events[0].action == "skip-batch"
        # training continues cleanly afterwards
        solver.step(2)
        assert solver.iteration == 4

    def test_post_update_poison_escalates_to_halt(self):
        solver = build_solver("mlp", 4, batch=4)
        solver.guard = HealthGuard(policy="skip-batch")
        solver.step(1)
        before = _params(solver)

        inner = solver.apply_update

        def poisoned_update():
            inner()
            blob = solver.net.learnable_params[0]
            blob.flat_data[0] = np.nan

        solver.apply_update = poisoned_update
        with pytest.raises(NumericFault) as info:
            solver.step(1)
        assert info.value.event.stage == "param"
        assert info.value.event.action == "halt"
        for got, want in zip(_params(solver), before):
            np.testing.assert_array_equal(got, want)


class TestRollbackPolicy:
    def test_rollback_restores_and_continues(self):
        solver = build_solver("mlp", 4, batch=4)
        solver.guard = HealthGuard(policy="rollback")
        solver.step(1)
        before = _params(solver)
        _poison_loss_once(solver, at_iteration=1)
        solver.step(3)
        assert solver.iteration == 4
        assert len(solver.guard.events) == 1
        assert solver.guard.events[0].action == "rollback"
        assert all(np.all(np.isfinite(p)) for p in _params(solver))
        # iteration 2 onward trained from the rolled-back state, so the
        # parameters moved on from `before`
        assert any(
            not np.array_equal(got, want)
            for got, want in zip(_params(solver), before)
        )

    def test_rollback_recovers_post_update_poison(self):
        solver = build_solver("mlp", 4, batch=4)
        solver.guard = HealthGuard(policy="rollback")
        solver.step(1)
        before = _params(solver)

        inner = solver.apply_update
        fired = []

        def poisoned_update():
            inner()
            if not fired:
                fired.append(True)
                blob = solver.net.learnable_params[0]
                blob.flat_data[0] = np.inf

        solver.apply_update = poisoned_update
        solver.step(1)
        assert solver.iteration == 2
        for got, want in zip(_params(solver), before):
            np.testing.assert_array_equal(got, want)  # shadow restored


class TestExceptionContainment:
    @pytest.mark.parametrize("policy", GUARD_POLICIES)
    def test_restores_state_and_reraises(self, policy):
        solver = build_solver("mlp", 4, batch=4)
        solver.guard = HealthGuard(policy=policy)
        solver.step(1)
        before = _params(solver)
        history_before = [h.copy() for h in solver.history]

        def exploding():
            raise RuntimeError("chunk blew up")

        solver._forward_backward = exploding
        with pytest.raises(RuntimeError, match="chunk blew up"):
            solver.step(1)
        assert solver.iteration == 1
        for got, want in zip(_params(solver), before):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(solver.history, history_before):
            np.testing.assert_array_equal(got, want)
        assert all(
            np.all(b.flat_diff == 0)
            for b in solver.net.learnable_params
        )
        events = solver.guard.events
        assert len(events) == 1
        assert events[0].stage == "exception"
        assert events[0].action == "contain"


class TestGuardEvent:
    def test_str_is_informative(self):
        event = GuardEvent(3, "loss", "loss=nan", "halt", "halt")
        text = str(event)
        assert "iteration 3" in text and "loss" in text and "halt" in text
