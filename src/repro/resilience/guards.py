"""Numeric health guards: per-iteration NaN/Inf sentinels for training.

A long run dies in one of two ways: an exception tears the net mid
update, or the trajectory silently fills with NaN/Inf and every
subsequent iteration is wasted.  :class:`HealthGuard` wraps one solver
iteration with both defenses:

* **Sentinels** — after forward+backward it scans the loss, every
  activation blob, and every parameter diff; after ``apply_update`` it
  scans the post-update parameters.  The first non-finite value found
  becomes a :class:`GuardEvent`.
* **Shadow copy** — before the iteration it copies the parameters and
  the solver history (and nothing else: RNG streams and data cursors
  are deliberately *not* touched, so a rolled-back iteration consumes
  its batch and its random draws exactly once and the streams never
  fork).  The shadow backs three policies:

  - ``halt`` — restore the last good state, clear diffs, raise
    :class:`NumericFault`.  The solver is left checkpointable.
  - ``skip-batch`` — a poisoned batch detected *before* the update is
    simply not applied; the iteration still counts (LR schedule and
    loss history stay aligned).  Corruption detected *after* the update
    escalates to halt — an applied update cannot be "skipped".
  - ``rollback`` — any detection restores the shadow and training
    continues on the next batch.

  An exception escaping forward/backward (e.g. a
  :class:`~repro.core.team.WorkerError` from an aborted parallel
  region) is always contained the same way regardless of policy: shadow
  restored, diffs cleared, then re-raised — the solver can never be
  left torn.

On a healthy iteration the guard performs exactly the operations of the
unguarded path in the same order (the scans are read-only), so guarded
and unguarded runs are bitwise identical until the first fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

#: Recognised policy names (CLI spelling).
HALT = "halt"
SKIP_BATCH = "skip-batch"
ROLLBACK = "rollback"
GUARD_POLICIES = (HALT, SKIP_BATCH, ROLLBACK)


@dataclass(frozen=True)
class GuardEvent:
    """One sentinel detection (or contained exception)."""

    iteration: int
    stage: str  #: "loss" | "activation" | "diff" | "param" | "exception"
    detail: str  #: what was non-finite (blob name, loss value, ...)
    policy: str
    action: str  #: "halt" | "skip-batch" | "rollback" | "contain"

    def __str__(self) -> str:
        return (
            f"iteration {self.iteration}: non-finite {self.stage} "
            f"({self.detail}) -> {self.action}"
        )


class NumericFault(ArithmeticError):
    """Raised by the ``halt`` policy (and post-update ``skip-batch``
    escalation); carries the triggering :class:`GuardEvent`."""

    def __init__(self, event: GuardEvent) -> None:
        super().__init__(
            f"numeric fault at {event}; parameters and solver history were "
            "restored to the last healthy iteration"
        )
        self.event = event


@dataclass
class _Shadow:
    """Pre-iteration copy of everything ``apply_update`` mutates."""

    params: List[np.ndarray] = field(default_factory=list)
    history: List[np.ndarray] = field(default_factory=list)


class HealthGuard:
    """Per-iteration NaN/Inf sentinel with a recovery policy.

    Install on a solver (``solver.guard = HealthGuard(...)``); the
    solver then routes every iteration of :meth:`Solver.step
    <repro.framework.solvers.base.Solver.step>` through
    :meth:`step`.

    Parameters
    ----------
    policy:
        One of :data:`GUARD_POLICIES`.
    check_activations:
        Scan every net blob's data after forward+backward (default on;
        turn off to check only loss / diffs / params).
    """

    def __init__(self, policy: str = HALT,
                 check_activations: bool = True) -> None:
        if policy not in GUARD_POLICIES:
            raise ValueError(
                f"unknown guard policy {policy!r}; expected one of "
                f"{GUARD_POLICIES}"
            )
        self.policy = policy
        self.check_activations = check_activations
        #: Every detection / containment, in order.
        self.events: List[GuardEvent] = []

    # ------------------------------------------------------------------
    # the guarded iteration
    # ------------------------------------------------------------------
    def step(self, solver) -> float:
        """Run one guarded training iteration; returns the loss."""
        solver._maybe_test()
        shadow = self._snapshot(solver)
        try:
            loss = solver._forward_backward()
        except BaseException:
            # Containment: whatever blew up mid-pass (worker abort,
            # layer exception, keyboard interrupt), the solver must not
            # be left with half-accumulated diffs or torn parameters.
            self._restore(solver, shadow)
            solver.net.clear_param_diffs()
            self.events.append(GuardEvent(
                solver.iteration, "exception",
                "exception escaped forward/backward; state restored",
                self.policy, "contain",
            ))
            raise

        event = self._scan_pre_update(solver, loss)
        if event is None:
            solver.apply_update()
            event = self._scan_params(solver)
            if event is None:
                return solver._finish_iteration(loss)
            # The update itself produced non-finite parameters.  Only
            # rollback can recover; skip-batch has nothing left to skip.
            self._restore(solver, shadow)
            solver.net.clear_param_diffs()
            if self.policy == ROLLBACK:
                self.events.append(event)
                return solver._finish_iteration(loss)
            halted = GuardEvent(
                event.iteration, event.stage, event.detail,
                self.policy, "halt",
            )
            self.events.append(halted)
            raise NumericFault(halted)

        # Poison detected before the update was applied.
        if self.policy == HALT:
            solver.net.clear_param_diffs()
            self.events.append(event)
            raise NumericFault(event)
        # skip-batch and rollback agree here: the update is discarded,
        # the iteration still counts (LR schedule stays aligned), and
        # neither the RNG streams nor the batch cursor are rewound.
        solver.net.clear_param_diffs()
        if self.policy == ROLLBACK:
            self._restore(solver, shadow)
        self.events.append(event)
        return solver._finish_iteration(loss)

    # ------------------------------------------------------------------
    # sentinels (read-only scans)
    # ------------------------------------------------------------------
    def _scan_pre_update(self, solver, loss: float) -> Optional[GuardEvent]:
        action = HALT if self.policy == HALT else self.policy
        if not np.isfinite(loss):
            return GuardEvent(
                solver.iteration, "loss", f"loss={loss!r}",
                self.policy, action,
            )
        if self.check_activations:
            for name, blob in solver.net.blob_map.items():
                if not np.all(np.isfinite(blob.flat_data)):
                    return GuardEvent(
                        solver.iteration, "activation", f"blob {name!r}",
                        self.policy, action,
                    )
        for blob, owner in zip(solver.net.learnable_params,
                               solver.net.param_owners):
            if not np.all(np.isfinite(blob.flat_diff)):
                return GuardEvent(
                    solver.iteration, "diff", f"layer {owner!r}",
                    self.policy, action,
                )
        return None

    def _scan_params(self, solver) -> Optional[GuardEvent]:
        for blob, owner in zip(solver.net.learnable_params,
                               solver.net.param_owners):
            if not np.all(np.isfinite(blob.flat_data)):
                return GuardEvent(
                    solver.iteration, "param", f"layer {owner!r}",
                    self.policy,
                    ROLLBACK if self.policy == ROLLBACK else "halt",
                )
        return None

    # ------------------------------------------------------------------
    # shadow copy
    # ------------------------------------------------------------------
    @staticmethod
    def _snapshot(solver) -> _Shadow:
        return _Shadow(
            params=[blob.flat_data.copy()
                    for blob in solver.net.learnable_params],
            history=[h.copy() for h in solver.history],
        )

    @staticmethod
    def _restore(solver, shadow: _Shadow) -> None:
        for blob, saved in zip(solver.net.learnable_params, shadow.params):
            blob.flat_data[:] = saved
        for live, saved in zip(solver.history, shadow.history):
            live[:] = saved
