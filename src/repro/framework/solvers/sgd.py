"""Stochastic gradient descent with momentum (Caffe ``SGDSolver``)."""

from __future__ import annotations

from repro.framework.blob import DTYPE
from repro.framework.solvers.base import Solver


class SGDSolver(Solver):
    """Momentum SGD.

    Update rule (Caffe):
    ``V_{t+1} = momentum * V_t + local_lr * dW``;
    ``W_{t+1} = W_t - V_{t+1}``.
    The history buffer stores ``V``; the final subtraction happens in
    :meth:`repro.framework.blob.Blob.update` via the diff.
    """

    def compute_update_value(self, param_id: int, rate: float) -> None:
        blob = self.net.learnable_params[param_id]
        local_rate = DTYPE(rate * self.net.params_lr[param_id])
        momentum = DTYPE(self.params.momentum)
        history = self.history[param_id]
        # history = momentum * history + local_rate * diff
        history *= momentum
        history += local_rate * blob.flat_diff
        blob.flat_diff[:] = history
