"""Nesterov accelerated gradient solver (cited as [23] in the paper)."""

from __future__ import annotations

from repro.framework.blob import DTYPE
from repro.framework.solvers.base import Solver


class NesterovSolver(Solver):
    """Nesterov momentum, in Caffe's formulation:

    ``V_{t+1} = momentum * V_t + local_lr * dW``;
    ``W_{t+1} = W_t - ((1 + momentum) * V_{t+1} - momentum * V_t)``.
    """

    def compute_update_value(self, param_id: int, rate: float) -> None:
        blob = self.net.learnable_params[param_id]
        local_rate = DTYPE(rate * self.net.params_lr[param_id])
        momentum = DTYPE(self.params.momentum)
        history = self.history[param_id]
        prev = history.copy()
        history *= momentum
        history += local_rate * blob.flat_diff
        blob.flat_diff[:] = (DTYPE(1.0) + momentum) * history - momentum * prev
