"""AdaGrad solver (Duchi et al., cited as [13] in the paper)."""

from __future__ import annotations

import numpy as np

from repro.framework.blob import DTYPE
from repro.framework.solvers.base import Solver


class AdaGradSolver(Solver):
    """Adaptive subgradient method.

    ``H_{t+1} = H_t + dW^2``;
    ``W_{t+1} = W_t - local_lr * dW / (sqrt(H_{t+1}) + delta)``.
    Momentum must be zero (as Caffe enforces).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.params.momentum:
            raise ValueError("AdaGrad does not support momentum")

    def compute_update_value(self, param_id: int, rate: float) -> None:
        blob = self.net.learnable_params[param_id]
        local_rate = DTYPE(rate * self.net.params_lr[param_id])
        history = self.history[param_id]
        grad = blob.flat_diff
        history += grad * grad
        blob.flat_diff[:] = (
            local_rate * grad / (np.sqrt(history) + DTYPE(self.params.delta))
        )
