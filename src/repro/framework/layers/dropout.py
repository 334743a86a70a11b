"""Dropout layer with inverted scaling (Caffe semantics).

During training each element is zeroed with probability ``dropout_ratio``
and survivors are scaled by ``1 / (1 - ratio)``; at test time it is the
identity.  The mask for a whole batch is drawn *once per forward pass*
(in :meth:`reshape`, which the net invokes sequentially before the chunked
forward), so the parallel and sequential executions see the same mask —
another ingredient of convergence invariance for stochastic layers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.framework.blob import DTYPE, Blob
from repro.framework.layers.neuron import NeuronLayer
from repro.framework.layer import (
    FootprintDecl,
    RNG_PER_FORWARD,
    RNGDecl,
    register_layer,
)
from repro.framework.shape_inference import (
    BlobInfo,
    RuleResult,
    ShapeError,
    register_shape_rule,
)


@register_layer("Dropout")
class DropoutLayer(NeuronLayer):
    """Inverted dropout.

    Parameters (``dropout_param``): ``dropout_ratio`` (default 0.5),
    ``seed`` (default 1).  Set :attr:`train_mode` to False for the
    identity (test-phase) behaviour (the net does this for TEST-phase
    construction before :meth:`setup` runs).
    """

    #: Phase switch; class-level default so it can be assigned before setup.
    train_mode = True

    # The mask is drawn in reshape() (sequential) and only *read* inside
    # the chunked loops, so no scratch entry is needed.
    write_footprint = FootprintDecl()

    # One whole-batch mask per forward pass, drawn in the sequential
    # reshape() prologue from an explicitly seeded generator — the draw
    # count and order are independent of thread count and chunking, which
    # is what lets detcheck certify stochastic nets.
    rng_provenance = RNGDecl(seed_params=("seed",), fallback="constant",
                             draws=RNG_PER_FORWARD)

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        self.ratio = float(self.spec.param("dropout_ratio", 0.5))
        self.scale = 1.0 / (1.0 - self.ratio)
        self._rng = np.random.default_rng(int(self.spec.param("seed", 1)))
        self._mask = np.zeros(0, dtype=DTYPE)

    def reshape(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        super().reshape(bottom, top)
        if self.train_mode:
            # One mask per forward pass, drawn sequentially.
            keep = self._rng.random(bottom[0].count) >= self.ratio
            self._mask = keep.astype(DTYPE) * DTYPE(self.scale)

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        x = bottom[0].flat_data[lo:hi]
        y = top[0].flat_data[lo:hi]
        if self.train_mode:
            np.multiply(x, self._mask[lo:hi], out=y)
        elif top[0] is not bottom[0]:
            np.copyto(y, x)

    def backward_chunk(
        self,
        top: Sequence[Blob],
        propagate_down: Sequence[bool],
        bottom: Sequence[Blob],
        lo: int,
        hi: int,
        param_grads: Sequence[np.ndarray],
    ) -> None:
        if not propagate_down[0]:
            return
        dy = top[0].flat_diff[lo:hi]
        dx = bottom[0].flat_diff[lo:hi]
        if self.train_mode:
            np.multiply(dy, self._mask[lo:hi], out=dx)
        elif bottom[0] is not top[0]:
            np.copyto(dx, dy)


@register_shape_rule("Dropout", inplace_ok=True)
def _dropout_shape_rule(spec, bottoms) -> RuleResult:
    ratio = float(spec.param("dropout_ratio", 0.5))
    if not 0.0 <= ratio < 1.0:
        raise ShapeError(
            f"layer {spec.name!r}: dropout_ratio must be in [0, 1), "
            f"got {ratio}"
        )
    return RuleResult(
        tops=[BlobInfo(bottoms[0].shape, bottoms[0].dtype)],
        forward_space=bottoms[0].count,
    )
