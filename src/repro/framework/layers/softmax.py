"""Softmax layer (probabilities along the channel axis)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.framework.blob import Blob
from repro.framework.layer import FootprintDecl, Layer, register_layer
from repro.framework.shape_inference import (
    BlobInfo,
    RuleResult,
    canonical_axis,
    register_shape_rule,
)


@register_layer("Softmax")
class SoftmaxLayer(Layer):
    """Channel-wise softmax: ``y = exp(x - max) / sum(exp(x - max))``.

    The coalesced iteration space is the outer extent (everything before
    the softmax axis, conventionally the batch): one iteration normalizes
    one sample's class scores.
    """

    exact_num_bottom = 1
    exact_num_top = 1

    write_footprint = FootprintDecl()

    def shape_changed(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        axis = canonical_axis(self.spec, bottom[0],
                              int(self.spec.param("axis", 1)))
        self.outer = self.geometry.forward_space
        self.classes = bottom[0].shape[axis]
        self.inner = bottom[0].count // (self.outer * self.classes)

    def _view(self, flat: np.ndarray) -> np.ndarray:
        return flat.reshape(self.outer, self.classes, self.inner)

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        x = self._view(bottom[0].flat_data)[lo:hi]
        y = self._view(top[0].flat_data)[lo:hi]
        shifted = x - x.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        np.divide(exp, exp.sum(axis=1, keepdims=True), out=y)

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
        y = self._view(top[0].flat_data)[lo:hi]
        dy = self._view(top[0].flat_diff)[lo:hi]
        dx = self._view(bottom[0].flat_diff)[lo:hi]
        # dx = y * (dy - sum(dy * y, axis=classes))
        dot = (dy * y).sum(axis=1, keepdims=True)
        np.copyto(dx, y * (dy - dot))


@register_shape_rule("Softmax", inplace_ok=True)
def _softmax_shape_rule(spec, bottoms) -> RuleResult:
    axis = canonical_axis(spec, bottoms[0], int(spec.param("axis", 1)))
    outer = 1
    for dim in bottoms[0].shape[:axis]:
        outer *= dim
    return RuleResult(
        tops=[BlobInfo(bottoms[0].shape, bottoms[0].dtype)],
        forward_space=outer,
    )
