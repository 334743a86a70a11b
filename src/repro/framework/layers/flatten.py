"""Flatten layer: collapses all axes after the batch axis."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.framework.blob import Blob
from repro.framework.layer import Layer, LayerContract, register_layer
from repro.framework.shape_inference import (
    BlobInfo,
    RuleResult,
    canonical_axis,
    register_shape_rule,
)


@register_layer("Flatten")
class FlattenLayer(Layer):
    """Reshape ``(N, d1, d2, ...)`` to ``(N, d1*d2*...)``.

    Parameters: ``axis`` (default 1) — axes from ``axis`` on are
    collapsed.  Pure data movement; the coalesced space is the flat
    element range.
    """

    exact_num_bottom = 1
    exact_num_top = 1

    contract = LayerContract()

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        np.copyto(top[0].flat_data[lo:hi], bottom[0].flat_data[lo:hi])

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
        np.copyto(bottom[0].flat_diff[lo:hi], top[0].flat_diff[lo:hi])


@register_shape_rule("Flatten")
def _flatten_shape_rule(spec, bottoms) -> RuleResult:
    axis = canonical_axis(spec, bottoms[0], int(spec.param("axis", 1)))
    shape = bottoms[0].shape
    flattened = 1
    for dim in shape[axis:]:
        flattened *= dim
    return RuleResult(
        tops=[BlobInfo(tuple(shape[:axis]) + (flattened,), bottoms[0].dtype)],
        forward_space=bottoms[0].count,
    )
