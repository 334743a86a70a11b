"""Split layer: fans one blob out to several consumers.

The net inserts these automatically whenever a blob is consumed by more
than one layer, exactly as Caffe does: the forward pass copies the bottom
into every top, and the backward pass *sums* the top diffs into the bottom
diff — the reason a shared blob's gradient is well defined.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.framework.blob import Blob
from repro.framework.layer import FootprintDecl, Layer, register_layer
from repro.framework.shape_inference import (
    BlobInfo,
    RuleResult,
    register_shape_rule,
)


@register_layer("Split")
class SplitLayer(Layer):
    exact_num_bottom = 1
    min_num_top = 1

    write_footprint = FootprintDecl()

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        src = bottom[0].flat_data[lo:hi]
        for t in top:
            np.copyto(t.flat_data[lo:hi], src)

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
        dst = bottom[0].flat_diff[lo:hi]
        np.copyto(dst, top[0].flat_diff[lo:hi])
        for t in top[1:]:
            dst += t.flat_diff[lo:hi]


@register_shape_rule("Split")
def _split_shape_rule(spec, bottoms) -> RuleResult:
    return RuleResult(
        tops=[BlobInfo(bottoms[0].shape, bottoms[0].dtype)
              for _ in spec.tops],
        forward_space=bottoms[0].count,
    )
