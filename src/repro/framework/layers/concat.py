"""Concat layer: joins blobs along one axis (default: channels)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.framework.blob import Blob
from repro.framework.layer import FootprintDecl, Layer, register_layer
from repro.framework.shape_inference import (
    BlobInfo,
    RuleResult,
    ShapeError,
    canonical_axis,
    register_shape_rule,
)


@register_layer("Concat")
class ConcatLayer(Layer):
    """Concatenate bottoms along ``axis`` (default 1).

    The coalesced space is the outer extent before the concat axis (the
    batch, for the default), so one iteration assembles one sample's
    concatenated block.
    """

    min_num_bottom = 1
    exact_num_top = 1

    write_footprint = FootprintDecl()

    def shape_changed(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        self.outer = self.geometry.forward_space
        self._bottom_inner = [b.count // self.outer for b in bottom]
        self._top_inner = top[0].count // self.outer

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        out = top[0].flat_data.reshape(self.outer, self._top_inner)[lo:hi]
        offset = 0
        for b, inner in zip(bottom, self._bottom_inner):
            src = b.flat_data.reshape(self.outer, inner)[lo:hi]
            out[:, offset : offset + inner] = src
            offset += inner

    def backward_chunk(
        self,
        top: Sequence[Blob],
        propagate_down: Sequence[bool],
        bottom: Sequence[Blob],
        lo: int,
        hi: int,
        param_grads: Sequence[np.ndarray],
    ) -> None:
        dtop = top[0].flat_diff.reshape(self.outer, self._top_inner)[lo:hi]
        offset = 0
        for b, inner, prop in zip(bottom, self._bottom_inner, propagate_down):
            if prop:
                dst = b.flat_diff.reshape(self.outer, inner)[lo:hi]
                np.copyto(dst, dtop[:, offset : offset + inner])
            offset += inner


@register_shape_rule("Concat")
def _concat_shape_rule(spec, bottoms) -> RuleResult:
    axis = canonical_axis(spec, bottoms[0], int(spec.param("axis", 1)))
    ref = bottoms[0].shape
    concat_total = 0
    for b in bottoms:
        if b.num_axes != len(ref):
            raise ShapeError(
                f"layer {spec.name!r}: rank mismatch {b.shape} vs {ref}"
            )
        for ax, (da, db) in enumerate(zip(b.shape, ref)):
            if ax != axis and da != db:
                raise ShapeError(
                    f"layer {spec.name!r}: non-concat axis {ax} differs "
                    f"({da} vs {db})"
                )
        concat_total += b.shape[axis]
    out_shape = list(ref)
    out_shape[axis] = concat_total
    outer = 1
    for dim in ref[:axis]:
        outer *= dim
    return RuleResult(
        tops=[BlobInfo(tuple(out_shape), bottoms[0].dtype)],
        forward_space=outer,
    )
