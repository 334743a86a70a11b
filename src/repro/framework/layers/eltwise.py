"""Eltwise layer: element-wise SUM / PROD / MAX over several bottoms."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.framework.blob import Blob
from repro.framework.layer import Layer, LayerContract, register_layer
from repro.framework.shape_inference import (
    BlobInfo,
    RuleResult,
    ShapeError,
    register_shape_rule,
)


@register_layer("Eltwise")
class EltwiseLayer(Layer):
    """Element-wise combination of equally shaped bottoms.

    Parameters (``eltwise_param``): ``operation`` (``SUM`` default,
    ``PROD`` or ``MAX``) and, for SUM, per-bottom ``coeff`` values
    (default 1.0 each).
    """

    min_num_bottom = 2
    exact_num_top = 1

    contract = LayerContract(
        scratch=("_argmax",),
        allocs=("forward_chunk",),
        note=(
            "MAX mode stacks a variable-length bottom list before the "
            "argmax; np.stack over N operands has no fixed-geometry "
            "pooled equivalent"
        ),
    )

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        self.operation = str(self.spec.param("operation", "SUM")).upper()
        self.coeffs = _coeffs(self.spec, len(bottom))

    def shape_changed(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        if self.operation == "MAX":
            # Winner per element; every forward chunk overwrites its range.
            self._argmax = np.zeros(bottom[0].count, dtype=np.int32)

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        y = top[0].flat_data[lo:hi]
        if self.operation == "SUM":
            np.multiply(bottom[0].flat_data[lo:hi], self.coeffs[0], out=y)
            for b, c in zip(bottom[1:], self.coeffs[1:]):
                y += c * b.flat_data[lo:hi]
        elif self.operation == "PROD":
            np.copyto(y, bottom[0].flat_data[lo:hi])
            for b in bottom[1:]:
                y *= b.flat_data[lo:hi]
        else:  # MAX
            stacked = np.stack([b.flat_data[lo:hi] for b in bottom])
            arg = stacked.argmax(axis=0)
            self._argmax[lo:hi] = arg
            np.copyto(y, np.take_along_axis(stacked, arg[None], axis=0)[0])

    def backward_chunk(
        self,
        top: Sequence[Blob],
        propagate_down: Sequence[bool],
        bottom: Sequence[Blob],
        lo: int,
        hi: int,
        param_grads: Sequence[np.ndarray],
    ) -> None:
        dy = top[0].flat_diff[lo:hi]
        for i, (b, prop) in enumerate(zip(bottom, propagate_down)):
            if not prop:
                continue
            dx = b.flat_diff[lo:hi]
            if self.operation == "SUM":
                np.multiply(dy, self.coeffs[i], out=dx)
            elif self.operation == "PROD":
                np.copyto(dx, dy)
                for j, other in enumerate(bottom):
                    if j != i:
                        dx *= other.flat_data[lo:hi]
            else:  # MAX: route to the winner only
                np.multiply(dy, self._argmax[lo:hi] == i, out=dx)


def _coeffs(spec, num_bottoms: int) -> list:
    """The SUM coefficients, one per bottom (default 1.0 each)."""
    coeff = spec.param("coeff")
    if coeff is None:
        return [1.0] * num_bottoms
    coeffs = coeff if isinstance(coeff, list) else [coeff]
    if len(coeffs) != num_bottoms:
        raise ShapeError(
            f"layer {spec.name!r}: {len(coeffs)} coeffs for "
            f"{num_bottoms} bottoms"
        )
    if str(spec.param("operation", "SUM")).upper() != "SUM":
        raise ShapeError(f"layer {spec.name!r}: coeff only applies to SUM")
    return [float(c) for c in coeffs]


@register_shape_rule("Eltwise")
def _eltwise_shape_rule(spec, bottoms) -> RuleResult:
    op = str(spec.param("operation", "SUM")).upper()
    if op not in ("SUM", "PROD", "MAX"):
        raise ShapeError(f"layer {spec.name!r}: unknown operation {op!r}")
    _coeffs(spec, len(bottoms))
    for b in bottoms[1:]:
        if b.shape != bottoms[0].shape:
            raise ShapeError(
                f"layer {spec.name!r}: bottoms disagree in shape "
                f"({b.shape} vs {bottoms[0].shape})"
            )
    return RuleResult(
        tops=[BlobInfo(bottoms[0].shape, bottoms[0].dtype)],
        forward_space=bottoms[0].count,
    )
