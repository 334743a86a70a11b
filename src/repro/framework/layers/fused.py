"""Fused layers emitted by the graph compiler's fusion pass.

Each class here executes an elementwise *chain* — a primary layer plus
the Bias/Scale/ReLU layers :func:`repro.compiler.fuse.fuse_spec`
absorbed into it — in a single traversal of the coalesced iteration
space, forward and backward.  The chunk protocol is unchanged: the
epilogue of iteration range ``[lo, hi)`` touches exactly the top rows
that range owns, so every analyzer (footprint, netcheck, detcheck,
plancheck) sees a fused layer as just another layer.

Bitwise parity with the unfused chain is a design invariant, not an
accident:

* the ReLU epilogue applies the identical ``np.maximum(y, 0.0)`` the
  standalone layer applies, and the backward mask ``y > 0`` equals the
  standalone ``x > 0`` for slope-0 ReLU whether or not the original was
  in-place;
* absorbed Bias/Scale middles are executed by *real*
  :class:`~repro.framework.layers.scale.BiasLayer` /
  :class:`~repro.framework.layers.scale.ScaleLayer` instances built
  from the absorbed spec, so their arithmetic (including the float64
  channel reductions) is byte-for-byte the standalone code;
* a Scale middle's coefficient gradient needs the *pre-scale* primary
  output, which fusion overwrites — so the forward pass stashes it in
  the declared ``_prescale`` scratch (chunk-disjoint rows) and the
  backward channel loop reads the stash where the standalone layer
  would read its bottom blob.

Backward loop order is part of the contract: the ReLU mask runs before
any loop that reads the top diff, and a Scale middle's channel
reduction runs before the in-place rescale that destroys the
un-rescaled diff.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence

import numpy as np

from repro.framework.blob import DTYPE, Blob
from repro.framework.layer import (
    LayerContract,
    LoopSpec,
    REDUCTION,
    create_layer,
    register_layer,
)
from repro.framework.layers.conv import ConvolutionLayer, _conv_shape_rule
from repro.framework.layers.eltwise import EltwiseLayer, _eltwise_shape_rule
from repro.framework.layers.inner_product import (
    InnerProductLayer,
    _ip_shape_rule,
)
from repro.framework.layers.scale import BiasLayer, ScaleLayer, _scale_shape_rule
from repro.framework.net_spec import LayerSpec
from repro.framework.shape_inference import (
    RuleResult,
    infer_layer,
    register_shape_rule,
)


class _FlatSource:
    """Adapter lending a plain ndarray the one Blob attribute the scale
    channel-gradient helper reads (``flat_data``)."""

    __slots__ = ("flat_data",)

    def __init__(self, array: np.ndarray) -> None:
        self.flat_data = array.reshape(-1)


def _middle_layer_spec(raw: dict, top_name: str) -> LayerSpec:
    """Reconstruct the absorbed middle layer's spec, bound in-place on
    the fused top so it reads and writes the primary's output blob."""
    return LayerSpec(
        name=raw["name"],
        type=raw["type"],
        bottoms=[top_name],
        tops=[top_name],
        params=copy.deepcopy(raw.get("params") or {}),
    )


class _MiddleHost:
    """Mixin managing a lazily built Bias/Scale middle layer.

    The middle is constructed on the first :meth:`shape_changed` (the
    primary's top has its final shape by then) and its parameter blobs are
    appended to ``self.blobs`` — the enclosing ``Net`` collects
    learnable parameters after every layer's setup, so the middle's
    gamma/beta train exactly like the standalone layer's.
    """

    _middle = None

    def _middle_raw(self) -> Optional[dict]:
        return self.spec.param("fused_middle")

    def _ensure_middle(self, top: Sequence[Blob]) -> None:
        raw = self._middle_raw()
        if raw is None:
            return
        if self._middle is None:
            mid = create_layer(_middle_layer_spec(raw, self.spec.tops[0]))
            mid.setup(list(top), list(top))
            self._middle = mid
            self.blobs = list(self.blobs) + list(mid.blobs)
        else:
            self._middle.reshape(top, top)


@register_layer("FusedConv")
class FusedConvolutionLayer(_MiddleHost, ConvolutionLayer):
    """Convolution with an absorbed Bias/Scale middle and/or ReLU tail.

    Spec parameters on top of ``Convolution``'s: ``fused`` (names of
    the absorbed layers, for reporting), ``fused_relu`` (bool), and
    ``fused_middle`` (``{"name", "type", "params"}`` or absent).
    """

    # Conv's seeds and perf allowances vouch for conv's own methods and
    # stay there; this contract covers the epilogue methods below.
    contract = LayerContract(
        backward=REDUCTION, reduction_params=(0, 1), scratch=("_prescale",)
    )

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        super().layer_setup(bottom, top)
        self._num_primary_blobs = len(self.blobs)
        self._fused_relu = bool(self.spec.param("fused_relu", False))
        self._middle = None
        self._prescale = None

    def shape_changed(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        super().shape_changed(bottom, top)
        self._ensure_middle(top)
        if isinstance(self._middle, ScaleLayer):
            n = top[0].shape[0]
            self._prescale = np.zeros((n, top[0].count // n), dtype=DTYPE)

    def footprint(self) -> LayerContract:
        # self.blobs also counts the middle's parameters; only the
        # primary's weight/bias go through the privatized reduction.
        return self.contract.clipped(
            getattr(self, "_num_primary_blobs", len(self.blobs)))

    # -- forward -------------------------------------------------------
    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        super().forward_chunk(bottom, top, lo, hi)
        if self._middle is not None:
            if self._prescale is not None:
                n = top[0].shape[0]
                self._prescale[lo:hi] = top[0].flat_data.reshape(n, -1)[lo:hi]
            self._middle.forward_chunk(top, top, lo, hi)
        if self._fused_relu:
            self._relu_rows(top, lo, hi)

    def _relu_rows(self, top: Sequence[Blob], lo: int, hi: int) -> None:
        n = top[0].shape[0]
        y = top[0].flat_data.reshape(n, -1)[lo:hi]
        np.maximum(y, 0.0, out=y)

    # -- backward ------------------------------------------------------
    def _relu_mask_chunk(self, top: Sequence[Blob], lo: int, hi: int) -> None:
        dy = top[0].flat_diff[lo:hi]
        y = top[0].flat_data[lo:hi]
        np.multiply(dy, y > 0, out=dy)

    def _middle_bias_channels(self, top, lo: int, hi: int) -> None:
        self._middle._backward_param_channels(top, lo, hi)

    def _middle_scale_channels(self, top, lo: int, hi: int) -> None:
        # The standalone Scale layer reads its bottom (the pre-scale
        # conv output) here; fusion overwrote it, so read the stash.
        source = _FlatSource(self._prescale)
        self._middle._backward_param_channels(top, [source], lo, hi)

    def _middle_rescale_rows(self, top, lo: int, hi: int) -> None:
        # dy *= gamma, in place (the standalone layer writes the same
        # product into the conv top's separate diff buffer).
        self._middle._backward_data_chunk(top, top, lo, hi)

    def backward_loops(self, top, propagate_down, bottom) -> List[LoopSpec]:
        loops: List[LoopSpec] = []
        if self._fused_relu:
            loops.append(LoopSpec(
                space=top[0].count,
                body=lambda lo, hi, grads: self._relu_mask_chunk(top, lo, hi),
            ))
        mid = self._middle
        if isinstance(mid, ScaleLayer):
            # Channel reduction first: the rescale below destroys the
            # un-rescaled diff the dgamma/dbeta sums need.
            loops.append(LoopSpec(
                space=mid.channels,
                body=lambda lo, hi, grads: self._middle_scale_channels(
                    top, lo, hi),
            ))
            loops.append(LoopSpec(
                space=mid.outer,
                body=lambda lo, hi, grads: self._middle_rescale_rows(
                    top, lo, hi),
            ))
        elif mid is not None:
            loops.append(LoopSpec(
                space=mid.channels,
                body=lambda lo, hi, grads: self._middle_bias_channels(
                    top, lo, hi),
            ))
        loops.extend(self._conv_loops(top, propagate_down, bottom))
        return loops


@register_layer("FusedInnerProductReLU")
class FusedInnerProductReLU(InnerProductLayer):
    """InnerProduct with the downstream ReLU absorbed into its pass."""

    contract = LayerContract()

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        super().forward_chunk(bottom, top, lo, hi)
        y = top[0].flat_data.reshape(self.outer, self.num_output)[lo:hi]
        np.maximum(y, 0.0, out=y)

    def _relu_mask_chunk(self, top: Sequence[Blob], lo: int, hi: int) -> None:
        dy = top[0].flat_diff[lo:hi]
        y = top[0].flat_data[lo:hi]
        np.multiply(dy, y > 0, out=dy)

    def backward_loops(self, top, propagate_down, bottom) -> List[LoopSpec]:
        # Mask first: the weight-row loop reads every sample's dy.
        loops: List[LoopSpec] = [LoopSpec(
            space=top[0].count,
            body=lambda lo, hi, grads: self._relu_mask_chunk(top, lo, hi),
        )]
        loops.extend(super().backward_loops(top, propagate_down, bottom))
        return loops


@register_layer("FusedEltwiseReLU")
class FusedEltwiseReLU(EltwiseLayer):
    """Eltwise SUM/PROD/MAX with the downstream ReLU absorbed.

    Safe for every operation: the MAX argmax is taken pre-ReLU exactly
    as the standalone pair computes it, and the backward pass reads
    only the bottoms' data and the argmax scratch — never the top data
    the ReLU overwrote.
    """

    contract = LayerContract(scratch=("_argmax",))

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        super().forward_chunk(bottom, top, lo, hi)
        y = top[0].flat_data[lo:hi]
        np.maximum(y, 0.0, out=y)

    def _relu_mask_chunk(self, top: Sequence[Blob], lo: int, hi: int) -> None:
        dy = top[0].flat_diff[lo:hi]
        y = top[0].flat_data[lo:hi]
        np.multiply(dy, y > 0, out=dy)

    def backward_loops(self, top, propagate_down, bottom) -> List[LoopSpec]:
        loops: List[LoopSpec] = [LoopSpec(
            space=top[0].count,
            body=lambda lo, hi, grads: self._relu_mask_chunk(top, lo, hi),
        )]
        loops.extend(super().backward_loops(top, propagate_down, bottom))
        return loops


@register_layer("FusedScaleBias")
class FusedScaleBias(_MiddleHost, ScaleLayer):
    """Scale with the downstream Bias layer absorbed into its pass."""

    contract = LayerContract()

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        super().layer_setup(bottom, top)
        self._num_primary_blobs = len(self.blobs)
        self._middle = None

    def shape_changed(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        super().shape_changed(bottom, top)
        self._ensure_middle(top)

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        super().forward_chunk(bottom, top, lo, hi)
        self._middle.forward_chunk(top, top, lo, hi)

    def _middle_bias_channels(self, top, lo: int, hi: int) -> None:
        self._middle._backward_param_channels(top, lo, hi)

    def backward_loops(self, top, propagate_down, bottom) -> List[LoopSpec]:
        # The absorbed bias's channel sums read the same top diff the
        # scale loops read (and never write), so order is free; keep
        # the unfused net's bias-then-scale order regardless.
        loops: List[LoopSpec] = [LoopSpec(
            space=self._middle.channels,
            body=lambda lo, hi, grads: self._middle_bias_channels(
                top, lo, hi),
        )]
        loops.extend(super().backward_loops(top, propagate_down, bottom))
        return loops


# ---------------------------------------------------------------------------
# shape-inference rules: delegate to the primaries, append middle params
# ---------------------------------------------------------------------------
def _middle_param_shapes(spec, base: RuleResult) -> list:
    raw = spec.param("fused_middle")
    if not raw:
        return []
    mid_spec = _middle_layer_spec(raw, spec.tops[0] if spec.tops else "x")
    return infer_layer(mid_spec, [base.tops[0]]).param_shapes


@register_shape_rule("FusedConv")
def _fused_conv_shape_rule(spec, bottoms) -> RuleResult:
    base = _conv_shape_rule(spec, bottoms)
    base.param_shapes = list(base.param_shapes) + _middle_param_shapes(
        spec, base)
    return base


@register_shape_rule("FusedInnerProductReLU")
def _fused_ip_shape_rule(spec, bottoms) -> RuleResult:
    return _ip_shape_rule(spec, bottoms)


@register_shape_rule("FusedEltwiseReLU")
def _fused_eltwise_shape_rule(spec, bottoms) -> RuleResult:
    return _eltwise_shape_rule(spec, bottoms)


@register_shape_rule("FusedScaleBias")
def _fused_scale_bias_shape_rule(spec, bottoms) -> RuleResult:
    base = _scale_shape_rule(spec, bottoms)
    base.param_shapes = list(base.param_shapes) + _middle_param_shapes(
        spec, base)
    return base
