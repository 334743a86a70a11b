"""Scale and Bias layers: learned per-channel affine transforms.

``Scale``: ``y[n,c,...] = gamma[c] * x[n,c,...] (+ beta[c])``;
``Bias``: the additive half alone.  These are the building blocks Caffe
pairs with BatchNorm.

Their backward pass is a second demonstration of reduction-free
coefficient gradients (besides InnerProduct): ``dgamma[c]`` sums over
every sample and spatial position of channel ``c``, so the coefficient
loop parallelizes over *channels* — each channel's sum is computed by
one thread in a fixed order, bitwise independent of the chunking.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.framework.blob import DTYPE, Blob
from repro.framework.fillers import fill, stable_seed
from repro.framework.layer import (
    FootprintDecl,
    Layer,
    LoopSpec,
    PerfDecl,
    RNGDecl,
    register_layer,
)
from repro.framework.layers.conv import _filler_spec
from repro.framework.shape_inference import (
    BlobInfo,
    RuleResult,
    canonical_axis,
    register_shape_rule,
)


class _ChannelAffineBase(Layer):
    """Shared machinery: the ``(outer, channels, inner)`` view."""

    exact_num_bottom = 1
    exact_num_top = 1

    def shape_changed(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        (self.channels,) = self.geometry.param_shapes[0]
        self.outer = self.geometry.forward_space
        self.inner = bottom[0].count // (self.outer * self.channels)

    def _view(self, flat: np.ndarray) -> np.ndarray:
        return flat.reshape(self.outer, self.channels, self.inner)


@register_layer("Scale")
class ScaleLayer(_ChannelAffineBase):
    """Per-channel scaling with optional bias.

    Parameters (``scale_param``): ``axis`` (default 1), ``bias_term``
    (default false), ``filler`` (default constant 1), ``bias_filler``.
    """

    # backward_loops() splits into reduction-free loops over sample rows
    # and channels; no privatized reduction is executed.
    write_footprint = FootprintDecl()

    rng_provenance = RNGDecl(seed_params=("filler_seed",),
                             fallback="stable_digest")

    perf_decl = PerfDecl(
        float64=("_backward_param_channels",),
        copies=("_backward_param_channels",),
        loops=("_backward_param_channels",),
        note=(
            "coefficient gradients accumulate one channel per iteration "
            "in float64 dot/sum with a fixed order (the bitwise reduction "
            "contract); the strided per-channel views are copied "
            "contiguous for the dot"
        ),
    )

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        self.bias_term = bool(self.spec.param("bias_term", False))
        rng = np.random.default_rng(
            int(self.spec.param("filler_seed", 0)) or stable_seed(self.name)
        )
        gamma = Blob(self.geometry.param_shapes[0], name=f"{self.name}.scale")
        filler = self.spec.param("filler")
        if filler is None:
            gamma.flat_data.fill(1.0)
        else:
            fill(gamma, _filler_spec(filler), rng)
        self.blobs = [gamma]
        if self.bias_term:
            beta = Blob(self.geometry.param_shapes[1],
                        name=f"{self.name}.bias")
            fill(beta, _filler_spec(self.spec.param("bias_filler")), rng)
            self.blobs.append(beta)

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        x = self._view(bottom[0].flat_data)[lo:hi]
        y = self._view(top[0].flat_data)[lo:hi]
        gamma = self.blobs[0].data[None, :, None]
        np.multiply(x, gamma, out=y)
        if self.bias_term:
            y += self.blobs[1].data[None, :, None]

    def _backward_data_chunk(self, top, bottom, lo: int, hi: int) -> None:
        dy = self._view(top[0].flat_diff)[lo:hi]
        dx = self._view(bottom[0].flat_diff)[lo:hi]
        np.multiply(dy, self.blobs[0].data[None, :, None], out=dx)

    def _backward_param_channels(self, top, bottom, lo: int, hi: int) -> None:
        """Coefficient gradients for channels [lo, hi): full reductions
        over (outer, inner) per channel, chunking-invariant."""
        x = self._view(bottom[0].flat_data)
        dy = self._view(top[0].flat_diff)
        dgamma = self.blobs[0].flat_diff
        dbeta = self.blobs[1].flat_diff if self.bias_term else None
        for c in range(lo, hi):
            dgamma[c] += float(
                np.dot(dy[:, c].ravel().astype(np.float64),
                       x[:, c].ravel().astype(np.float64))
            )
            if dbeta is not None:
                dbeta[c] += dy[:, c].sum(dtype=np.float64)

    def backward_chunk(self, top, propagate_down, bottom, lo, hi,
                       param_grads) -> None:
        # Generic per-sample path (used when called directly).
        x = self._view(bottom[0].flat_data)[lo:hi]
        dy = self._view(top[0].flat_diff)[lo:hi]
        param_grads[0] += (dy * x).sum(axis=(0, 2))
        if self.bias_term:
            param_grads[1] += dy.sum(axis=(0, 2))
        if propagate_down[0]:
            self._backward_data_chunk(top, bottom, lo, hi)

    def backward_loops(self, top, propagate_down, bottom):
        loops = []
        if propagate_down[0]:
            loops.append(LoopSpec(
                space=self.outer,
                body=lambda lo, hi, grads: self._backward_data_chunk(
                    top, bottom, lo, hi),
            ))
        loops.append(LoopSpec(
            space=self.channels,
            body=lambda lo, hi, grads: self._backward_param_channels(
                top, bottom, lo, hi),
        ))
        return loops


@register_layer("Bias")
class BiasLayer(_ChannelAffineBase):
    """Per-channel additive bias (the Scale layer's additive half)."""

    write_footprint = FootprintDecl()

    rng_provenance = RNGDecl(seed_params=("filler_seed",),
                             fallback="stable_digest")

    perf_decl = PerfDecl(
        float64=("_backward_param_channels",),
        loops=("_backward_param_channels",),
        note=(
            "bias gradients accumulate one channel per iteration in a "
            "fixed-order float64 sum (the bitwise reduction contract)"
        ),
    )

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        rng = np.random.default_rng(
            int(self.spec.param("filler_seed", 0)) or stable_seed(self.name)
        )
        beta = Blob(self.geometry.param_shapes[0], name=f"{self.name}.bias")
        fill(beta, _filler_spec(self.spec.param("filler")), rng)
        self.blobs = [beta]

    def forward_chunk(self, bottom, top, lo, hi) -> None:
        x = self._view(bottom[0].flat_data)[lo:hi]
        y = self._view(top[0].flat_data)[lo:hi]
        np.add(x, self.blobs[0].data[None, :, None], out=y)

    def _backward_param_channels(self, top, lo: int, hi: int) -> None:
        dy = self._view(top[0].flat_diff)
        dbeta = self.blobs[0].flat_diff
        for c in range(lo, hi):
            dbeta[c] += dy[:, c].sum(dtype=np.float64)

    def _backward_data_chunk(self, top, bottom, lo: int, hi: int) -> None:
        if top[0] is not bottom[0]:
            np.copyto(self._view(bottom[0].flat_diff)[lo:hi],
                      self._view(top[0].flat_diff)[lo:hi])

    def backward_chunk(self, top, propagate_down, bottom, lo, hi,
                       param_grads) -> None:
        dy = self._view(top[0].flat_diff)[lo:hi]
        param_grads[0] += dy.sum(axis=(0, 2))
        if propagate_down[0]:
            self._backward_data_chunk(top, bottom, lo, hi)

    def backward_loops(self, top, propagate_down, bottom):
        loops = []
        if propagate_down[0]:
            loops.append(LoopSpec(
                space=self.outer,
                body=lambda lo, hi, grads: self._backward_data_chunk(
                    top, bottom, lo, hi),
            ))
        loops.append(LoopSpec(
            space=self.channels,
            body=lambda lo, hi, grads: self._backward_param_channels(
                top, lo, hi),
        ))
        return loops


def _affine_rule(spec, bottoms, with_scale: bool) -> RuleResult:
    axis = canonical_axis(spec, bottoms[0], int(spec.param("axis", 1)))
    channels = bottoms[0].shape[axis]
    outer = 1
    for dim in bottoms[0].shape[:axis]:
        outer *= dim
    if with_scale:
        param_shapes = [(channels,)]
        if bool(spec.param("bias_term", False)):
            param_shapes.append((channels,))
    else:
        param_shapes = [(channels,)]
    return RuleResult(
        tops=[BlobInfo(bottoms[0].shape, bottoms[0].dtype)],
        forward_space=outer,
        param_shapes=param_shapes,
    )


@register_shape_rule("Scale", inplace_ok=True)
def _scale_shape_rule(spec, bottoms) -> RuleResult:
    return _affine_rule(spec, bottoms, with_scale=True)


@register_shape_rule("Bias", inplace_ok=True)
def _bias_shape_rule(spec, bottoms) -> RuleResult:
    return _affine_rule(spec, bottoms, with_scale=False)
