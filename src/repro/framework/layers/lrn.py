"""Local response normalization (LRN), across channels (Caffe default).

``scale_i = k + (alpha / n) * sum_{j in window(i)} x_j^2`` over a window
of ``local_size`` channels centered at ``i``, and
``y_i = x_i * scale_i^{-beta}``.

The coalesced iteration space is ``S``: one iteration normalizes one
sample.  The paper's CIFAR-10 network uses two of these (norm1, norm2);
their per-layer scalability differs from the neighbouring conv/pool layers
because the normalization reads a window of channels, changing the
data-thread affinity (Section 4.2.1).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.compiler.scratch import scratch_buffer
from repro.framework.blob import DTYPE, Blob
from repro.framework.layer import (
    FootprintDecl,
    Layer,
    PerfDecl,
    register_layer,
)
from repro.framework.shape_inference import (
    BlobInfo,
    RuleResult,
    ShapeError,
    register_shape_rule,
    require_axes,
)


@register_layer("LRN")
class LRNLayer(Layer):
    """Across-channel local response normalization.

    Parameters (``lrn_param``): ``local_size`` (odd, default 5), ``alpha``
    (default 1.0), ``beta`` (default 0.75), ``k`` (default 1.0),
    ``norm_region`` (only ``ACROSS_CHANNELS`` is supported).
    """

    exact_num_bottom = 1
    exact_num_top = 1

    write_footprint = FootprintDecl(scratch=("_scale", "_scale_pow"))

    perf_decl = PerfDecl(
        float64=("forward_chunk", "backward_chunk", "_window_sum"),
        note=(
            "window sums accumulate in float64 with a fixed prefix-sum "
            "order so the normalization scale is bitwise identical for "
            "any chunking; results are cast back to DTYPE at the blob "
            "boundary"
        ),
    )

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        spec = self.spec
        self.local_size = int(spec.param("local_size", 5))
        if self.local_size % 2 == 0:
            raise ValueError(
                f"layer {self.name!r}: local_size must be odd, got "
                f"{self.local_size}"
            )
        self.alpha = float(spec.param("alpha", 1.0))
        self.beta = float(spec.param("beta", 0.75))
        self.k = float(spec.param("k", 1.0))
        region = str(spec.param("norm_region", "ACROSS_CHANNELS")).upper()
        if region != "ACROSS_CHANNELS":
            raise ValueError(
                f"layer {self.name!r}: only ACROSS_CHANNELS LRN is supported"
            )

    def reshape(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        if bottom[0].num_axes != 4:
            raise ValueError(
                f"layer {self.name!r}: LRN needs a 4-d bottom, got shape "
                f"{bottom[0].shape}"
            )
        top[0].reshape_like(bottom[0])
        self._scale = np.empty(bottom[0].shape, dtype=DTYPE)
        # scale ** -beta, kept from forward for backward's first term.
        self._scale_pow = np.empty(bottom[0].shape, dtype=DTYPE)

    def forward_space(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> int:
        return bottom[0].shape[0]

    def _window_sum(self, per_channel: np.ndarray) -> np.ndarray:
        """Sliding-window sum over the channel axis (axis 1) with zero
        padding, window ``local_size`` centered at each channel.

        Returns a float64 array from the per-thread scratch pool — valid
        until this thread's next ``_window_sum`` call with the same
        chunk geometry; callers consume it before then.
        """
        half = self.local_size // 2
        c = per_channel.shape[1]
        shape = list(per_channel.shape)
        shape[1] = c + 2 * half
        padded = scratch_buffer("lrn.padded", shape, dtype=np.float64)
        padded.fill(0.0)
        padded[:, half : half + c] = per_channel
        # Prefix sums with a leading zero: ext[:, j] = sum(padded[:, :j]),
        # so the window [i, i + local_size) is ext[i + local_size] - ext[i].
        shape[1] = c + 2 * half + 1
        ext = scratch_buffer("lrn.ext", shape, dtype=np.float64)
        ext[:, :1] = 0.0
        np.cumsum(padded, axis=1, dtype=np.float64, out=ext[:, 1:])
        shape[1] = c
        win = scratch_buffer("lrn.win", shape, dtype=np.float64)
        np.subtract(ext[:, self.local_size : self.local_size + c],
                    ext[:, :c], out=win)
        return win

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        x = bottom[0].data[lo:hi]
        y = top[0].data[lo:hi]
        sq = x.astype(np.float64) ** 2
        window = self._window_sum(sq)
        scale = self.k + (self.alpha / self.local_size) * window
        self._scale[lo:hi] = scale.astype(DTYPE)
        scale_pow = self._scale_pow[lo:hi]
        np.power(self._scale[lo:hi], -self.beta, out=scale_pow)
        np.multiply(x, scale_pow, out=y)

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
        x = bottom[0].data[lo:hi]
        y = top[0].data[lo:hi]
        dy = top[0].diff[lo:hi]
        dx = bottom[0].diff[lo:hi]
        scale = self._scale[lo:hi]

        # dx_i = dy_i * scale_i^-beta
        #        - (2 alpha beta / n) * x_i * sum_{j: i in win(j)} dy_j y_j / scale_j
        ratio = (dy * y / scale).astype(np.float64)
        window = self._window_sum(ratio)
        coeff = 2.0 * self.alpha * self.beta / self.local_size
        np.copyto(
            dx,
            (dy * self._scale_pow[lo:hi]
             - coeff * x * window.astype(DTYPE)),
        )


@register_shape_rule("LRN")
def _lrn_shape_rule(spec, bottoms) -> RuleResult:
    require_axes(spec, bottoms[0], 4)
    local_size = int(spec.param("local_size", 5))
    if local_size % 2 == 0:
        raise ShapeError(
            f"layer {spec.name!r}: local_size must be odd, got {local_size}"
        )
    region = str(spec.param("norm_region", "ACROSS_CHANNELS")).upper()
    if region != "ACROSS_CHANNELS":
        raise ShapeError(
            f"layer {spec.name!r}: only ACROSS_CHANNELS LRN is supported"
        )
    return RuleResult(
        tops=[BlobInfo(bottoms[0].shape, bottoms[0].dtype)],
        forward_space=bottoms[0].shape[0],
    )
