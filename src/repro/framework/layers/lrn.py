"""Local response normalization (LRN), across channels (Caffe default).

``scale_i = k + (alpha / n) * sum_{j in window(i)} x_j^2`` over a window
of ``local_size`` channels centered at ``i``, and
``y_i = x_i * scale_i^{-beta}``.

The coalesced iteration space is ``S``: one iteration normalizes one
sample.  The paper's CIFAR-10 network uses two of these (norm1, norm2);
their per-layer scalability differs from the neighbouring conv/pool layers
because the normalization reads a window of channels, changing the
data-thread affinity (Section 4.2.1).

Everything is float32 (``DTYPE``), like the blobs.  A window sum is the
centre channel plus its neighbours at distance 1, 2, ... added in place,
left before right — one fixed add order per element whatever the chunk,
since chunks cut the sample axis and the window runs along channels.
``_scale`` is built in place in its chunk rows and the one work array
(``lrn.work``, shared by both passes) comes from the per-thread scratch
pool, so a chunk allocates nothing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.compiler.scratch import scratch_buffer
from repro.framework.blob import DTYPE, Blob
from repro.framework.layer import (
    FootprintDecl,
    Layer,
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

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        spec = self.spec
        self.local_size = int(spec.param("local_size", 5))
        self.alpha = float(spec.param("alpha", 1.0))
        self.beta = float(spec.param("beta", 0.75))
        self.k = float(spec.param("k", 1.0))

    def shape_changed(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        # Both are written whole, chunk rows by chunk rows, every forward.
        self._scale = np.empty(bottom[0].shape, dtype=DTYPE)
        # scale ** -beta, kept from forward for backward's first term.
        self._scale_pow = np.empty(bottom[0].shape, dtype=DTYPE)

    def _window_sum(self, src: np.ndarray, out: np.ndarray) -> None:
        """Sliding-window sum of ``src`` over the channel axis (axis 1)
        into ``out``: window ``local_size`` centered at each channel,
        zero beyond the ends."""
        np.copyto(out, src)
        reach = min(self.local_size // 2, src.shape[1] - 1)
        for shift in range(1, reach + 1):
            out[:, shift:] += src[:, :-shift]
            out[:, :-shift] += src[:, shift:]

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        x = bottom[0].data[lo:hi]
        scale = self._scale[lo:hi]
        scale_pow = self._scale_pow[lo:hi]
        squares = scratch_buffer("lrn.work", x.shape, DTYPE)
        np.multiply(x, x, out=squares)
        self._window_sum(squares, scale)
        scale *= self.alpha / self.local_size
        scale += self.k
        np.power(scale, -self.beta, out=scale_pow)
        np.multiply(x, scale_pow, out=top[0].data[lo:hi])

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
        dy = top[0].diff[lo:hi]
        dx = bottom[0].diff[lo:hi]

        # dx_i = dy_i * scale_i^-beta
        #        - (2 alpha beta / n) * x_i * sum_{j: i in win(j)} dy_j y_j / scale_j
        work = scratch_buffer("lrn.work", x.shape, DTYPE)
        np.multiply(dy, top[0].data[lo:hi], out=work)
        work /= self._scale[lo:hi]
        self._window_sum(work, dx)
        dx *= x
        dx *= -2.0 * self.alpha * self.beta / self.local_size
        np.multiply(dy, self._scale_pow[lo:hi], out=work)
        dx += work


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
