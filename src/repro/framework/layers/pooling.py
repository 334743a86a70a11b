"""Pooling layer (MAX and AVE), the paper's dimensionality-reduction layer.

The coalesced iteration space is ``S * C``: one iteration reduces one
``(H, W)`` plane of one sample — the Figure 2 scheme where a group of
input segments produces one output segment.  Because the blob layout is
``(N, C, H, W)`` C-contiguous, the planes of a chunk ``[lo, hi)`` are a
contiguous slab of memory, and the whole chunk is processed with one
strided-window computation (the per-segment BLAS call of Algorithm 2,
batched over the chunk).

Semantics follow Caffe exactly:

* *ceil* output sizing, so the last window may overhang the padded image;
* MAX records each window's argmax (first occurrence, row-major) for the
  backward routing;
* AVE divides by the window area clipped to the *padded* image bounds
  (``height + pad``), which reduces to the true clipped area when
  ``pad == 0``.
"""

from __future__ import annotations

import math
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
from repro.framework.layers.conv import _pair
from repro.framework.shape_inference import (
    NOTE_SKIPPED_PIXELS,
    BlobInfo,
    RuleResult,
    ShapeError,
    register_shape_rule,
    require_axes,
)


def pool_out_size(in_size: int, kernel: int, pad: int, stride: int) -> int:
    """Pooled output extent with Caffe's ceil semantics."""
    out = int(math.ceil((in_size + 2 * pad - kernel) / stride)) + 1
    # The last window must start strictly inside the (padded) image;
    # kernel < stride geometries can otherwise produce an empty window.
    if (out - 1) * stride >= in_size + pad:
        out -= 1
    return out


@register_layer("Pooling")
class PoolingLayer(Layer):
    """Max / average pooling.

    Parameters (``pooling_param``): ``pool`` (``MAX`` default, or ``AVE``),
    ``kernel_size`` or ``kernel_h``/``kernel_w``, ``stride`` (default 1),
    ``pad`` (default 0).
    """

    exact_num_bottom = 1
    exact_num_top = 1

    write_footprint = FootprintDecl(scratch=("_max_idx",))

    perf_decl = PerfDecl(
        loops=("backward_chunk",),
        note=(
            "MAX backward scatter-adds one plane at a time "
            "(np.add.at per plane): overlapping windows can route to the "
            "same input cell, and per-plane processing keeps the "
            "accumulation order independent of chunking"
        ),
    )

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        spec = self.spec
        method = str(spec.param("pool", "MAX")).upper()
        if method not in ("MAX", "AVE"):
            raise ValueError(
                f"layer {self.name!r}: unsupported pool method {method!r}"
            )
        self.method = method
        self.kernel_h, self.kernel_w = _pair(spec, "kernel")
        self.stride_h, self.stride_w = _pair(spec, "stride", default=1)
        self.pad_h, self.pad_w = _pair(spec, "pad", default=0)
        if self.pad_h >= self.kernel_h or self.pad_w >= self.kernel_w:
            raise ValueError(
                f"layer {self.name!r}: pad must be smaller than the kernel"
            )

    def reshape(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        n, c, h, w = bottom[0].shape
        self.in_h, self.in_w = h, w
        self.out_h = pool_out_size(h, self.kernel_h, self.pad_h, self.stride_h)
        self.out_w = pool_out_size(w, self.kernel_w, self.pad_w, self.stride_w)
        top[0].reshape((n, c, self.out_h, self.out_w))
        # Padded scratch extents: large enough for every (possibly
        # overhanging) window.
        self.eff_h = max(h + 2 * self.pad_h,
                         (self.out_h - 1) * self.stride_h + self.kernel_h)
        self.eff_w = max(w + 2 * self.pad_w,
                         (self.out_w - 1) * self.stride_w + self.kernel_w)
        if self.method == "MAX":
            # Plane-local flat index (ih * in_w + iw) of each window max.
            self._max_idx = np.zeros(
                (n * c, self.out_h, self.out_w), dtype=np.int64
            )
            # Window-origin grids for the argmax -> plane-coordinate map,
            # built once here so forward_chunk never allocates them.
            self._ih_base = (np.arange(self.out_h)
                             * self.stride_h)[None, :, None]
            self._iw_base = (np.arange(self.out_w)
                             * self.stride_w)[None, None, :]
        else:
            self._ave_divisor = self._divisor_grid()

    def _divisor_grid(self) -> np.ndarray:
        """Caffe's AVE divisor: window area clipped to the padded image."""
        oh = np.arange(self.out_h)
        ow = np.arange(self.out_w)
        h0 = oh * self.stride_h - self.pad_h
        w0 = ow * self.stride_w - self.pad_w
        h1 = np.minimum(h0 + self.kernel_h, self.in_h + self.pad_h)
        w1 = np.minimum(w0 + self.kernel_w, self.in_w + self.pad_w)
        heights = (h1 - h0).astype(DTYPE)
        widths = (w1 - w0).astype(DTYPE)
        return heights[:, None] * widths[None, :]

    # ------------------------------------------------------------------
    # chunk protocol: one iteration == one (sample, channel) plane
    # ------------------------------------------------------------------
    def forward_space(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> int:
        n, c = bottom[0].shape[0], bottom[0].shape[1]
        return n * c

    def _windows(self, padded: np.ndarray) -> np.ndarray:
        """Strided view ``(P, out_h, out_w, kernel_h, kernel_w)``."""
        sp, sh, sw = padded.strides
        return np.lib.stride_tricks.as_strided(
            padded,
            shape=(padded.shape[0], self.out_h, self.out_w,
                   self.kernel_h, self.kernel_w),
            strides=(sp, sh * self.stride_h, sw * self.stride_w, sh, sw),
            writeable=False,
        )

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        planes = bottom[0].data.reshape(-1, self.in_h, self.in_w)[lo:hi]
        out = top[0].data.reshape(-1, self.out_h, self.out_w)[lo:hi]
        count = hi - lo
        if count <= 0:
            return
        padded = scratch_buffer(
            "pool.fwd", (count, self.eff_h, self.eff_w), DTYPE
        )
        padded.fill(-np.inf if self.method == "MAX" else 0.0)
        padded[:, self.pad_h : self.pad_h + self.in_h,
               self.pad_w : self.pad_w + self.in_w] = planes

        windows = self._windows(padded)
        if self.method == "MAX":
            flat = windows.reshape(count, self.out_h, self.out_w, -1)
            arg = flat.argmax(axis=3)
            np.copyto(
                out,
                np.take_along_axis(flat, arg[..., None], axis=3)[..., 0],
            )
            # Map window-local argmax back to plane-local coordinates.
            wh, ww = np.divmod(arg, self.kernel_w)
            ih = self._ih_base + wh - self.pad_h
            iw = self._iw_base + ww - self.pad_w
            self._max_idx[lo:hi] = ih * self.in_w + iw
        else:
            sums = windows.sum(axis=(3, 4), dtype=DTYPE)
            np.divide(sums, self._ave_divisor[None], out=out)

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
        dplanes = bottom[0].diff.reshape(-1, self.in_h, self.in_w)[lo:hi]
        dout = top[0].diff.reshape(-1, self.out_h, self.out_w)[lo:hi]
        count = hi - lo
        if count <= 0:
            return
        dplanes.fill(0.0)
        if self.method == "MAX":
            flat = dplanes.reshape(count, -1)
            idx = self._max_idx[lo:hi].reshape(count, -1)
            grads = dout.reshape(count, -1)
            # Scatter-add per plane; window maxima can coincide across
            # overlapping windows, so accumulation is required.
            for p in range(count):
                np.add.at(flat[p], idx[p], grads[p])
        else:
            contrib = dout / self._ave_divisor[None]
            padded = scratch_buffer(
                "pool.bwd", (count, self.eff_h, self.eff_w), DTYPE
            )
            padded.fill(0.0)
            for kh in range(self.kernel_h):
                h_stop = kh + self.stride_h * self.out_h
                for kw in range(self.kernel_w):
                    w_stop = kw + self.stride_w * self.out_w
                    padded[:, kh:h_stop:self.stride_h,
                           kw:w_stop:self.stride_w] += contrib
            dplanes += padded[:, self.pad_h : self.pad_h + self.in_h,
                              self.pad_w : self.pad_w + self.in_w]


@register_shape_rule("Pooling")
def _pool_shape_rule(spec, bottoms) -> RuleResult:
    """Symbolic mirror of :meth:`PoolingLayer.reshape` (ceil semantics)."""
    require_axes(spec, bottoms[0], 4)
    n, c, h, w = bottoms[0].shape
    method = str(spec.param("pool", "MAX")).upper()
    if method not in ("MAX", "AVE"):
        raise ShapeError(
            f"layer {spec.name!r}: unsupported pool method {method!r}"
        )
    kernel_h, kernel_w = _pair(spec, "kernel")
    stride_h, stride_w = _pair(spec, "stride", default=1)
    pad_h, pad_w = _pair(spec, "pad", default=0)
    if pad_h >= kernel_h or pad_w >= kernel_w:
        raise ShapeError(
            f"layer {spec.name!r}: pad ({pad_h}, {pad_w}) must be smaller "
            f"than the kernel ({kernel_h}, {kernel_w})"
        )
    out_h = pool_out_size(h, kernel_h, pad_h, stride_h)
    out_w = pool_out_size(w, kernel_w, pad_w, stride_w)
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"layer {spec.name!r}: window does not fit "
            f"(in=({h}, {w}) kernel=({kernel_h}, {kernel_w}))"
        )
    notes = []
    for label, kernel, stride in (
        ("height", kernel_h, stride_h),
        ("width", kernel_w, stride_w),
    ):
        if stride > kernel:
            notes.append((
                NOTE_SKIPPED_PIXELS,
                f"layer {spec.name!r}: stride {stride} exceeds the kernel "
                f"{kernel} along {label}, so {stride - kernel} input "
                f"row(s)/col(s) between windows are never pooled",
            ))
    return RuleResult(
        tops=[BlobInfo((n, c, out_h, out_w))],
        forward_space=n * c,
        notes=notes,
    )
