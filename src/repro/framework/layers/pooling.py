"""Pooling layer (MAX and AVE), the paper's dimensionality-reduction layer.

The coalesced iteration space is ``S * C``: one iteration reduces one
``(H, W)`` plane of one sample — the Figure 2 scheme where a group of
input segments produces one output segment.  Because the blob layout is
``(N, C, H, W)`` C-contiguous, the planes of a chunk ``[lo, hi)`` are a
contiguous slab of memory and a chunk is processed as whole-slab array
passes (the per-segment BLAS call of Algorithm 2, batched over planes).

Semantics follow Caffe exactly:

* *ceil* output sizing, so the last window may overhang the padded image;
* MAX records each window's argmax (first occurrence, row-major; a NaN
  counts as the maximum) for the backward routing;
* AVE divides by the window area clipped to the *padded* image bounds
  (``height + pad``), which reduces to the true clipped area when
  ``pad == 0``.

MAX forward never materialises the ``k**2``-times-the-input window copy.
It walks the chunk in blocks of planes sized to stay in L2
(``_BLOCK_BYTES``) and, per block:

1. copies the planes once into a ``-inf`` padded scratch whose columns
   are de-interleaved by ``stride_w`` (column ``c`` at
   ``[c % stride_w, c // stride_w]``), so the cells window offset
   ``(wh, ww)`` contributes to all outputs are a view with a contiguous
   inner run;
2. **value by maximum**: folds the ``k**2`` offset views into the top
   blob with ``np.maximum`` (which propagates NaN);
3. **index by arithmetic**: the first offset equal to the maximum is
   ``min over o of (o if equal else k**2)``, computed as
   ``(cand != max) * (k**2 - o) + o`` in a one-byte integer — no masks,
   no ``argmax``; a table built in ``shape_changed`` maps offset to plane index;
4. **NaN pass**: a NaN maximum equals no candidate and leaves the
   sentinel ``k**2`` behind; only then the same arithmetic runs once more
   on ``cand == cand`` to find the window's first NaN.  Values
   ``np.maximum`` does not pin down bit for bit (``+0.0`` against
   ``-0.0``, two NaN payloads) are re-read from the recorded cell.

MAX backward is one ``np.add.at`` per chunk over plane-offset indices.

AVE works on a zero-padded scratch copy of the chunk's planes, forward
and backward as mirrors of each other: window offset ``(kh, kw)`` is one
strided view of the padded planes, and the ``k**2`` views are added into
the top blob (forward) or receive the scaled top diff (backward) in
row-major offset order.  A window's sum therefore has one fixed float32
add order, and nothing ``k**2`` times the input is ever materialised.

Every work array comes from the per-thread scratch pool; the block loop
runs ``ceil(planes / block)`` times, not once per plane.  All of it is
plane-wise, so no value depends on where a chunk is cut.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.compiler.scratch import scratch_buffer
from repro.framework.blob import DTYPE, Blob
from repro.framework.layer import Layer, LayerContract, register_layer
from repro.framework.layers.conv import _pair
from repro.framework.shape_inference import (
    NOTE_SKIPPED_PIXELS,
    BlobInfo,
    RuleResult,
    ShapeError,
    register_shape_rule,
    require_axes,
)


#: Working-set budget of one MAX-forward block of planes.  The 2 * k**2
#: passes over a block re-read it, so it has to stay in L2; 1 MiB is half
#: a core's L2 on the hosts this runs on.  Results do not depend on it.
_BLOCK_BYTES = 1 << 20


def pool_out_size(in_size: int, kernel: int, pad: int, stride: int) -> int:
    """Pooled output extent with Caffe's ceil semantics."""
    if kernel <= 0 or stride <= 0:
        raise ValueError(
            f"kernel ({kernel}) and stride ({stride}) must be positive")
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

    contract = LayerContract(scratch=("_max_idx",))

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        spec = self.spec
        self.method = str(spec.param("pool", "MAX")).upper()
        self.kernel_h, self.kernel_w = _pair(spec, "kernel")
        self.stride_h, self.stride_w = _pair(spec, "stride", default=1)
        self.pad_h, self.pad_w = _pair(spec, "pad", default=0)

    def shape_changed(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        n, c, h, w = bottom[0].shape
        self.in_h, self.in_w = h, w
        _, _, self.out_h, self.out_w = top[0].shape
        # Padded scratch extents: large enough for every (possibly
        # overhanging) window.
        self.eff_h = max(h + 2 * self.pad_h,
                         (self.out_h - 1) * self.stride_h + self.kernel_h)
        self.eff_w = max(w + 2 * self.pad_w,
                         (self.out_w - 1) * self.stride_w + self.kernel_w)
        if self.method == "MAX":
            # Plane-local flat index (ih * in_w + iw) of each window max;
            # every forward chunk overwrites its planes' entries.
            self._max_idx = np.zeros(
                (n * c, self.out_h, self.out_w), dtype=np.int64
            )
            self._setup_max_tables()
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

    def _setup_max_tables(self) -> None:
        """Shape-derived constants of the MAX kernels (see module doc)."""
        area = self.kernel_h * self.kernel_w
        # Column c of a padded row is stored at [c % stride_w, c // stride_w].
        self._deint_w = -(-self.eff_w // self.stride_w)
        # Window offsets 0..area-1 plus the sentinel ``area`` ("no match").
        self._off_dtype = np.min_scalar_type(area)
        self._miss_scale = np.arange(area, 0, -1, dtype=self._off_dtype)
        # plane index = origin of the window + displacement of the offset
        offsets = np.arange(area)
        self._offset_idx = (offsets // self.kernel_w * self.in_w
                            + offsets % self.kernel_w)
        rows = np.arange(self.out_h) * self.stride_h - self.pad_h
        cols = np.arange(self.out_w) * self.stride_w - self.pad_w
        self._origin_idx = rows[:, None] * self.in_w + cols[None, :]
        self._plane_base = (np.arange(len(self._max_idx))
                            * (self.in_h * self.in_w))[:, None, None]
        # What one plane keeps hot across a block's passes: input,
        # de-interleaved copy and output; index; the three work arrays.
        out_area = self.out_h * self.out_w
        plane_bytes = (
            DTYPE().itemsize * (self.in_h * self.in_w + out_area
                                + self.eff_h * self.stride_w * self._deint_w)
            + (self._max_idx.itemsize + 1
               + 2 * self._off_dtype.itemsize) * out_area
        )
        self._block = max(1, _BLOCK_BYTES // plane_bytes)

    def _max_forward(
        self, planes: np.ndarray, out: np.ndarray, idx: np.ndarray
    ) -> None:
        """MAX-pool ``planes`` into ``out``/``idx``, one L2 block at a time."""
        block = self._block
        grid = (block, self.out_h, self.out_w)
        deint = scratch_buffer(
            "pool.deint",
            (block, self.eff_h, self.stride_w, self._deint_w), DTYPE,
        )
        miss = scratch_buffer("pool.miss", grid, np.bool_)
        cand_off = scratch_buffer("pool.cand_off", grid, self._off_dtype)
        off = scratch_buffer("pool.off", grid, self._off_dtype)
        for start in range(0, len(planes), block):
            stop = min(start + block, len(planes))
            n = stop - start
            self._max_block(
                planes[start:stop], out[start:stop], idx[start:stop],
                deint[:n], miss[:n], cand_off[:n], off[:n],
            )

    def _max_block(self, planes, out, idx, deint, miss, cand_off, off) -> None:
        """Steps 1-4 of the module docstring on one block of planes."""
        sw = self.stride_w
        # De-interleaved -inf padded copy of the block: the only copy of
        # the input this kernel makes.
        deint.fill(-np.inf)
        for residue in range(sw):
            first = (residue - self.pad_w) % sw
            src = planes[:, :, first::sw]
            start = (self.pad_w + first) // sw
            deint[:, self.pad_h : self.pad_h + self.in_h, residue,
                  start : start + src.shape[2]] = src
        # One (n, out_h, out_w) view per window offset, row-major, each
        # with a contiguous inner run.
        cands = [
            deint[:, wh : wh + self.stride_h * self.out_h : self.stride_h,
                  ww % sw, ww // sw : ww // sw + self.out_w]
            for wh in range(self.kernel_h)
            for ww in range(self.kernel_w)
        ]

        np.copyto(out, cands[0])
        for cand in cands[1:]:
            np.maximum(out, cand, out=out)

        def first_offset(mark_misses):
            # off = min(off, o) wherever offset o is not marked a miss
            for o, cand in enumerate(cands):
                mark_misses(cand)
                np.multiply(miss, self._miss_scale[o], out=cand_off)
                np.add(cand_off, o, out=cand_off)
                np.minimum(off, cand_off, out=off)

        none = len(cands)
        off.fill(none)
        first_offset(lambda cand: np.not_equal(cand, out, out=miss))
        has_nan = off.max() == none
        if has_nan:
            # A NaN maximum equals no candidate; argmax semantics want
            # the window's first NaN.
            first_offset(lambda cand: np.equal(cand, cand, out=miss))
        np.take(self._offset_idx, off, out=idx, mode="clip")
        idx += self._origin_idx
        if has_nan or not out.all():
            # np.maximum may hand back either operand when both are NaN
            # or when +0.0 meets -0.0; the first one is wanted, bit for
            # bit.  Such a maximum is a real cell, so idx is in-plane.
            p, i, j = np.nonzero((out == 0) | (out != out))
            out[p, i, j] = planes.reshape(len(planes), -1)[p, idx[p, i, j]]

    # ------------------------------------------------------------------
    # chunk protocol: one iteration == one (sample, channel) plane
    # ------------------------------------------------------------------
    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        planes = bottom[0].data.reshape(-1, self.in_h, self.in_w)[lo:hi]
        out = top[0].data.reshape(-1, self.out_h, self.out_w)[lo:hi]
        count = hi - lo
        if count <= 0:
            return
        if self.method == "MAX":
            self._max_forward(planes, out, self._max_idx[lo:hi])
            return
        padded = scratch_buffer(
            "pool.fwd", (count, self.eff_h, self.eff_w), DTYPE
        )
        padded.fill(0.0)
        padded[:, self.pad_h : self.pad_h + self.in_h,
               self.pad_w : self.pad_w + self.in_w] = planes
        # The mirror of backward: each window offset contributes one
        # strided view of the padded planes to every output.
        views = [
            padded[:, kh : kh + self.stride_h * self.out_h : self.stride_h,
                   kw : kw + self.stride_w * self.out_w : self.stride_w]
            for kh in range(self.kernel_h)
            for kw in range(self.kernel_w)
        ]
        np.copyto(out, views[0])
        for view in views[1:]:
            out += view
        out /= self._ave_divisor

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
            idx = self._max_idx[lo:hi]
            # One scatter-add for the whole chunk: plane p's indices are
            # shifted into its slot of the flat slab.  Cells of different
            # planes are disjoint and np.add.at walks its indices in
            # order, so each cell accumulates exactly as a per-plane call
            # would; window maxima can coincide across overlapping
            # windows, so accumulation is required.
            flat_idx = scratch_buffer("pool.flat_idx", idx.shape, np.int64)
            np.add(idx, self._plane_base[:count], out=flat_idx)
            lowest = idx.min()
            if lowest < 0:
                # An all -inf window that starts in the padding records
                # a cell before its plane.  A negative index counts from
                # the end of that plane — not of the slab — and one
                # beyond the plane's length is an error.
                plane_size = self.in_h * self.in_w
                if lowest < -plane_size:
                    raise IndexError(
                        f"layer {self.name!r}: recorded max index "
                        f"{lowest} is outside a plane of {plane_size}"
                    )
                flat_idx += (idx < 0) * plane_size
            np.add.at(dplanes.reshape(-1), flat_idx.reshape(-1),
                      dout.reshape(-1))
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
    """Caffe's ceil output sizing (:func:`pool_out_size`)."""
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
    try:
        out_h = pool_out_size(h, kernel_h, pad_h, stride_h)
        out_w = pool_out_size(w, kernel_w, pad_w, stride_w)
    except ValueError as exc:
        raise ShapeError(f"layer {spec.name!r}: {exc}") from exc
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
