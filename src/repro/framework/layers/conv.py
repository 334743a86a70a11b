"""Convolution layer, lowered to im2col + gemm per sample.

The coarse-grain iteration space is the batch dimension ``S``: one
iteration unfolds one image into a column matrix and multiplies it against
the filter bank — the exact per-sample work unit the paper assigns to a
thread chunk for the conv1/conv2/conv3 layers.  Every work array (column
buffers, padded planes, the rotated filter bank) comes from the
per-thread pool in :mod:`repro.compiler.scratch`, so concurrent chunks
never share scratch (the "object privatization" of Algorithm 4, line 2)
and the steady state allocates nothing per call.

Forward lowers a block of samples at a time: one stacked exact
``im2col`` of the block's images per group, then one stacked ``gemm``
with ``W_g`` shared by every product, written straight into the top
blob viewed as ``(n, og, out_h * out_w)``, and one ``+= bias`` for the
block.  Each product is the ``sgemm`` the one-sample call issues, so no
byte depends on the block.  A block holds as many samples as keep its
column stack within ``_COLUMN_BYTES`` (at most the batch): the size
comes from the layer's shapes, never from the chunk, so the scratch is
the same for every chunk and every served batch size.

The backward pass is two loops over samples, the split InnerProduct
uses: the weight/bias gradients as a privatized reduction
(``dW_g += dY_g @ im2col(x)ᵀ``), and the bottom gradient as a
reduction-free loop that never scatters.  ``dX`` is the *correlation*
of the top diff with the filter bank rotated 180° and channel-transposed,
``W_rot[g][c, (o, i, j)] = W[g·og + o, c, kh−1−i, kw−1−j]``: the top diff
is written into a zeroed ``(og, H+kh−1, W+kw−1)`` plane — entry
``(oh, ow)`` at ``(oh·stride_h + kh−1−pad_h, ow·stride_w + kw−1−pad_w)``,
so a stride leaves zeros between entries and entries whose window lies
wholly in the padding fall outside the plane and are dropped — and then
``dX_g = W_rot[g] @ im2col(plane)`` with a stride-1, unpadded
``kh × kw`` window.  Like forward it runs a block of samples at a time
(sized from the shapes by ``_COLUMN_BYTES``): one stacked ``im2col`` of
the block's planes and one stacked ``gemm`` written straight into the
bottom diff viewed as ``(n, cg, H * W)``.  One path serves every
stride, pad and group; each sample's ``dX`` still depends on that
sample alone.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro import blaslib
from repro.blaslib.im2col import conv_out_size
from repro.compiler.scratch import scratch_buffer
from repro.framework.blob import DTYPE, Blob
from repro.framework.fillers import FillerSpec, fill, stable_seed
from repro.framework.layer import (
    Layer,
    LayerContract,
    LoopSpec,
    REDUCTION,
    register_layer,
)
from repro.framework.shape_inference import (
    NOTE_DROPPED_PIXELS,
    BlobInfo,
    RuleResult,
    ShapeError,
    register_shape_rule,
    require_axes,
)


#: Column-stack budget of one forward block of samples: 1 MiB, half a
#: core's L2 on the hosts this runs on.  Results do not depend on it.
_COLUMN_BYTES = 1 << 20


def _pair(spec, base: str, default=None) -> tuple[int, int]:
    """Resolve Caffe's ``kernel_size`` vs ``kernel_h``/``kernel_w`` style
    parameters into an ``(h, w)`` pair.

    Raises :class:`ShapeError` (a ``ValueError``) naming the layer."""
    h = spec.param(f"{base}_h")
    w = spec.param(f"{base}_w")
    if (h is None) != (w is None):
        raise ShapeError(
            f"layer {spec.name!r}: {base}_h and {base}_w must be given together"
        )
    if h is None:
        h = w = spec.param(base if base != "kernel" else "kernel_size", default)
        if h is None:
            raise ShapeError(f"layer {spec.name!r}: missing {base} size")
    try:
        return int(h), int(w)
    except (TypeError, ValueError):
        # e.g. a scalar field repeated in the prototxt parses to a list
        raise ShapeError(
            f"layer {spec.name!r}: {base} size must be one integer per "
            f"axis, got ({h!r}, {w!r})"
        ) from None


def _check_group(name: str, group: int, channels: int, num_output: int) -> None:
    if group <= 0 or num_output % group or channels % group:
        raise ShapeError(
            f"layer {name!r}: group {group} must be positive and divide "
            f"both channels {channels} and num_output {num_output}"
        )


@register_layer("Convolution")
class ConvolutionLayer(Layer):
    """2-D convolution with optional bias.

    Parameters (``convolution_param``): ``num_output``, ``kernel_size`` or
    ``kernel_h``/``kernel_w``, ``stride`` (default 1), ``pad`` (default 0),
    ``bias_term`` (default true), ``weight_filler``, ``bias_filler``,
    ``group`` (default 1).
    """

    exact_num_bottom = 1
    exact_num_top = 1

    # The weight loop accumulates dW (and db) across samples -> privatized
    # reduction over both param blobs; footprint() drops the bias index
    # automatically when bias_term is off.  The backward-data loop writes
    # only its own samples' bottom diff.
    contract = LayerContract(
        backward=REDUCTION,
        reduction_params=(0, 1),
        seed_params=("filler_seed",),
        fallback="stable_digest",
        loops=("_backward_weight_chunk", "_backward_data_chunk"),
        note=(
            "backward's one im2col + gemm per coalesced iteration (sample "
            "x group) is the chunking design, priced as segments dispatch "
            "by the cost model; the column buffers, padded planes and "
            "rotated filter bank come from the scratch pool"
        ),
    )

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        spec = self.spec
        self.stride_h, self.stride_w = _pair(spec, "stride", default=1)
        self.pad_h, self.pad_w = _pair(spec, "pad", default=0)
        self.group = int(spec.param("group", 1))
        self.bias_term = bool(spec.param("bias_term", True))
        self.channels = bottom[0].shape[1]

        weight_shape = self.geometry.param_shapes[0]
        self.num_output, _, self.kernel_h, self.kernel_w = weight_shape
        weights = Blob(weight_shape, name=f"{self.name}.weights")
        rng = self._filler_rng()
        fill(weights, _filler_spec(self.spec.param("weight_filler")), rng)
        self.blobs = [weights]
        if self.bias_term:
            bias = Blob(self.geometry.param_shapes[1],
                        name=f"{self.name}.bias")
            fill(bias, _filler_spec(self.spec.param("bias_filler")), rng)
            self.blobs.append(bias)

    def _filler_rng(self) -> np.random.Generator:
        seed = int(self.spec.param("filler_seed", 0)) or stable_seed(self.name)
        return np.random.default_rng(seed)

    def shape_changed(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        _, c, h, w = bottom[0].shape
        _, _, self.out_h, self.out_w = top[0].shape
        self._col_shape = (
            (c // self.group) * self.kernel_h * self.kernel_w,
            self.out_h * self.out_w,
        )
        self._padded_shape = (
            c // self.group, h + 2 * self.pad_h, w + 2 * self.pad_w
        )
        self._block = _block_of(bottom[0].shape[0], self._col_shape)
        og = self.num_output // self.group
        window = self.kernel_h * self.kernel_w
        self._wrot_shape = (self.group, c // self.group, og * window)
        self._dy_plane_shape = (
            og, h + self.kernel_h - 1, w + self.kernel_w - 1
        )
        self._dy_col_shape = (og * window, h * w)
        self._dy_block = _block_of(bottom[0].shape[0], self._dy_col_shape)
        self._dy_rows = _interleave(
            h, self.kernel_h, self.pad_h, self.stride_h, self.out_h)
        self._dy_cols = _interleave(
            w, self.kernel_w, self.pad_w, self.stride_w, self.out_w)

    # ------------------------------------------------------------------
    # chunk protocol: one iteration == one sample
    # ------------------------------------------------------------------
    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        self._forward_blocks(bottom[0].data[lo:hi], top[0].data[lo:hi])

    def _forward_blocks(self, x: np.ndarray, y: np.ndarray) -> None:
        """Convolve the samples ``x`` into ``y`` one block of
        ``self._block`` samples at a time (module docstring)."""
        weights = self.blobs[0].data.reshape(self.num_output, -1)
        block = self._block
        cols = scratch_buffer("conv.cols", (block, *self._col_shape), DTYPE)
        planes = scratch_buffer(
            "conv.planes", (block, *self._padded_shape), DTYPE)
        cg = self.channels // self.group
        og = self.num_output // self.group
        for start in range(0, len(x), block):
            xs = x[start : start + block]
            ys = y[start : start + block].reshape(len(xs), self.num_output, -1)
            for g in range(self.group):
                blaslib.im2col(
                    xs[:, g * cg : (g + 1) * cg],
                    self.kernel_h, self.kernel_w,
                    self.pad_h, self.pad_w,
                    self.stride_h, self.stride_w,
                    out=cols[: len(xs)], work=planes[: len(xs)],
                )
                blaslib.gemm(
                    False, False, 1.0,
                    weights[g * og : (g + 1) * og], cols[: len(xs)],
                    0.0, ys[:, g * og : (g + 1) * og],
                )
            if self.bias_term:
                ys += self.blobs[1].data[:, None]

    def _backward_weight_chunk(
        self,
        top: Sequence[Blob],
        bottom: Sequence[Blob],
        lo: int,
        hi: int,
        param_grads: Sequence[np.ndarray],
    ) -> None:
        """dW (and db) contributions of samples ``[lo, hi)``, accumulated
        into the privatized ``param_grads``."""
        x = bottom[0].data
        dy = top[0].diff
        dweights = param_grads[0].reshape(self.num_output, -1)
        dbias = param_grads[1] if self.bias_term else None

        col = scratch_buffer("conv.col", self._col_shape, DTYPE)
        padded = scratch_buffer("conv.padded", self._padded_shape, DTYPE)
        cg = self.channels // self.group
        og = self.num_output // self.group

        for s in range(lo, hi):
            dy_s = dy[s].reshape(self.num_output, -1)
            if dbias is not None:
                dbias += dy_s.sum(axis=1)
            for g in range(self.group):
                dy_g = dy_s[g * og : (g + 1) * og]
                blaslib.im2col(
                    x[s, g * cg : (g + 1) * cg],
                    self.kernel_h, self.kernel_w,
                    self.pad_h, self.pad_w,
                    self.stride_h, self.stride_w,
                    out=col, work=padded,
                )
                # dW_g += dY_g @ col^T
                blaslib.gemm(
                    False, True, 1.0, dy_g, col, 1.0,
                    dweights[g * og : (g + 1) * og],
                )

    def _backward_data_chunk(
        self, top: Sequence[Blob], bottom: Sequence[Blob], lo: int, hi: int
    ) -> None:
        """Bottom gradients of samples ``[lo, hi)`` (disjoint), a block of
        ``self._dy_block`` samples at a time: per block and group, the top
        diffs interleaved into the zeroed planes, one stacked unpadded
        stride-1 ``im2col`` of them and one stacked ``gemm`` against the
        rotated filter bank, written straight into the bottom diff
        (module docstring)."""
        dy = top[0].diff
        dx = bottom[0].diff
        cg = self.channels // self.group
        og = self.num_output // self.group
        kh, kw = self.kernel_h, self.kernel_w

        wrot = scratch_buffer("conv.wrot", self._wrot_shape, DTYPE)
        np.copyto(
            wrot.reshape(self.group, cg, og, kh, kw),
            self.blobs[0].data.reshape(self.group, og, cg, kh, kw)
            [..., ::-1, ::-1].transpose(0, 2, 1, 3, 4),
        )
        block = self._dy_block
        # Only the interleave positions are ever written, so the zeros
        # between and around them survive every block.
        planes = scratch_buffer(
            "conv.dy_planes", (block, *self._dy_plane_shape), DTYPE)
        planes.fill(0.0)
        cols = scratch_buffer(
            "conv.dy_cols", (block, *self._dy_col_shape), DTYPE)
        plane_h, top_h = self._dy_rows
        plane_w, top_w = self._dy_cols

        for start in range(lo, hi, block):
            n = min(block, hi - start)
            dxs = dx[start : start + n].reshape(n, self.channels, -1)
            for g in range(self.group):
                planes[:n, :, plane_h, plane_w] = (
                    dy[start : start + n, g * og : (g + 1) * og,
                       top_h, top_w])
                blaslib.im2col(planes[:n], kh, kw, 0, 0, 1, 1,
                               out=cols[:n])
                blaslib.gemm(False, False, 1.0, wrot[g], cols[:n], 0.0,
                             dxs[:, g * cg : (g + 1) * cg])

    def backward_loops(self, top, propagate_down, bottom) -> List[LoopSpec]:
        return self._conv_loops(top, propagate_down, bottom)

    def _conv_loops(self, top, propagate_down, bottom) -> List[LoopSpec]:
        """The weight/bias reduction over samples, then — when the bottom
        wants a gradient — the reduction-free backward-data loop.  A
        fused conv runs these after its epilogue loops."""
        space = self.backward_space(top, bottom)
        loops = [LoopSpec(
            space=space,
            body=lambda lo, hi, grads: self._backward_weight_chunk(
                top, bottom, lo, hi, grads),
            reduction=True,
            grad_targets=tuple(
                blob.flat_diff
                for blob in self.blobs[:2 if self.bias_term else 1]
            ),
            block=self.grad_block(space, bottom[0].shape[0]),
        )]
        if propagate_down[0]:
            loops.append(LoopSpec(
                space=space,
                body=lambda lo, hi, grads: self._backward_data_chunk(
                    top, bottom, lo, hi),
            ))
        return loops


def _block_of(batch: int, col_shape: tuple[int, int]) -> int:
    """Samples per block: as many as keep their column stack of
    ``col_shape`` columns within ``_COLUMN_BYTES``, at least one and at
    most the batch."""
    per_sample = DTYPE().itemsize * col_shape[0] * col_shape[1]
    return max(1, min(batch, _COLUMN_BYTES // per_sample))


def _interleave(extent: int, kernel: int, pad: int, stride: int,
                out: int) -> tuple[slice, slice]:
    """``(plane slice, top slice)`` along one axis of the backward-data
    plane: output position ``o`` lands at ``o * stride + kernel - 1 -
    pad``; positions outside ``[0, extent + kernel - 1)`` have windows
    wholly in the padding, reach no input pixel and are dropped."""
    offset = kernel - 1 - pad
    first = max(0, -(offset // stride))
    count = max(0, min(out, (extent - 1 + pad) // stride + 1) - first)
    start = first * stride + offset
    return (slice(start, start + count * stride, stride),
            slice(first, first + count))


@register_shape_rule("Convolution")
def _conv_shape_rule(spec, bottoms) -> RuleResult:
    require_axes(spec, bottoms[0], 4)
    n, c, h, w = bottoms[0].shape
    num_output = int(spec.require("num_output"))
    kernel_h, kernel_w = _pair(spec, "kernel")
    stride_h, stride_w = _pair(spec, "stride", default=1)
    pad_h, pad_w = _pair(spec, "pad", default=0)
    group = int(spec.param("group", 1))
    _check_group(spec.name, group, c, num_output)
    try:
        out_h = conv_out_size(h, kernel_h, pad_h, stride_h)
        out_w = conv_out_size(w, kernel_w, pad_w, stride_w)
    except ValueError as exc:
        raise ShapeError(f"layer {spec.name!r}: {exc}") from exc

    notes = []
    for label, extent, kernel, pad, stride in (
        ("height", h, kernel_h, pad_h, stride_h),
        ("width", w, kernel_w, pad_w, stride_w),
    ):
        rem = (extent + 2 * pad - kernel) % stride
        if rem:
            notes.append((
                NOTE_DROPPED_PIXELS,
                f"layer {spec.name!r}: stride {stride} drops the last {rem} "
                f"input row(s)/col(s) along {label} "
                f"(({extent} + 2*{pad} - {kernel}) % {stride} != 0)",
            ))

    param_shapes = [(num_output, c // group, kernel_h, kernel_w)]
    if bool(spec.param("bias_term", True)):
        param_shapes.append((num_output,))
    return RuleResult(
        tops=[BlobInfo((n, num_output, out_h, out_w))],
        forward_space=n,
        param_shapes=param_shapes,
        notes=notes,
    )


def _filler_spec(raw) -> FillerSpec:
    """Build a :class:`FillerSpec` from a parsed ``weight_filler`` block."""
    if raw is None:
        return FillerSpec(type="constant", value=0.0)
    if isinstance(raw, FillerSpec):
        return raw
    if isinstance(raw, dict):
        known = {k: v for k, v in raw.items()
                 if k in ("type", "value", "min", "max", "mean", "std",
                          "variance_norm")}
        return FillerSpec(**known)
    raise TypeError(f"cannot interpret filler spec {raw!r}")
