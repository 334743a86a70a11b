"""Convolution lowering: ``im2col`` / ``col2im``.

Caffe implements convolution as ``im2col`` followed by a single ``gemm``
per image; the backward pass uses ``col2im`` to scatter gradients back.
These are the exact kernels the coarse-grain parallelization treats as the
per-sample unit of work inside the convolutional layers.

The column buffer layout matches Caffe: shape
``(channels * kernel_h * kernel_w, output_h * output_w)`` with the kernel
offsets varying slowest, so that ``weights @ col`` yields the convolution.

``im2col`` moves each element twice, in long runs.  numpy copies the
strided ``(C, kernel_h, kernel_w, out_h, out_w)`` window view of the
padded image in runs of only ``out_w`` floats, so the copy is split in
two.  Stage 1 builds, for each window column ``j``, the padded rows
sampled at the output columns, ``rows[c, j, r, ow] = padded[c, r, j +
ow * stride_w]``, with the rows de-interleaved by the row stride (row
``r`` at ``[r % stride_h, r // stride_h]``, only the rows some window
reads).  Stage 2 then copies each column-matrix row ``(c, i, j)`` as
one run of ``out_h * out_w`` floats: rows ``i, i + stride_h, ...`` of
window column ``j`` lie next to each other.  On lenet's conv2 that is
1 200 + 500 runs per image where the window view made 4 000 runs of 8.
``out`` must be C-contiguous: the runs are written into it seen as
``(C, kernel_h, kernel_w, out_h * out_w)``, which on anything else
would be a copy and the columns would be lost.  The rows buffer is
allocated per call.  Like ``gemm``,
``im2col`` takes a stack along one leading axis: images ``(N, C, H,
W)``, ``out`` ``(N, K, P)`` and ``work`` ``(N, C, H_p, W_p)``, one
copy per stage for the stack, and one ``im2col`` op recorded per
image.  ``col2im`` accumulates the
``kernel_h * kernel_w`` column slabs into the padded plane in (kh, kw)
order — the order fixes every pixel's summation order and with it the
bits of the result — and crops the interior into ``out``.

The padded plane is ``work``, a ``(C, H + 2 pad_h, W + 2 pad_w)`` array
of the input's dtype supplied by the caller (the conv layer passes one
from its per-thread scratch pool; this package does not know the pool).
Its contents on entry are ignored: it is cleared on every call.  Without
``work`` the call allocates the plane, fine for one-off use; ``im2col``
of an unpadded C-contiguous image reads the image itself, needing none.

``im2col_runs`` is an older row-run lowering beside it, kept with its
tests but called by no layer (convolution's backward-data reads exact
``im2col`` columns too).  It lays the zero-padded plane out in one flat
``work`` array — de-interleaved by the stride, ``padded[c, r, q]`` at
``[c, r % stride_h, q % stride_w, r // stride_h, q // stride_w]`` of a
``(C, stride_h, stride_w, run_h, run_w)`` layout, plus a few floats of
slack at the end — and copies each column-matrix row ``(c, i, j)`` as
one contiguous run of ``out_h * run_w`` floats (``run_w`` is the padded
width, divided by the stride and rounded up).  Column
``oh * run_w + ow`` for ``ow < out_w`` is ``im2col``'s column
``oh * out_w + ow``, bit for bit; the others straddle a row edge, hold
other cells of the plane, and a caller must never read what they
produce.  A ``gemm`` on the runs therefore computes every kept output as
the same ``K``-long dot product ``im2col`` would, plus
``run_w - out_w`` discarded columns per output row.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.blaslib.dispatch import record_op


def conv_out_size(in_size: int, kernel: int, pad: int, stride: int) -> int:
    """Spatial output extent of a convolution/pooling window sweep."""
    if kernel <= 0 or stride <= 0:
        raise ValueError(f"kernel ({kernel}) and stride ({stride}) must be positive")
    if pad < 0:
        raise ValueError(f"pad must be non-negative, got {pad}")
    out = (in_size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"window does not fit: in={in_size} kernel={kernel} "
            f"pad={pad} stride={stride}"
        )
    return out


def _check_buffer(func: str, name: str, buf: np.ndarray,
                  shape: tuple, dtype: np.dtype,
                  contiguous: bool = False) -> None:
    """``ValueError`` naming the argument if a caller buffer cannot be
    written in place (or, with ``contiguous``, viewed as one run)."""
    if buf.shape != shape:
        raise ValueError(
            f"{func} {name} has shape {buf.shape}, expected {shape}"
        )
    if buf.dtype != dtype:
        raise ValueError(
            f"{func} {name} has dtype {buf.dtype}, expected {dtype} "
            "(the input's)"
        )
    if contiguous and not buf.flags["C_CONTIGUOUS"]:
        raise ValueError(f"{func} {name} must be C-contiguous")


def _padded_plane(func: str, work: np.ndarray | None,
                  shape: tuple, dtype: np.dtype,
                  contiguous: bool = False) -> np.ndarray:
    """The zeroed padded work plane: the caller's, or a fresh one."""
    if work is None:
        return np.zeros(shape, dtype=dtype)
    _check_buffer(func, "work", work, shape, dtype, contiguous)
    work.fill(0.0)
    return work


def im2col(
    image: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    pad_h: int,
    pad_w: int,
    stride_h: int,
    stride_w: int,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Unfold one image ``(C, H, W)``, or each of a stack ``(N, C, H,
    W)`` (module docstring), into a column matrix.

    Returns an array of shape ``(C * kernel_h * kernel_w, out_h *
    out_w)``, stacked like the image; ``out`` may supply a preallocated
    C-contiguous destination of that shape and the image's dtype,
    ``work`` the padded plane(s) (module docstring).
    """
    if image.ndim not in (3, 4):
        raise ValueError("im2col image must be (C, H, W) or (N, C, H, W), "
                         f"got shape {image.shape}")
    *stack, c, h, w = image.shape
    out_h = conv_out_size(h, kernel_h, pad_h, stride_h)
    out_w = conv_out_size(w, kernel_w, pad_w, stride_w)
    col_shape = (*stack, c * kernel_h * kernel_w, out_h * out_w)
    if out is None:
        out = np.empty(col_shape, dtype=image.dtype)
    else:
        _check_buffer("im2col", "out", out, col_shape, image.dtype, True)

    images = stack[0] if stack else 1
    record_op("im2col", 0, (image.nbytes + out.nbytes) // max(images, 1),
              images)
    if pad_h or pad_w or not image.flags["C_CONTIGUOUS"]:
        padded = _padded_plane(
            "im2col", work,
            (*stack, c, h + 2 * pad_h, w + 2 * pad_w), image.dtype, True,
        )
        padded[..., pad_h : pad_h + h, pad_w : pad_w + w] = image
    else:
        padded = image
    # Stage 1: rows[..., c, j, r % sh, r // sh, ow] = padded[..., c, r,
    # j + ow * sw], only the rows a window reads: residue rho serves
    # window rows rho, rho + sh, ... (views are np.ndarray over the
    # buffer: a fifth of as_strided's overhead).
    residues = min(stride_h, kernel_h)
    depth = (kernel_h - 1) // stride_h + out_h
    rows = np.empty((*stack, c, kernel_w, residues, depth, out_w),
                    image.dtype)
    *outer, sh, sw = padded.strides
    for rho in range(residues):
        count = (kernel_h - 1 - rho) // stride_h + out_h
        np.copyto(rows[..., rho, :count, :], np.ndarray(
            (*stack, c, kernel_w, count, out_w), padded.dtype, padded,
            rho * sh, (*outer, sw, sh * stride_h, sw * stride_w)))
    # Stage 2: column row (c, i, j) is the run of out_h * out_w floats
    # starting at rows[..., c, j, i % sh, i // sh, 0].
    runs = out.reshape(*stack, c, kernel_h, kernel_w, out_h * out_w)
    *outer, rc, rj, rr, rq, item = rows.strides
    for rho in range(residues):
        dst = runs[..., rho::stride_h, :, :]
        np.copyto(dst, np.ndarray(dst.shape, rows.dtype, rows, rho * rr,
                                  (*outer, rc, rq, rj, item)))
    return out


class RunLayout(NamedTuple):
    """Geometry of one :func:`im2col_runs` call (module docstring)."""

    out_h: int
    out_w: int
    #: padded height and width divided by the stride, rounded up
    run_h: int
    run_w: int
    #: ``out``: ``(C * kernel_h * kernel_w, out_h * run_w)``
    cols: tuple
    #: ``work``: the flat padded plane plus its slack
    work: tuple


@lru_cache(maxsize=256)  # a tenth of an im2col_runs call, uncached
def runs_layout(channels: int, height: int, width: int, kernel_h: int,
                kernel_w: int, pad_h: int, pad_w: int, stride_h: int,
                stride_w: int) -> RunLayout:
    """The shapes :func:`im2col_runs` takes and returns for a
    ``(channels, height, width)`` image."""
    out_h = conv_out_size(height, kernel_h, pad_h, stride_h)
    out_w = conv_out_size(width, kernel_w, pad_w, stride_w)
    run_h = -(-(height + 2 * pad_h) // stride_h)
    run_w = -(-(width + 2 * pad_w) // stride_w)
    # A run starting at window column j reads j // stride_w floats past
    # the end of its residue plane; the last plane needs that slack.
    slack = (kernel_w - 1) // stride_w
    return RunLayout(
        out_h, out_w, run_h, run_w,
        (channels * kernel_h * kernel_w, out_h * run_w),
        (channels * stride_h * stride_w * run_h * run_w + slack,),
    )


def im2col_runs(
    image: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    pad_h: int,
    pad_w: int,
    stride_h: int,
    stride_w: int,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Unfold one image ``(C, H, W)`` into a column matrix of row runs.

    Returns an array of shape ``runs_layout(...).cols`` whose columns
    ``oh * run_w + ow`` with ``ow < out_w`` equal :func:`im2col`'s
    columns ``oh * out_w + ow`` bit for bit (the others are never to be
    read; module docstring).  ``out`` may supply a preallocated
    C-contiguous destination of that shape and the image's dtype,
    ``work`` the flat plane: a C-contiguous ``runs_layout(...).work``
    array of the image's dtype, cleared on every call.
    """
    if image.ndim != 3:
        raise ValueError(
            f"im2col_runs expects (C, H, W), got shape {image.shape}")
    c, h, w = image.shape
    layout = runs_layout(c, h, w, kernel_h, kernel_w,
                         pad_h, pad_w, stride_h, stride_w)
    if out is None:
        out = np.empty(layout.cols, dtype=image.dtype)
    else:
        _check_buffer("im2col_runs", "out", out, layout.cols, image.dtype,
                      True)
    if work is None:
        work = np.empty(layout.work, dtype=image.dtype)
    else:
        _check_buffer("im2col_runs", "work", work, layout.work, image.dtype,
                      True)

    record_op("im2col", 0, image.nbytes + out.nbytes)
    out_h, _, run_h, run_w = layout[:4]
    work.fill(0.0)
    plane = work[: work.size - (kernel_w - 1) // stride_w].reshape(
        c, stride_h, stride_w, run_h, run_w)
    for residue_h in range(stride_h):
        first_h = (residue_h - pad_h) % stride_h
        rows = image[:, first_h::stride_h]
        top = (pad_h + first_h) // stride_h
        for residue_w in range(stride_w):
            first_w = (residue_w - pad_w) % stride_w
            src = rows[:, :, first_w::stride_w]
            left = (pad_w + first_w) // stride_w
            plane[:, residue_h, residue_w,
                  top : top + src.shape[1], left : left + src.shape[2]] = src
    # Row (c, i, j) starts at cell (i // stride_h, j // stride_w) of
    # residue plane (c, i % stride_h, j % stride_w): the rows of one
    # residue pair are one strided view with a contiguous inner run.
    # (np.ndarray over the buffer rather than as_strided: a fifth of
    # the call overhead, and it refuses a view past the buffer's end.)
    rows_out = out.reshape(c, kernel_h, kernel_w, out_h * run_w)
    item = work.itemsize
    strides = (plane.strides[0], run_w * item, item, item)
    for i in range(min(stride_h, kernel_h)):
        for j in range(min(stride_w, kernel_w)):
            dst = rows_out[:, i::stride_h, j::stride_w]
            offset = (i * stride_w + j) * run_h * run_w * item
            np.copyto(dst, np.ndarray(dst.shape, work.dtype, work,
                                      offset, strides))
    return out


def col2im(
    col: np.ndarray,
    channels: int,
    height: int,
    width: int,
    kernel_h: int,
    kernel_w: int,
    pad_h: int,
    pad_w: int,
    stride_h: int,
    stride_w: int,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Fold a column matrix back into an image, summing overlaps.

    The adjoint of :func:`im2col`: entries of ``col`` that originated from
    the same image pixel are accumulated.  Returns an array of shape
    ``(channels, height, width)``; ``out`` may supply the destination
    (``col``'s dtype), ``work`` the padded plane (module docstring).
    """
    out_h = conv_out_size(height, kernel_h, pad_h, stride_h)
    out_w = conv_out_size(width, kernel_w, pad_w, stride_w)
    expected = (channels * kernel_h * kernel_w, out_h * out_w)
    if col.shape != expected:
        raise ValueError(f"col2im col has shape {col.shape}, expected {expected}")
    if out is None:
        out = np.empty((channels, height, width), dtype=col.dtype)
    else:
        _check_buffer("col2im", "out", out,
                      (channels, height, width), col.dtype)

    record_op("col2im", col.size, col.nbytes + out.nbytes)
    padded = _padded_plane(
        "col2im", work,
        (channels, height + 2 * pad_h, width + 2 * pad_w), col.dtype,
    )
    view = col.reshape(channels, kernel_h, kernel_w, out_h, out_w)
    for kh in range(kernel_h):
        h_stop = kh + stride_h * out_h
        for kw in range(kernel_w):
            w_stop = kw + stride_w * out_w
            padded[:, kh:h_stop:stride_h, kw:w_stop:stride_w] += view[:, kh, kw]
    np.copyto(out, padded[:, pad_h : pad_h + height, pad_w : pad_w + width])
    return out
