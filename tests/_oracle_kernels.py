"""Frozen copies of kernels as they stood before they were rewritten.

Test-only: nothing under ``src/`` imports this module.  Every function
has the call signature of the production routine it froze, so a test can
``monkeypatch.setattr`` it in and replay a whole training trajectory on
the old kernels.  Two generations live here, held to two standards:

* **Bitwise**: MAX pooling, ``im2col``, ``col2im``, the synthetic
  MNIST brush (one ``canvas +=`` per brush point), convolution's
  forward and backward-data GEMMs on exact ``im2col`` columns (now on
  ``im2col_runs`` row runs) and InnerProduct's one ``gemm`` per aligned
  block (now one stacked ``gemm`` per chunk) were rewritten for speed
  under the promise that their outputs stay byte-for-byte what these
  produce; the parity tests hold them to it.
* **Tolerance-bounded** (the deliberate numeric re-baselines):
  InnerProduct's per-sample / per-output-row ``gemv`` loops, AVE
  pooling's ``windows.sum`` forward and LRN's float64 prefix-sum window
  were replaced by kernels that sum in another order or precision, and
  so was convolution's backward-data ``Wᵀ @ dY`` + ``col2im`` scatter
  (now a correlation with the rotated filter bank).  The new kernels
  agree with these to ``rtol=1e-5, atol=1e-6``; what stays bitwise is
  parallel == sequential == fused == served == resumed under the *new*
  kernels, at every chunk cut.

Do not "tidy" these: the k**2 copy, the per-plane ``np.add.at`` loop,
the double copy in ``im2col``, the Python loops around ``gemv`` and
around IP's block ``gemm``, the float64 upcast, the ``col2im`` scatter,
the per-point brush loop and conv's exact ``im2col`` columns are the
point.
"""

from __future__ import annotations

import numpy as np

from repro import blaslib
from repro.blaslib.im2col import conv_out_size
from repro.compiler.scratch import scratch_buffer
from repro.data.synth_mnist import SIZE as MNIST_SIZE
from repro.framework.blob import DTYPE
from repro.framework.layers.inner_product import _BLOCK as IP_BLOCK


# ----------------------------------------------------------------------
# Synthetic MNIST brush (synth_mnist._rasterize): one exp plane per point
# ----------------------------------------------------------------------
def mnist_rasterize(strokes, jitter: np.ndarray,
                    brush_sigma: float) -> np.ndarray:
    """Add one Gaussian plane to the canvas per brush point."""
    canvas = np.zeros((MNIST_SIZE, MNIST_SIZE), dtype=np.float64)
    ys, xs = np.mgrid[0:MNIST_SIZE, 0:MNIST_SIZE]
    point_index = 0
    for stroke in strokes:
        pts = np.asarray(stroke, dtype=np.float64)
        pts = pts + jitter[point_index : point_index + len(pts)]
        point_index += len(pts)
        for (x0, y0), (x1, y1) in zip(pts[:-1], pts[1:]):
            length = max(abs(x1 - x0), abs(y1 - y0))
            steps = max(int(length * MNIST_SIZE * 2), 2)
            ts = np.linspace(0.0, 1.0, steps)
            px = (x0 + ts * (x1 - x0)) * (MNIST_SIZE - 1)
            py = (y0 + ts * (y1 - y0)) * (MNIST_SIZE - 1)
            for cx, cy in zip(px, py):
                dist2 = (xs - cx) ** 2 + (ys - cy) ** 2
                canvas += np.exp(-dist2 / (2.0 * brush_sigma**2))
    peak = canvas.max()
    if peak > 0:
        canvas = np.minimum(canvas / (0.6 * peak), 1.0)
    return canvas


# ----------------------------------------------------------------------
# MAX pooling (PoolingLayer.forward_chunk / backward_chunk, MAX branch)
# ----------------------------------------------------------------------
def _padded_planes(layer, planes: np.ndarray, fill: float) -> np.ndarray:
    padded = np.full((len(planes), layer.eff_h, layer.eff_w), fill, DTYPE)
    padded[:, layer.pad_h : layer.pad_h + layer.in_h,
           layer.pad_w : layer.pad_w + layer.in_w] = planes
    return padded


def _windows(layer, padded: np.ndarray) -> np.ndarray:
    sp, sh, sw = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded,
        shape=(padded.shape[0], layer.out_h, layer.out_w,
               layer.kernel_h, layer.kernel_w),
        strides=(sp, sh * layer.stride_h, sw * layer.stride_w, sh, sw),
        writeable=False,
    )


def max_pool_forward_chunk(layer, bottom, top, lo: int, hi: int) -> None:
    """Copy the k**2 window view, ``argmax`` it, gather the values."""
    planes = bottom[0].data.reshape(-1, layer.in_h, layer.in_w)[lo:hi]
    out = top[0].data.reshape(-1, layer.out_h, layer.out_w)[lo:hi]
    count = hi - lo
    if count <= 0:
        return
    windows = _windows(layer, _padded_planes(layer, planes, -np.inf))
    flat = windows.reshape(count, layer.out_h, layer.out_w, -1)
    arg = flat.argmax(axis=3)
    np.copyto(out, np.take_along_axis(flat, arg[..., None], axis=3)[..., 0])
    wh, ww = np.divmod(arg, layer.kernel_w)
    ih_base = (np.arange(layer.out_h) * layer.stride_h)[None, :, None]
    iw_base = (np.arange(layer.out_w) * layer.stride_w)[None, None, :]
    ih = ih_base + wh - layer.pad_h
    iw = iw_base + ww - layer.pad_w
    layer._max_idx[lo:hi] = ih * layer.in_w + iw


def max_pool_backward_chunk(layer, top, propagate_down, bottom,
                            lo: int, hi: int, param_grads) -> None:
    """One ``np.add.at`` per plane."""
    if not propagate_down[0]:
        return
    dplanes = bottom[0].diff.reshape(-1, layer.in_h, layer.in_w)[lo:hi]
    dout = top[0].diff.reshape(-1, layer.out_h, layer.out_w)[lo:hi]
    count = hi - lo
    if count <= 0:
        return
    dplanes.fill(0.0)
    flat = dplanes.reshape(count, -1)
    idx = layer._max_idx[lo:hi].reshape(count, -1)
    grads = dout.reshape(count, -1)
    for p in range(count):
        np.add.at(flat[p], idx[p], grads[p])


# ----------------------------------------------------------------------
# im2col / col2im (numpy backend)
# ----------------------------------------------------------------------
def im2col(image, kernel_h, kernel_w, pad_h, pad_w, stride_h, stride_w,
           out=None, work=None) -> np.ndarray:
    """Fresh ``np.zeros`` plane, ``view.reshape`` copy, then ``copyto``.

    ``work`` is accepted (and ignored) so the production call sites can
    run against this function unchanged.
    """
    c, h, w = image.shape
    out_h = conv_out_size(h, kernel_h, pad_h, stride_h)
    out_w = conv_out_size(w, kernel_w, pad_w, stride_w)
    col_shape = (c * kernel_h * kernel_w, out_h * out_w)
    if out is None:
        out = np.empty(col_shape, dtype=image.dtype)
    if pad_h or pad_w:
        padded = np.zeros((c, h + 2 * pad_h, w + 2 * pad_w),
                          dtype=image.dtype)
        padded[:, pad_h : pad_h + h, pad_w : pad_w + w] = image
    else:
        padded = image
    sc, sh, sw = padded.strides
    view = np.lib.stride_tricks.as_strided(
        padded,
        shape=(c, kernel_h, kernel_w, out_h, out_w),
        strides=(sc, sh, sw, sh * stride_h, sw * stride_w),
        writeable=False,
    )
    np.copyto(out, view.reshape(col_shape))
    return out


def col2im(col, channels, height, width, kernel_h, kernel_w, pad_h, pad_w,
           stride_h, stride_w, out=None, work=None) -> np.ndarray:
    """Fresh ``np.zeros`` plane, (kh, kw)-ordered accumulation, crop."""
    out_h = conv_out_size(height, kernel_h, pad_h, stride_h)
    out_w = conv_out_size(width, kernel_w, pad_w, stride_w)
    if out is None:
        out = np.zeros((channels, height, width), dtype=col.dtype)
    else:
        out.fill(0.0)
    padded = np.zeros(
        (channels, height + 2 * pad_h, width + 2 * pad_w), dtype=col.dtype
    )
    view = col.reshape(channels, kernel_h, kernel_w, out_h, out_w)
    for kh in range(kernel_h):
        h_stop = kh + stride_h * out_h
        for kw in range(kernel_w):
            w_stop = kw + stride_w * out_w
            padded[:, kh:h_stop:stride_h, kw:w_stop:stride_w] += view[:, kh, kw]
    np.copyto(out, padded[:, pad_h : pad_h + height, pad_w : pad_w + width])
    return out


# ----------------------------------------------------------------------
# Convolution backward-data (ConvolutionLayer._backward_data_chunk):
# dcol = W_g^T @ dY_g per sample and group, folded back by col2im
# ----------------------------------------------------------------------
def conv_backward_data_chunk(layer, top, bottom, lo: int, hi: int) -> None:
    dy = top[0].diff
    dx = bottom[0].diff
    weights = layer.blobs[0].data.reshape(layer.num_output, -1)
    _, _, in_h, in_w = bottom[0].shape
    cg = layer.channels // layer.group
    og = layer.num_output // layer.group
    dcol = np.empty(layer._col_shape, DTYPE)
    for s in range(lo, hi):
        dy_s = dy[s].reshape(layer.num_output, -1)
        for g in range(layer.group):
            blaslib.gemm(True, False, 1.0, weights[g * og : (g + 1) * og],
                         dy_s[g * og : (g + 1) * og], 0.0, dcol)
            blaslib.col2im(
                dcol, cg, in_h, in_w, layer.kernel_h, layer.kernel_w,
                layer.pad_h, layer.pad_w, layer.stride_h, layer.stride_w,
                out=dx[s, g * cg : (g + 1) * cg],
            )


# ----------------------------------------------------------------------
# Convolution forward and backward-data correlation
# (ConvolutionLayer.forward_chunk / _backward_data_chunk): one exact
# im2col + gemm straight into the top / bottom blob per sample and group
# ----------------------------------------------------------------------
def conv_forward_chunk(layer, bottom, top, lo: int, hi: int) -> None:
    x = bottom[0].data
    y = top[0].data
    weights = layer.blobs[0].data.reshape(layer.num_output, -1)
    col = np.empty(layer._col_shape, DTYPE)
    cg = layer.channels // layer.group
    og = layer.num_output // layer.group
    for s in range(lo, hi):
        for g in range(layer.group):
            blaslib.im2col(
                x[s, g * cg : (g + 1) * cg],
                layer.kernel_h, layer.kernel_w, layer.pad_h, layer.pad_w,
                layer.stride_h, layer.stride_w, out=col,
            )
            blaslib.gemm(False, False, 1.0, weights[g * og : (g + 1) * og],
                         col, 0.0, y[s, g * og : (g + 1) * og].reshape(og, -1))
        if layer.bias_term:
            y[s] += layer.blobs[1].data[:, None, None]


def conv_correlation_data_chunk(layer, top, bottom, lo: int, hi: int) -> None:
    """dX_g = W_rot[g] @ im2col(interleaved dY plane), stride 1, no pad."""
    dy = top[0].diff
    dx = bottom[0].diff
    _, _, in_h, in_w = bottom[0].shape
    cg = layer.channels // layer.group
    og = layer.num_output // layer.group
    kh, kw = layer.kernel_h, layer.kernel_w
    wrot = np.ascontiguousarray(
        layer.blobs[0].data.reshape(layer.group, og, cg, kh, kw)
        [..., ::-1, ::-1].transpose(0, 2, 1, 3, 4)
    ).reshape(layer.group, cg, og * kh * kw)
    plane = np.zeros((og, in_h + kh - 1, in_w + kw - 1), DTYPE)
    plane_h, top_h = layer._dy_rows
    plane_w, top_w = layer._dy_cols
    for s in range(lo, hi):
        for g in range(layer.group):
            plane[:, plane_h, plane_w] = (
                dy[s, g * og : (g + 1) * og, top_h, top_w])
            cols = blaslib.im2col(plane, kh, kw, 0, 0, 1, 1)
            blaslib.gemm(False, False, 1.0, wrot[g], cols, 0.0,
                         dx[s, g * cg : (g + 1) * cg].reshape(cg, -1))


# ----------------------------------------------------------------------
# InnerProduct (forward_chunk / _backward_data_chunk /
# _backward_weight_rows), tolerance generation: one gemv per sample, one
# per output row
# ----------------------------------------------------------------------
def ip_forward_chunk(layer, bottom, top, lo: int, hi: int) -> None:
    x = bottom[0].flat_data.reshape(layer.outer, layer.inner)
    y = top[0].flat_data.reshape(layer.outer, layer.num_output)
    weights = layer.blobs[0].data
    bias = layer.blobs[1].data if layer.bias_term else None
    for s in range(lo, hi):
        blaslib.gemv(False, 1.0, weights, x[s], 0.0, y[s])
        if bias is not None:
            y[s] += bias


def ip_backward_data_chunk(layer, top, bottom, lo: int, hi: int) -> None:
    dy = top[0].flat_diff.reshape(layer.outer, layer.num_output)
    dx = bottom[0].flat_diff.reshape(layer.outer, layer.inner)
    weights = layer.blobs[0].data
    for s in range(lo, hi):
        blaslib.gemv(True, 1.0, weights, dy[s], 0.0, dx[s])


def ip_backward_weight_rows(layer, top, bottom, lo: int, hi: int) -> None:
    x = bottom[0].flat_data.reshape(layer.outer, layer.inner)
    dy = top[0].flat_diff.reshape(layer.outer, layer.num_output)
    dweights = layer.blobs[0].flat_diff.reshape(layer.num_output, layer.inner)
    dbias = layer.blobs[1].flat_diff if layer.bias_term else None
    for row in range(lo, hi):
        dy_row = np.ascontiguousarray(dy[:, row])
        blaslib.gemv(True, 1.0, x, dy_row, 1.0, dweights[row])
        if dbias is not None:
            dbias[row] += dy_row.sum()


# ----------------------------------------------------------------------
# InnerProduct (forward_chunk / _backward_data_chunk /
# _backward_weight_rows), bitwise generation: one 2-D gemm per aligned
# block of IP_BLOCK samples or output rows, computed whole into scratch,
# only the chunk's own rows stored
# ----------------------------------------------------------------------
def ip_block_forward_chunk(layer, bottom, top, lo: int, hi: int) -> None:
    x = bottom[0].flat_data.reshape(layer.outer, layer.inner)
    y = top[0].flat_data.reshape(layer.outer, layer.num_output)
    weights = layer.blobs[0].data
    bias = layer.blobs[1].data if layer.bias_term else None
    yt = scratch_buffer("ip.yt", (layer.num_output, IP_BLOCK))
    for start in range(lo - lo % IP_BLOCK, hi, IP_BLOCK):
        stop = min(start + IP_BLOCK, layer.outer)
        if stop - start != IP_BLOCK:  # ragged last block: its own shape
            yt = scratch_buffer("ip.yt", (layer.num_output, stop - start))
        blaslib.gemm(False, True, 1.0, weights, x[start:stop], 0.0, yt)
        own = slice(max(start, lo) - start, min(stop, hi) - start)
        if bias is None:
            y[max(start, lo) : min(stop, hi)] = yt.T[own]
        else:
            np.add(yt.T[own], bias, out=y[max(start, lo) : min(stop, hi)])


def ip_block_backward_data_chunk(layer, top, bottom, lo: int,
                                 hi: int) -> None:
    dy = top[0].flat_diff.reshape(layer.outer, layer.num_output)
    dx = bottom[0].flat_diff.reshape(layer.outer, layer.inner)
    weights = layer.blobs[0].data
    dx_blk = scratch_buffer("ip.dx", (IP_BLOCK, layer.inner))
    for start in range(lo - lo % IP_BLOCK, hi, IP_BLOCK):
        stop = min(start + IP_BLOCK, layer.outer)
        if stop - start != IP_BLOCK:
            dx_blk = scratch_buffer("ip.dx", (stop - start, layer.inner))
        blaslib.gemm(False, False, 1.0, dy[start:stop], weights, 0.0,
                     dx_blk)
        own = slice(max(start, lo) - start, min(stop, hi) - start)
        dx[max(start, lo) : min(stop, hi)] = dx_blk[own]


def ip_block_backward_weight_rows(layer, top, bottom, lo: int,
                                  hi: int) -> None:
    x = bottom[0].flat_data.reshape(layer.outer, layer.inner)
    dy = top[0].flat_diff.reshape(layer.outer, layer.num_output)
    dweights = layer.blobs[0].flat_diff.reshape(layer.num_output, layer.inner)
    dbias = layer.blobs[1].flat_diff if layer.bias_term else None
    dw_blk = scratch_buffer("ip.dw", (IP_BLOCK, layer.inner))
    for start in range(lo - lo % IP_BLOCK, hi, IP_BLOCK):
        stop = min(start + IP_BLOCK, layer.num_output)
        if stop - start != IP_BLOCK:
            dw_blk = scratch_buffer("ip.dw", (stop - start, layer.inner))
        dy_blk = dy[:, start:stop]
        blaslib.gemm(True, False, 1.0, dy_blk, x, 0.0, dw_blk)
        own = slice(max(start, lo) - start, min(stop, hi) - start)
        dweights[max(start, lo) : min(stop, hi)] += dw_blk[own]
        if dbias is not None:
            dbias[max(start, lo) : min(stop, hi)] += dy_blk.sum(axis=0)[own]


# ----------------------------------------------------------------------
# AVE pooling forward (PoolingLayer.forward_chunk, AVE branch)
# ----------------------------------------------------------------------
def ave_pool_forward_chunk(layer, bottom, top, lo: int, hi: int) -> None:
    """``sum`` over the two window axes of the strided window view."""
    planes = bottom[0].data.reshape(-1, layer.in_h, layer.in_w)[lo:hi]
    out = top[0].data.reshape(-1, layer.out_h, layer.out_w)[lo:hi]
    if hi - lo <= 0:
        return
    windows = _windows(layer, _padded_planes(layer, planes, 0.0))
    sums = windows.sum(axis=(3, 4), dtype=DTYPE)
    np.divide(sums, layer._ave_divisor[None], out=out)


# ----------------------------------------------------------------------
# LRN (LRNLayer.forward_chunk / backward_chunk): float64 prefix sums
# ----------------------------------------------------------------------
def _lrn_window_sum(layer, per_channel: np.ndarray) -> np.ndarray:
    half = layer.local_size // 2
    c = per_channel.shape[1]
    shape = list(per_channel.shape)
    shape[1] = c + 2 * half
    padded = np.zeros(shape, dtype=np.float64)
    padded[:, half : half + c] = per_channel
    # Prefix sums with a leading zero: ext[:, j] = sum(padded[:, :j]),
    # so the window [i, i + local_size) is ext[i + local_size] - ext[i].
    shape[1] = c + 2 * half + 1
    ext = np.zeros(shape, dtype=np.float64)
    np.cumsum(padded, axis=1, dtype=np.float64, out=ext[:, 1:])
    return ext[:, layer.local_size : layer.local_size + c] - ext[:, :c]


def lrn_forward_chunk(layer, bottom, top, lo: int, hi: int) -> None:
    x = bottom[0].data[lo:hi]
    y = top[0].data[lo:hi]
    sq = x.astype(np.float64) ** 2
    window = _lrn_window_sum(layer, sq)
    scale = layer.k + (layer.alpha / layer.local_size) * window
    layer._scale[lo:hi] = scale.astype(DTYPE)
    scale_pow = layer._scale_pow[lo:hi]
    np.power(layer._scale[lo:hi], -layer.beta, out=scale_pow)
    np.multiply(x, scale_pow, out=y)


def lrn_backward_chunk(layer, top, propagate_down, bottom,
                       lo: int, hi: int, param_grads) -> None:
    if not propagate_down[0]:
        return
    x = bottom[0].data[lo:hi]
    y = top[0].data[lo:hi]
    dy = top[0].diff[lo:hi]
    dx = bottom[0].diff[lo:hi]
    scale = layer._scale[lo:hi]
    ratio = (dy * y / scale).astype(np.float64)
    window = _lrn_window_sum(layer, ratio)
    coeff = 2.0 * layer.alpha * layer.beta / layer.local_size
    np.copyto(
        dx,
        (dy * layer._scale_pow[lo:hi]
         - coeff * x * window.astype(DTYPE)),
    )
