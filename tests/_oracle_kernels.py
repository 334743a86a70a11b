"""Frozen copies of the window kernels as they stood before PR 15.

Test-only: nothing under ``src/`` imports this module.  The production
kernels in ``repro.framework.layers.pooling`` and
``repro.blaslib.im2col`` were rewritten for speed under the promise that
their outputs stay byte-for-byte what these produce; the parity tests
hold them to it.  Every function has the call signature of the
production routine it froze, so a test can ``monkeypatch.setattr`` it
in and replay a whole training trajectory on the old kernels.

Do not "tidy" these: the k**2 copy, the per-plane ``np.add.at`` loop and
the double copy in ``im2col`` are the point.
"""

from __future__ import annotations

import numpy as np

from repro.blaslib.im2col import conv_out_size
from repro.framework.blob import DTYPE


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
