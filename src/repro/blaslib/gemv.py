"""Level-2 BLAS kernels: general matrix-vector product and rank-1 update."""

from __future__ import annotations

import numpy as np

from repro.blaslib.dispatch import record_op


def gemv(
    trans: bool,
    alpha: float,
    a: np.ndarray,
    x: np.ndarray,
    beta: float,
    y: np.ndarray,
) -> np.ndarray:
    """``y = alpha * op(A) @ x + beta * y`` in place; returns ``y``.

    Parameters
    ----------
    trans:
        When true, ``op(A) = A.T``; otherwise ``op(A) = A``.
    a:
        2-D matrix of shape ``(m, n)``.
    x:
        Vector of length ``n`` (``m`` when transposed).
    y:
        Output vector of length ``m`` (``n`` when transposed).
    """
    if a.ndim != 2:
        raise ValueError(f"gemv expects a 2-D matrix, got shape {a.shape}")
    m, n = a.shape
    in_len, out_len = (m, n) if trans else (n, m)
    if x.shape != (in_len,):
        raise ValueError(f"gemv x has shape {x.shape}, expected ({in_len},)")
    if y.shape != (out_len,):
        raise ValueError(f"gemv y has shape {y.shape}, expected ({out_len},)")

    record_op("gemv", 2 * m * n, a.nbytes + x.nbytes + 2 * y.nbytes)
    op_a = a.T if trans else a
    if beta == 0.0:
        product = op_a @ x
        # Scaling by one changes no bit: skip the scaled temporary.
        np.copyto(y, product if alpha == 1.0 else alpha * product)
    else:
        y *= beta
        y += alpha * (op_a @ x)
    return y


def ger(alpha: float, x: np.ndarray, y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Rank-1 update ``A += alpha * outer(x, y)`` in place; returns ``A``."""
    if a.ndim != 2:
        raise ValueError(f"ger expects a 2-D matrix, got shape {a.shape}")
    m, n = a.shape
    if x.shape != (m,):
        raise ValueError(f"ger x has shape {x.shape}, expected ({m},)")
    if y.shape != (n,):
        raise ValueError(f"ger y has shape {y.shape}, expected ({n},)")

    record_op("ger", 2 * m * n, x.nbytes + y.nbytes + 2 * a.nbytes)
    a += alpha * np.outer(x, y)
    return a
