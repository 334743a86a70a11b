"""Level-3 BLAS kernel: general matrix-matrix product.

This is the workhorse behind Caffe's convolutional and inner-product
layers (``caffe_cpu_gemm``).  The coarse-grain parallelization treats a
``gemm`` call as an indivisible unit of work, which is why the simulator
tracks its flop count separately: convolutional layer time is dominated by
these calls.
"""

from __future__ import annotations

import numpy as np

from repro.blaslib.dispatch import backend_name, record_op


def gemm(
    trans_a: bool,
    trans_b: bool,
    alpha: float,
    a: np.ndarray,
    b: np.ndarray,
    beta: float,
    c: np.ndarray,
) -> np.ndarray:
    """``C = alpha * op(A) @ op(B) + beta * C`` in place; returns ``C``.

    ``op(X)`` is ``X.T`` when the corresponding ``trans_*`` flag is set.
    Shapes are validated against the output ``C`` of shape ``(m, n)``.
    """
    if a.ndim != 2 or b.ndim != 2 or c.ndim != 2:
        raise ValueError(
            "gemm expects 2-D operands, got shapes "
            f"{a.shape}, {b.shape}, {c.shape}"
        )
    op_a = a.T if trans_a else a
    op_b = b.T if trans_b else b
    m, k = op_a.shape
    k2, n = op_b.shape
    if k != k2:
        raise ValueError(
            f"gemm inner dimension mismatch: op(A) is {op_a.shape}, "
            f"op(B) is {op_b.shape}"
        )
    if c.shape != (m, n):
        raise ValueError(f"gemm C has shape {c.shape}, expected ({m}, {n})")

    record_op("gemm", 2 * m * n * k, a.nbytes + b.nbytes + 2 * c.nbytes)
    if backend_name() == "reference":
        for i in range(m):
            for j in range(n):
                acc = 0.0
                for p in range(k):
                    acc += float(op_a[i, p]) * float(op_b[p, j])
                # beta == 0 makes C write-only, as in BLAS: callers hand
                # in uninitialised scratch and NaN * 0 is NaN.
                c[i, j] = (alpha * acc if beta == 0.0
                           else alpha * acc + beta * c[i, j])
        return c

    if beta == 0.0:
        if alpha == 1.0 and c.flags["C_CONTIGUOUS"]:
            np.matmul(op_a, op_b, out=c)
        else:
            product = op_a @ op_b
            # Scaling by one changes no bit: skip the scaled temporary.
            np.copyto(c, product if alpha == 1.0 else alpha * product)
    elif alpha == 1.0 and beta == 1.0:
        # Plain accumulation (every dW update): scaling by one changes no
        # bit, so skip both passes and the scaled temporary.
        c += op_a @ op_b
    else:
        c *= beta
        c += alpha * (op_a @ op_b)
    return c
