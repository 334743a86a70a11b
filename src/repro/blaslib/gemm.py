"""Level-3 BLAS kernel: general matrix-matrix product.

This is the workhorse behind Caffe's convolutional and inner-product
layers (``caffe_cpu_gemm``).  The coarse-grain parallelization treats a
``gemm`` product as an indivisible unit of work, which is why the
simulator tracks its flop count separately: convolutional layer time is
dominated by these products.  A call may carry a stack of them (the
InnerProduct layer hands over all of a chunk's sample blocks at once).
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

    ``op(X)`` swaps the last two axes of ``X`` when the corresponding
    ``trans_*`` flag is set.  Each operand is a matrix or a stack of
    matrices along one leading axis; a stacked call is one product per
    stack entry, ``C[i] = alpha * op(A[i]) @ op(B[i]) + beta * C[i]``,
    and a 2-D ``A`` or ``B`` is shared by every product.  numpy's
    ``matmul`` loop issues one BLAS ``sgemm`` per product, on the shapes
    and strides the 2-D call on ``A[i]``, ``B[i]``, ``C[i]`` would pass,
    so a stacked product has the bytes of that 2-D call.  One ``gemm``
    op is recorded per product, with that product's flops and bytes.
    Shapes are validated against the output ``C``: ``(m, n)``, or
    ``(products, m, n)`` when any operand is stacked.
    """
    products = (None if a.ndim == b.ndim == c.ndim == 2
                else _stack_length(a, b, c))
    op_a = a.swapaxes(-1, -2) if trans_a else a
    op_b = b.swapaxes(-1, -2) if trans_b else b
    m, k = op_a.shape[-2:]
    k2, n = op_b.shape[-2:]
    if k != k2:
        raise ValueError(
            f"gemm inner dimension mismatch: op(A) is {op_a.shape}, "
            f"op(B) is {op_b.shape}"
        )
    expected = (m, n) if products is None else (products, m, n)
    if c.shape != expected:
        raise ValueError(f"gemm C has shape {c.shape}, expected {expected}")

    record_op("gemm", 2 * m * n * k,
              m * k * a.itemsize + k * n * b.itemsize + 2 * m * n * c.itemsize,
              1 if products is None else products)
    if backend_name() == "reference":
        for i, c_i in enumerate(c[None] if products is None else c):
            _reference_product(alpha, op_a[i] if op_a.ndim == 3 else op_a,
                               op_b[i] if op_b.ndim == 3 else op_b, beta, c_i)
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


def _reference_product(alpha: float, op_a: np.ndarray, op_b: np.ndarray,
                       beta: float, c: np.ndarray) -> None:
    """One 2-D product, triple loop in Python floats."""
    m, k = op_a.shape
    n = op_b.shape[1]
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += float(op_a[i, p]) * float(op_b[p, j])
            # beta == 0 makes C write-only, as in BLAS: callers hand in
            # uninitialised scratch and NaN * 0 is NaN.
            c[i, j] = (alpha * acc if beta == 0.0
                       else alpha * acc + beta * c[i, j])


def _stack_length(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> int:
    """The number of products a call with a stacked operand makes."""
    lengths = {}
    for name, operand in (("A", a), ("B", b), ("C", c)):
        if operand.ndim not in (2, 3):
            raise ValueError(
                f"gemm operand {name} must be a matrix or a stack of "
                f"matrices (2-D or 3-D), got shape {operand.shape}"
            )
        if operand.ndim == 3:
            lengths[name] = len(operand)
    if len(set(lengths.values())) > 1:
        raise ValueError("gemm stack lengths differ: " + ", ".join(
            f"{name} has {count}" for name, count in lengths.items()))
    return next(iter(lengths.values()))
