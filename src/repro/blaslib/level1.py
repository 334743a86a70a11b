"""Level-1 BLAS kernels (vector-vector operations).

All kernels operate in place on the output operand where BLAS semantics
call for it, mirroring the `caffe_axpy` / `caffe_scal` / ... helpers that
Caffe's layers invoke.  Inputs are validated to be 1-D views of the same
length; callers pass ``blob.data.ravel()`` slices.
"""

from __future__ import annotations

import numpy as np

from repro.blaslib.dispatch import record_op


def _check_vectors(*vecs: np.ndarray) -> int:
    n = None
    for v in vecs:
        if v.ndim != 1:
            raise ValueError(f"level-1 BLAS operand must be 1-D, got shape {v.shape}")
        if n is None:
            n = v.shape[0]
        elif v.shape[0] != n:
            raise ValueError(
                f"level-1 BLAS operand length mismatch: {v.shape[0]} vs {n}"
            )
    return 0 if n is None else n


def axpy(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``y += alpha * x`` in place; returns ``y``."""
    n = _check_vectors(x, y)
    record_op("axpy", 2 * n, x.nbytes + 2 * y.nbytes)
    if alpha == 1.0:
        y += x
    else:
        y += alpha * x
    return y


def axpby(alpha: float, x: np.ndarray, beta: float, y: np.ndarray) -> np.ndarray:
    """``y = alpha * x + beta * y`` in place; returns ``y``."""
    n = _check_vectors(x, y)
    record_op("axpby", 3 * n, x.nbytes + 2 * y.nbytes)
    y *= beta
    y += alpha * x
    return y


def scal(alpha: float, x: np.ndarray) -> np.ndarray:
    """``x *= alpha`` in place; returns ``x``."""
    n = _check_vectors(x)
    record_op("scal", n, 2 * x.nbytes)
    x *= alpha
    return x


def set_scalar(alpha: float, x: np.ndarray) -> np.ndarray:
    """``x[:] = alpha`` (Caffe's ``caffe_set``); returns ``x``."""
    _check_vectors(x)
    record_op("set", 0, x.nbytes)
    x.fill(alpha)
    return x


def copy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``y[:] = x`` (Caffe's ``caffe_copy``); returns ``y``."""
    _check_vectors(x, y)
    record_op("copy", 0, x.nbytes + y.nbytes)
    np.copyto(y, x)
    return y


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """Inner product ``x . y``."""
    n = _check_vectors(x, y)
    record_op("dot", 2 * n, x.nbytes + y.nbytes)
    return float(np.dot(x, y))


def asum(x: np.ndarray) -> float:
    """Sum of absolute values (BLAS ``asum``)."""
    n = _check_vectors(x)
    record_op("asum", n, x.nbytes)
    return float(np.sum(np.abs(x)))


def nrm2(x: np.ndarray) -> float:
    """Euclidean norm (BLAS ``nrm2``)."""
    n = _check_vectors(x)
    record_op("nrm2", 2 * n, x.nbytes)
    return float(np.linalg.norm(x))
