"""BLAS substrate for the reproduction.

Caffe delegates the inner computation of every layer to a Basic Linear
Algebra Subprograms (BLAS) implementation (OpenBLAS in the paper's setup).
The coarse-grain parallelization deliberately *never* reaches inside a BLAS
call: a BLAS invocation on one blob segment is the unit of work.

This package provides that surface:

* Level 1: :func:`axpy`, :func:`axpby`, :func:`scal`, :func:`dot`,
  :func:`asum`, :func:`nrm2`, :func:`copy`, :func:`set_scalar`.
* Level 2: :func:`gemv`, :func:`ger`.
* Level 3: :func:`gemm`, on matrices or on a stack of them along one
  leading axis (InnerProduct hands over a chunk's sample blocks in one
  call); each product of a stack is issued to BLAS, and accounted, as
  its own 2-D call would be.
* Convolution lowering: :func:`im2col` (on one image or a stack of
  them, copied in two stages of long runs), :func:`im2col_runs`,
  :func:`col2im`.  Convolution's forward, weight gradient and
  backward-data all read exact ``im2col`` columns.  No layer calls
  ``im2col_runs`` (row runs of the padded plane with discarded columns,
  which backward-data used to read) or ``col2im`` (convolution's
  backward-data is a correlation); they are kept with their tests,
  ``col2im`` as the tested adjoint of ``im2col`` and the reference that
  correlation is checked against.

Each kernel has one implementation, vectorized with numpy.  The tests
check it against independent pure-Python loops that live with them
(``tests/_oracle_kernels.py``), never in this package.

Every call — every product, for a stacked :func:`gemm` — is accounted in
:class:`~repro.blaslib.dispatch.OpCounter` so the performance simulator
can derive operation counts from real executions.
"""

from repro.blaslib.dispatch import OpCounter, op_counter
from repro.blaslib.level1 import (
    asum,
    axpby,
    axpy,
    copy,
    dot,
    nrm2,
    scal,
    set_scalar,
)
from repro.blaslib.gemv import gemv, ger
from repro.blaslib.gemm import gemm
from repro.blaslib.im2col import col2im, im2col, im2col_runs, runs_layout

__all__ = [
    "OpCounter",
    "asum",
    "axpby",
    "axpy",
    "col2im",
    "copy",
    "dot",
    "gemm",
    "gemv",
    "ger",
    "im2col",
    "im2col_runs",
    "nrm2",
    "op_counter",
    "runs_layout",
    "scal",
    "set_scalar",
]
