"""Inner product (fully connected) layer.

Treats the bottom blob as a matrix ``(S, inner)`` — all axes after the
batch axis are flattened — and computes ``Y = X @ W.T + b``.  The
coalesced iteration space is ``S``, but the unit of BLAS work is a
*block* of ``_BLOCK`` samples aligned at absolute multiples of
``_BLOCK`` (the ragged last block is its own fixed shape): one ``gemm``
product per block, not one ``gemv`` per sample.  A chunk hands BLAS all
of its whole blocks in one stacked ``gemm`` call (numpy's ``matmul``
loop issues one ``sgemm`` per block, on the block's own operands), plus
one call for the ragged last block when it reaches it — no Python loop
over blocks.

**Cut invariance.**  A chunk ``[lo, hi)`` computes every block it
touches.  A block that a chunk edge cuts is still computed *whole* —
same operands, same shapes — into per-thread scratch, and only the rows
in ``[lo, hi)`` are stored; an uncut block takes the same path.  So a
sample's value depends on its absolute block, never on the chunk that
computed it or on how many blocks shared its call, and every schedule,
thread count and plan yields the same bytes.  The price is at most two
redundant block products per chunk.

The backward pass is two reduction-free loops under the same rule:
bottom-gradient rows in blocks of samples (``dX_blk = dY_blk @ W``), and
weight/bias-gradient rows in blocks of ``_BLOCK`` *output rows*, each a
full-batch sum (``dW[r0:r1] += dY[:, r0:r1].T @ X``).  Neither needs a
privatized buffer or a merge (paper layers only privatize where a true
reduction exists — the convolutional layers).

Operand order is chosen by measurement, not algebra.  Forward computes
``W @ X_blk.T`` into a ``(blocks, num_output, B)`` scratch and stores
its transpose: at ``B = 8`` OpenBLAS runs ``X_blk @ W.T`` at about half
that speed on a wide layer (lenet ip1, 500 x 800; mlp fc1, 100 x 3072)
and gains only microseconds on a ten-row one.  ``dY_blk @ W`` and
``dY[:, r0:r1].T @ X`` are fastest as written.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro import blaslib
from repro.compiler.scratch import scratch_buffer
from repro.framework.blob import Blob
from repro.framework.fillers import fill, stable_seed
from repro.framework.layer import Layer, LayerContract, register_layer
from repro.framework.layers.conv import _filler_spec
from repro.framework.shape_inference import (
    BlobInfo,
    RuleResult,
    canonical_axis,
    register_shape_rule,
)

#: Samples (or output rows) per BLAS product.  Blocks sit at absolute
#: multiples of it, which is what makes a value independent of the chunk
#: cut.  8 is serving's padded batch and leaves batch 64 with the eight
#: blocks the paper's ip1 curve (Fig. 5, flat beyond 8 threads) can use;
#: the Python loop over blocks, not the block width, was the cost.
_BLOCK = 8


def _stacks(lo: int, hi: int, size: int) -> List[Tuple[int, int, int]]:
    """The aligned blocks chunk ``[lo, hi)`` of a ``size``-long space
    touches, as at most two stacks ``(start, stop, width)``: every whole
    block of ``_BLOCK``, then the ragged last block if the chunk reaches
    it.  Each stack is one ``gemm`` call of ``(stop - start) // width``
    products."""
    first = lo - lo % _BLOCK
    whole = min(hi + -hi % _BLOCK, size - size % _BLOCK)
    stacks = [(first, whole, _BLOCK)] if whole > first else []
    if hi > whole:
        stacks.append((whole, size, size - whole))
    return stacks


@register_layer("InnerProduct")
class InnerProductLayer(Layer):
    """Fully connected layer.

    Parameters (``inner_product_param``): ``num_output``, ``bias_term``
    (default true), ``axis`` (default 1), ``weight_filler``,
    ``bias_filler``.
    """

    exact_num_bottom = 1
    exact_num_top = 1

    contract = LayerContract(
        seed_params=("filler_seed",),
        fallback="stable_digest",
    )

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        spec = self.spec
        self.bias_term = bool(spec.param("bias_term", True))
        weight_shape = self.geometry.param_shapes[0]
        self.num_output, self.inner = weight_shape

        rng = np.random.default_rng(
            int(spec.param("filler_seed", 0)) or stable_seed(self.name)
        )
        weights = Blob(weight_shape, name=f"{self.name}.weights")
        fill(weights, _filler_spec(spec.param("weight_filler")), rng)
        self.blobs = [weights]
        if self.bias_term:
            bias = Blob(self.geometry.param_shapes[1],
                        name=f"{self.name}.bias")
            fill(bias, _filler_spec(spec.param("bias_filler")), rng)
            self.blobs.append(bias)

    def shape_changed(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        self.outer = self.geometry.forward_space

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        x = bottom[0].flat_data.reshape(self.outer, self.inner)
        y = top[0].flat_data.reshape(self.outer, self.num_output)
        weights = self.blobs[0].data
        bias = self.blobs[1].data if self.bias_term else None
        for start, stop, width in _stacks(lo, hi, self.outer):
            blocks = (stop - start) // width
            yt = scratch_buffer("ip.yt", (blocks, self.num_output, width))
            # (W @ X_blk.T).T rather than X_blk @ W.T: module docstring.
            blaslib.gemm(False, True, 1.0, weights,
                         x[start:stop].reshape(blocks, width, self.inner),
                         0.0, yt)
            rows = scratch_buffer("ip.y", (blocks, width, self.num_output))
            if bias is None:
                np.copyto(rows, yt.transpose(0, 2, 1))
            else:
                np.add(yt.transpose(0, 2, 1), bias, out=rows)
            own = slice(max(start, lo) - start, min(stop, hi) - start)
            y[max(start, lo) : min(stop, hi)] = (
                rows.reshape(-1, self.num_output)[own])

    def _backward_data_chunk(
        self, top: Sequence[Blob], bottom: Sequence[Blob], lo: int, hi: int
    ) -> None:
        """Bottom-gradient rows for samples ``[lo, hi)`` (disjoint):
        ``dX_blk = dY_blk @ W`` per aligned block of samples."""
        dy = top[0].flat_diff.reshape(self.outer, self.num_output)
        dx = bottom[0].flat_diff.reshape(self.outer, self.inner)
        weights = self.blobs[0].data
        for start, stop, width in _stacks(lo, hi, self.outer):
            blocks = (stop - start) // width
            dx_blk = scratch_buffer("ip.dx", (blocks, width, self.inner))
            blaslib.gemm(False, False, 1.0,
                         dy[start:stop].reshape(blocks, width,
                                                self.num_output),
                         weights, 0.0, dx_blk)
            own = slice(max(start, lo) - start, min(stop, hi) - start)
            dx[max(start, lo) : min(stop, hi)] = (
                dx_blk.reshape(-1, self.inner)[own])

    def _backward_weight_rows(self, top: Sequence[Blob],
                              bottom: Sequence[Blob], lo: int, hi: int) -> None:
        """Weight/bias gradient rows ``[lo, hi)``, each a full-batch sum.

        Rows are computed in aligned blocks of ``_BLOCK`` output rows,
        ``dY[:, r0:r1].T @ X`` over the whole batch, so this loop needs
        no reduction and a row's value is independent of how rows are
        chunked across threads.  (A single chunk-wide product would let
        BLAS re-block the inner sum per chunk shape, breaking that
        invariance.)  The bias sum is taken per block for the same
        reason: numpy reduces a one-column slice pairwise and a wider
        one row by row, and a ``(batch, blocks, width)`` view sums each
        block's columns as the ``(batch, width)`` slice alone would.
        """
        x = bottom[0].flat_data.reshape(self.outer, self.inner)
        dy = top[0].flat_diff.reshape(self.outer, self.num_output)
        dweights = self.blobs[0].flat_diff.reshape(self.num_output, self.inner)
        dbias = self.blobs[1].flat_diff if self.bias_term else None
        for start, stop, width in _stacks(lo, hi, self.num_output):
            blocks = (stop - start) // width
            # (batch, blocks, width): block b is dY[:, r0:r1] of its rows.
            dy_blocks = dy[:, start:stop].reshape(self.outer, blocks, width)
            dw_blk = scratch_buffer("ip.dw", (blocks, width, self.inner))
            blaslib.gemm(True, False, 1.0, dy_blocks.transpose(1, 0, 2), x,
                         0.0, dw_blk)
            own = slice(max(start, lo) - start, min(stop, hi) - start)
            dweights[max(start, lo) : min(stop, hi)] += (
                dw_blk.reshape(-1, self.inner)[own])
            if dbias is not None:
                dbias[max(start, lo) : min(stop, hi)] += (
                    dy_blocks.sum(axis=0).reshape(-1)[own])

    def backward_loops(self, top, propagate_down, bottom):
        """Two reduction-free loops: bottom grads over sample rows, weight
        grads over output rows."""
        from repro.framework.layer import LoopSpec

        loops = []
        if propagate_down[0]:
            loops.append(LoopSpec(
                space=self.outer,
                body=lambda lo, hi, grads: self._backward_data_chunk(
                    top, bottom, lo, hi
                ),
            ))
        loops.append(LoopSpec(
            space=self.num_output,
            body=lambda lo, hi, grads: self._backward_weight_rows(
                top, bottom, lo, hi
            ),
        ))
        return loops


@register_shape_rule("InnerProduct")
def _ip_shape_rule(spec, bottoms) -> RuleResult:
    num_output = int(spec.require("num_output"))
    axis = canonical_axis(spec, bottoms[0], int(spec.param("axis", 1)))
    shape = bottoms[0].shape
    inner = 1
    for dim in shape[axis:]:
        inner *= dim
    outer = 1
    for dim in shape[:axis]:
        outer *= dim
    param_shapes = [(num_output, inner)]
    if bool(spec.param("bias_term", True)):
        param_shapes.append((num_output,))
    return RuleResult(
        tops=[BlobInfo(tuple(shape[:axis]) + (num_output,))],
        forward_space=outer,
        param_shapes=param_shapes,
    )
