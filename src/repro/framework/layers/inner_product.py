"""Inner product (fully connected) layer.

Treats the bottom blob as a matrix ``(S, inner)`` — all axes after the
batch axis are flattened — and computes ``Y = X @ W.T + b``.  The
coalesced iteration space is ``S``, but the unit of BLAS work is a
*block* of ``_BLOCK`` samples aligned at absolute multiples of
``_BLOCK`` (the ragged last block is its own fixed shape): one ``gemm``
per block, not one ``gemv`` per sample.

**Cut invariance.**  A chunk ``[lo, hi)`` walks every block it touches.
A block that a chunk edge cuts is still computed *whole* — same
operands, same shapes — into per-thread scratch, and only the rows in
``[lo, hi)`` are stored; an uncut block takes the same path.  So a
sample's value depends on its absolute block, never on the chunk that
computed it, and every schedule, thread count and plan yields the same
bytes.  The price is at most two redundant block GEMMs per chunk.

The backward pass is two reduction-free loops under the same rule:
bottom-gradient rows in blocks of samples (``dX_blk = dY_blk @ W``), and
weight/bias-gradient rows in blocks of ``_BLOCK`` *output rows*, each a
full-batch sum (``dW[r0:r1] += dY[:, r0:r1].T @ X``).  Neither needs a
privatized buffer or a merge (paper layers only privatize where a true
reduction exists — the convolutional layers).

Operand order is chosen by measurement, not algebra.  Forward computes
``W @ X_blk.T`` into a ``(num_output, B)`` scratch and stores its
transpose: at ``B = 8`` OpenBLAS runs ``X_blk @ W.T`` at about half that
speed on a wide layer (lenet ip1, 500 x 800; mlp fc1, 100 x 3072) and
gains only microseconds on a ten-row one.  ``dY_blk @ W`` and
``dY[:, r0:r1].T @ X`` are fastest as written.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import blaslib
from repro.compiler.scratch import scratch_buffer
from repro.framework.blob import Blob
from repro.framework.fillers import fill, stable_seed
from repro.framework.layer import (
    FootprintDecl,
    Layer,
    PerfDecl,
    RNGDecl,
    register_layer,
)
from repro.framework.layers.conv import _filler_spec
from repro.framework.shape_inference import (
    BlobInfo,
    RuleResult,
    canonical_axis,
    register_shape_rule,
)

#: Samples (or output rows) per BLAS call.  Blocks sit at absolute
#: multiples of it, which is what makes a value independent of the chunk
#: cut.  8 is serving's padded batch and leaves batch 64 with the eight
#: blocks the paper's ip1 curve (Fig. 5, flat beyond 8 threads) can use;
#: the Python loop, not the block width, was the cost.
_BLOCK = 8


@register_layer("InnerProduct")
class InnerProductLayer(Layer):
    """Fully connected layer.

    Parameters (``inner_product_param``): ``num_output``, ``bias_term``
    (default true), ``axis`` (default 1), ``weight_filler``,
    ``bias_filler``.
    """

    exact_num_bottom = 1
    exact_num_top = 1

    write_footprint = FootprintDecl()

    perf_decl = PerfDecl(
        loops=("forward_chunk", "_backward_data_chunk",
               "_backward_weight_rows"),
        note=(
            "one gemm per aligned block of _BLOCK coalesced iterations "
            "is the chunking design (priced as segments dispatch by the "
            "cost model): sample blocks in forward/backward-data, "
            "output-row blocks in backward-weight"
        ),
    )

    rng_provenance = RNGDecl(seed_params=("filler_seed",),
                             fallback="stable_digest")

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
        yt = scratch_buffer("ip.yt", (self.num_output, _BLOCK))
        for start in range(lo - lo % _BLOCK, hi, _BLOCK):
            stop = min(start + _BLOCK, self.outer)
            if stop - start != _BLOCK:  # ragged last block: its own shape
                yt = scratch_buffer("ip.yt", (self.num_output, stop - start))
            # (W @ X_blk.T).T rather than X_blk @ W.T: module docstring.
            blaslib.gemm(False, True, 1.0, weights, x[start:stop], 0.0, yt)
            own = slice(max(start, lo) - start, min(stop, hi) - start)
            if bias is None:
                y[max(start, lo) : min(stop, hi)] = yt.T[own]
            else:
                np.add(yt.T[own], bias, out=y[max(start, lo) : min(stop, hi)])

    def _backward_data_chunk(
        self, top: Sequence[Blob], bottom: Sequence[Blob], lo: int, hi: int
    ) -> None:
        """Bottom-gradient rows for samples ``[lo, hi)`` (disjoint):
        ``dX_blk = dY_blk @ W`` per aligned block of samples."""
        dy = top[0].flat_diff.reshape(self.outer, self.num_output)
        dx = bottom[0].flat_diff.reshape(self.outer, self.inner)
        weights = self.blobs[0].data
        dx_blk = scratch_buffer("ip.dx", (_BLOCK, self.inner))
        for start in range(lo - lo % _BLOCK, hi, _BLOCK):
            stop = min(start + _BLOCK, self.outer)
            if stop - start != _BLOCK:
                dx_blk = scratch_buffer("ip.dx", (stop - start, self.inner))
            blaslib.gemm(False, False, 1.0, dy[start:stop], weights, 0.0,
                         dx_blk)
            own = slice(max(start, lo) - start, min(stop, hi) - start)
            dx[max(start, lo) : min(stop, hi)] = dx_blk[own]

    def _backward_weight_rows(self, top: Sequence[Blob],
                              bottom: Sequence[Blob], lo: int, hi: int) -> None:
        """Weight/bias gradient rows ``[lo, hi)``, each a full-batch sum.

        Rows are computed in aligned blocks of ``_BLOCK`` output rows,
        ``dY[:, r0:r1].T @ X`` over the whole batch, so this loop needs
        no reduction and a row's value is independent of how rows are
        chunked across threads.  (A single chunk-wide ``gemm`` would let
        BLAS re-block the inner sum per chunk shape, breaking that
        invariance.)  The bias sum is taken per block for the same
        reason: numpy reduces a one-column slice pairwise and a wider
        one row by row.
        """
        x = bottom[0].flat_data.reshape(self.outer, self.inner)
        dy = top[0].flat_diff.reshape(self.outer, self.num_output)
        dweights = self.blobs[0].flat_diff.reshape(self.num_output, self.inner)
        dbias = self.blobs[1].flat_diff if self.bias_term else None
        dw_blk = scratch_buffer("ip.dw", (_BLOCK, self.inner))
        for start in range(lo - lo % _BLOCK, hi, _BLOCK):
            stop = min(start + _BLOCK, self.num_output)
            if stop - start != _BLOCK:
                dw_blk = scratch_buffer("ip.dw", (stop - start, self.inner))
            dy_blk = dy[:, start:stop]
            blaslib.gemm(True, False, 1.0, dy_blk, x, 0.0, dw_blk)
            own = slice(max(start, lo) - start, min(stop, hi) - start)
            dweights[max(start, lo) : min(stop, hi)] += dw_blk[own]
            if dbias is not None:
                dbias[max(start, lo) : min(stop, hi)] += (
                    dy_blk.sum(axis=0)[own])

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
