"""Inner product (fully connected) layer.

Treats the bottom blob as a matrix ``(S, inner)`` — all axes after the
batch axis are flattened — and computes ``Y = X @ W.T + b``.  The
coalesced iteration space is ``S``: one iteration is one sample's
``gemv``-sized product, and a chunk ``[lo, hi)`` is one ``gemm`` over the
chunk's rows.  The backward pass accumulates ``dW`` and ``db`` into the
privatized gradient buffers (Algorithm 5) and writes the chunk's rows of
the bottom diff directly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import blaslib
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


@register_layer("InnerProduct")
class InnerProductLayer(Layer):
    """Fully connected layer.

    Parameters (``inner_product_param``): ``num_output``, ``bias_term``
    (default true), ``axis`` (default 1), ``weight_filler``,
    ``bias_filler``.
    """

    exact_num_bottom = 1
    exact_num_top = 1

    # backward_loops() decomposes into reduction-free loops (bottom-grad
    # rows over samples, weight-grad rows over outputs), so the executed
    # footprint is sample-disjoint despite the generic backward_chunk.
    write_footprint = FootprintDecl()

    perf_decl = PerfDecl(
        loops=("forward_chunk", "_backward_data_chunk",
               "_backward_weight_rows"),
        copies=("_backward_weight_rows",),
        note=(
            "one gemv per coalesced iteration is the chunking design "
            "(priced as segments dispatch by the cost model): per-sample "
            "in forward/backward-data, per-output-row in backward-weight, "
            "where the strided dy column is copied contiguous because "
            "gemv requires a contiguous operand"
        ),
    )

    rng_provenance = RNGDecl(seed_params=("filler_seed",),
                             fallback="stable_digest")

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        spec = self.spec
        self.num_output = int(spec.require("num_output"))
        self.bias_term = bool(spec.param("bias_term", True))
        self.axis = bottom[0].canonical_axis(int(spec.param("axis", 1)))
        inner = 1
        for dim in bottom[0].shape[self.axis:]:
            inner *= dim
        self.inner = inner

        rng = np.random.default_rng(
            int(spec.param("filler_seed", 0)) or stable_seed(self.name)
        )
        weights = Blob((self.num_output, inner), name=f"{self.name}.weights")
        fill(weights, _filler_spec(spec.param("weight_filler")), rng)
        self.blobs = [weights]
        if self.bias_term:
            bias = Blob((self.num_output,), name=f"{self.name}.bias")
            fill(bias, _filler_spec(spec.param("bias_filler")), rng)
            self.blobs.append(bias)

    def reshape(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        inner = 1
        for dim in bottom[0].shape[self.axis:]:
            inner *= dim
        if inner != self.inner:
            raise ValueError(
                f"layer {self.name!r}: input inner size changed from "
                f"{self.inner} to {inner}"
            )
        self.outer = 1
        for dim in bottom[0].shape[: self.axis]:
            self.outer *= dim
        top[0].reshape(tuple(bottom[0].shape[: self.axis]) + (self.num_output,))

    def forward_space(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> int:
        return self.outer

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        # One fixed-shape gemv per sample (rather than one chunk-wide
        # gemm): the per-sample value is then independent of how samples
        # are chunked across threads, which the blockwise reduction's
        # bitwise thread-count invariance relies on.
        x = bottom[0].flat_data.reshape(self.outer, self.inner)
        y = top[0].flat_data.reshape(self.outer, self.num_output)
        weights = self.blobs[0].data
        bias = self.blobs[1].data if self.bias_term else None
        for s in range(lo, hi):
            blaslib.gemv(False, 1.0, weights, x[s], 0.0, y[s])
            if bias is not None:
                y[s] += bias

    def backward_chunk(
        self,
        top: Sequence[Blob],
        propagate_down: Sequence[bool],
        bottom: Sequence[Blob],
        lo: int,
        hi: int,
        param_grads: Sequence[np.ndarray],
    ) -> None:
        x = bottom[0].flat_data.reshape(self.outer, self.inner)[lo:hi]
        dy = top[0].flat_diff.reshape(self.outer, self.num_output)[lo:hi]
        dweights = param_grads[0].reshape(self.num_output, self.inner)
        # dW += dY^T @ X over the chunk's rows.
        blaslib.gemm(True, False, 1.0, dy, x, 1.0, dweights)
        if self.bias_term:
            param_grads[1] += dy.sum(axis=0)
        if propagate_down[0]:
            self._backward_data_chunk(top, bottom, lo, hi)

    def _backward_data_chunk(
        self, top: Sequence[Blob], bottom: Sequence[Blob], lo: int, hi: int
    ) -> None:
        """Bottom-gradient rows for samples ``[lo, hi)`` (disjoint).

        Per-sample gemv for the same chunking-invariance reason as
        :meth:`forward_chunk`.
        """
        dy = top[0].flat_diff.reshape(self.outer, self.num_output)
        dx = bottom[0].flat_diff.reshape(self.outer, self.inner)
        weights = self.blobs[0].data
        for s in range(lo, hi):
            blaslib.gemv(True, 1.0, weights, dy[s], 0.0, dx[s])

    def _backward_weight_rows(self, top: Sequence[Blob],
                              bottom: Sequence[Blob], lo: int, hi: int) -> None:
        """Weight/bias gradient rows ``[lo, hi)``, each a full-batch sum.

        Each row is computed by its own fixed-shape ``gemv`` over the
        whole batch, so the value is independent of how rows are chunked
        across threads — this backward loop needs no reduction and is
        bitwise identical for any thread count.  (A single chunk-wide
        ``gemm`` would be faster but lets BLAS re-block the inner sum per
        chunk shape, breaking that invariance.)
        """
        x = bottom[0].flat_data.reshape(self.outer, self.inner)
        dy = top[0].flat_diff.reshape(self.outer, self.num_output)
        dweights = self.blobs[0].flat_diff.reshape(self.num_output, self.inner)
        dbias = self.blobs[1].flat_diff if self.bias_term else None
        for row in range(lo, hi):
            dy_row = np.ascontiguousarray(dy[:, row])
            blaslib.gemv(True, 1.0, x, dy_row, 1.0, dweights[row])
            if dbias is not None:
                dbias[row] += dy_row.sum()

    def backward_loops(self, top, propagate_down, bottom):
        """Two reduction-free loops: bottom grads over sample rows, weight
        grads over output rows (paper layers only privatize where a true
        reduction exists — the convolutional layers)."""
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
    """Symbolic mirror of :meth:`InnerProductLayer.reshape`."""
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
