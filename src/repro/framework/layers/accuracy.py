"""Accuracy layer: top-k classification accuracy over a batch.

Test-phase only (no backward).  Like the loss layers it reduces over the
batch, so chunks fill a per-sample hit scratch and the finalize hook folds
it in fixed order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.framework.blob import DTYPE, Blob
from repro.framework.layer import Layer, LayerContract, register_layer
from repro.framework.layers.loss import _score_batch
from repro.framework.shape_inference import (
    BlobInfo,
    RuleResult,
    ShapeError,
    register_shape_rule,
)


@register_layer("Accuracy")
class AccuracyLayer(Layer):
    """Fraction of samples whose label is within the top-k predictions.

    Parameters (``accuracy_param``): ``top_k`` (default 1),
    ``ignore_label``.
    """

    exact_num_bottom = 2
    exact_num_top = 1

    contract = LayerContract(
        scratch=("_hits", "_valid"),
        float64=("forward_chunk",),
        allocs=("forward_chunk",),
        note=(
            "per-sample hit partials are float64 so the finalize fold is "
            "exact in any chunk order; the per-chunk index/mask vectors "
            "are O(chunk) int/bool temporaries, far below the pooling "
            "break-even"
        ),
    )

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        self.top_k = int(self.spec.param("top_k", 1))
        self.ignore_label = self.spec.param("ignore_label")
        if self.ignore_label is not None:
            self.ignore_label = int(self.ignore_label)

    def shape_changed(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        # Per-sample arrays: every forward chunk overwrites its rows.
        batch = bottom[0].shape[0]
        self._hits = np.zeros(batch, dtype=np.float64)
        self._valid = np.ones(batch, dtype=bool)

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        batch = bottom[0].shape[0]
        scores = bottom[0].flat_data.reshape(batch, -1)[lo:hi]
        labels = bottom[1].flat_data[lo:hi].astype(np.int64)
        if self.top_k == 1:
            predictions = scores.argmax(axis=1)
            hits = (predictions == labels).astype(np.float64)
        else:
            # Indices of the top-k scores per row (order irrelevant).
            topk = np.argpartition(-scores, self.top_k - 1, axis=1)[:, : self.top_k]
            hits = (topk == labels[:, None]).any(axis=1).astype(np.float64)
        valid = np.ones(hi - lo, dtype=bool)
        if self.ignore_label is not None:
            valid = labels != self.ignore_label
            hits = np.where(valid, hits, 0.0)
        self._hits[lo:hi] = hits
        self._valid[lo:hi] = valid

    def forward_finalize(
        self, bottom: Sequence[Blob], top: Sequence[Blob]
    ) -> None:
        valid = int(self._valid.sum())
        total = 0.0
        for s in range(bottom[0].shape[0]):
            total += self._hits[s]
        top[0].flat_data[0] = DTYPE(total / max(valid, 1))

    def backward_chunk(self, *args, **kwargs) -> None:
        raise RuntimeError(
            f"layer {self.name!r}: Accuracy has no backward pass"
        )


@register_shape_rule("Accuracy", terminal_ok=True)
def _accuracy_shape_rule(spec, bottoms) -> RuleResult:
    if len(bottoms) != 2:
        raise ShapeError(
            f"layer {spec.name!r}: needs 2 bottoms (scores, labels), "
            f"got {len(bottoms)}"
        )
    batch = _score_batch(spec, bottoms)
    classes = bottoms[0].count // batch
    top_k = int(spec.param("top_k", 1))
    if top_k > classes:
        raise ShapeError(
            f"layer {spec.name!r}: top_k {top_k} exceeds class count "
            f"{classes}"
        )
    return RuleResult(tops=[BlobInfo(())], forward_space=batch)
