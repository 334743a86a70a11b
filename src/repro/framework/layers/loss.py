"""Loss layers: SoftmaxWithLoss and EuclideanLoss.

Loss layers end the forward pass of the paper's networks (the MNIST and
CIFAR-10 stacks both terminate in a SoftmaxWithLoss).  Their top blob is a
scalar reduction over the batch, which cannot be chunk-written disjointly;
instead :meth:`forward_chunk` fills a per-sample partial-loss scratch and
:meth:`forward_finalize` folds it in fixed sample order, so the loss value
is bitwise identical for any thread count — the observable quantity the
paper's convergence-invariance argument is about (developers monitor the
loss to validate training).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.framework.blob import DTYPE, Blob
from repro.framework.layer import Layer, LayerContract, register_layer
from repro.framework.shape_inference import (
    BlobInfo,
    RuleResult,
    ShapeError,
    register_shape_rule,
)


class LossLayer(Layer):
    """Base for loss layers: scalar top, default loss weight 1."""

    exact_num_bottom = 2
    exact_num_top = 1

    def default_loss_weight(self) -> float:
        return 1.0

    def shape_changed(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        # Per-sample arrays: every forward chunk overwrites its rows.
        self._per_sample = np.zeros(bottom[0].shape[0], dtype=np.float64)

    def forward_finalize(
        self, bottom: Sequence[Blob], top: Sequence[Blob]
    ) -> None:
        batch = bottom[0].shape[0]
        total = 0.0
        for s in range(batch):  # fixed order: bitwise thread-invariant
            total += self._per_sample[s]
        top[0].flat_data[0] = DTYPE(total / self._normalizer(batch))

    def _normalizer(self, batch: int) -> float:
        return float(batch)


@register_layer("SoftmaxWithLoss")
class SoftmaxWithLossLayer(LossLayer):
    """Softmax followed by multinomial logistic loss, fused (as in Caffe).

    Bottom 0 holds class scores ``(S, classes)`` (or 4-d with singleton
    spatial dims); bottom 1 holds integer labels ``(S,)``.  Supports
    ``ignore_label``.
    """

    contract = LayerContract(
        scratch=("_per_sample", "_prob", "_valid"),
        allocs=("forward_chunk", "backward_chunk"),
        note=(
            "label gathers need an np.arange row index and an "
            "ignore-label mask per chunk; both are O(chunk) int/bool "
            "vectors, far below the pooling break-even"
        ),
    )

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        self.ignore_label = self.spec.param("ignore_label")
        if self.ignore_label is not None:
            self.ignore_label = int(self.ignore_label)

    def shape_changed(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        super().shape_changed(bottom, top)
        batch = bottom[0].shape[0]
        classes = bottom[0].count // batch
        self._prob = np.zeros((batch, classes), dtype=DTYPE)
        self._valid = np.zeros(batch, dtype=bool)

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        batch = bottom[0].shape[0]
        scores = bottom[0].flat_data.reshape(batch, -1)[lo:hi]
        labels = bottom[1].flat_data[lo:hi].astype(np.int64)
        shifted = scores - scores.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        prob = exp / exp.sum(axis=1, keepdims=True)
        self._prob[lo:hi] = prob
        classes = prob.shape[1]
        if np.any(labels < 0) or np.any(labels >= classes):
            bad = labels[(labels < 0) | (labels >= classes)]
            if self.ignore_label is None or np.any(bad != self.ignore_label):
                raise ValueError(
                    f"layer {self.name!r}: label out of range "
                    f"[0, {classes}): {bad[:5]}"
                )
        rows = np.arange(hi - lo)
        valid = np.ones(hi - lo, dtype=bool)
        if self.ignore_label is not None:
            valid = labels != self.ignore_label
        self._valid[lo:hi] = valid
        picked = np.where(
            valid, prob[rows, np.clip(labels, 0, classes - 1)], 1.0
        )
        self._per_sample[lo:hi] = -np.log(np.maximum(picked, np.finfo(DTYPE).tiny))

    def _normalizer(self, batch: int) -> float:
        valid = int(self._valid.sum())
        return float(max(valid, 1))

    def backward_chunk(
        self,
        top: Sequence[Blob],
        propagate_down: Sequence[bool],
        bottom: Sequence[Blob],
        lo: int,
        hi: int,
        param_grads: Sequence[np.ndarray],
    ) -> None:
        if len(propagate_down) > 1 and propagate_down[1]:
            raise ValueError(
                f"layer {self.name!r}: cannot backpropagate to labels"
            )
        if not propagate_down[0]:
            return
        batch = bottom[0].shape[0]
        dscores = bottom[0].flat_diff.reshape(batch, -1)[lo:hi]
        labels = bottom[1].flat_data[lo:hi].astype(np.int64)
        prob = self._prob[lo:hi]
        valid = self._valid[lo:hi]
        classes = prob.shape[1]

        loss_weight = float(top[0].flat_diff[0]) * self.loss_weights[0]
        scale = loss_weight / self._normalizer(batch)
        np.copyto(dscores, prob * scale)
        rows = np.arange(hi - lo)
        safe_labels = np.clip(labels, 0, classes - 1)
        dscores[rows, safe_labels] -= scale
        if self.ignore_label is not None:
            dscores[~valid] = 0.0

    @property
    def prob(self) -> np.ndarray:
        """Most recent softmax probabilities (for inspection/tests)."""
        return self._prob


@register_layer("EuclideanLoss")
class EuclideanLossLayer(LossLayer):
    """``loss = 1/(2S) * sum ||x0_s - x1_s||^2`` (Caffe EuclideanLoss)."""

    contract = LayerContract(
        scratch=("_per_sample", "_diff"),
        float64=("forward_chunk",),
        note=(
            "per-sample squared-error partials accumulate in float64 so "
            "the finalize fold is bitwise identical in any chunk order"
        ),
    )

    def shape_changed(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        super().shape_changed(bottom, top)
        self._diff = np.zeros(
            (bottom[0].shape[0], bottom[0].count // bottom[0].shape[0]),
            dtype=DTYPE,
        )

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        batch = bottom[0].shape[0]
        a = bottom[0].flat_data.reshape(batch, -1)[lo:hi]
        b = bottom[1].flat_data.reshape(batch, -1)[lo:hi]
        diff = a - b
        self._diff[lo:hi] = diff
        self._per_sample[lo:hi] = 0.5 * (diff.astype(np.float64) ** 2).sum(axis=1)

    def backward_chunk(
        self,
        top: Sequence[Blob],
        propagate_down: Sequence[bool],
        bottom: Sequence[Blob],
        lo: int,
        hi: int,
        param_grads: Sequence[np.ndarray],
    ) -> None:
        batch = bottom[0].shape[0]
        loss_weight = float(top[0].flat_diff[0]) * self.loss_weights[0]
        scale = loss_weight / batch
        for i, sign in ((0, 1.0), (1, -1.0)):
            if propagate_down[i]:
                dx = bottom[i].flat_diff.reshape(batch, -1)[lo:hi]
                np.copyto(dx, sign * scale * self._diff[lo:hi])


def _score_batch(spec, bottoms) -> int:
    """Batch extent of the scores in bottom 0, checked against the
    labels in bottom 1: the kernels index the flat label blob by sample,
    so anything but one label per sample reads the wrong labels or runs
    off the end."""
    if not bottoms[0].num_axes:
        raise ShapeError(
            f"layer {spec.name!r}: scores need a batch axis, got a "
            "0-d bottom"
        )
    batch = bottoms[0].shape[0]
    if bottoms[1].count != batch:
        raise ShapeError(
            f"layer {spec.name!r}: labels of shape {bottoms[1].shape} "
            f"hold {bottoms[1].count} value(s) for a score batch of "
            f"{batch}; need one label per sample"
        )
    return batch


@register_shape_rule("SoftmaxWithLoss", terminal_ok=True)
def _softmax_loss_shape_rule(spec, bottoms) -> RuleResult:
    """Scalar loss over the batch; bottom 1 carries the labels."""
    if len(bottoms) != 2:
        raise ShapeError(
            f"layer {spec.name!r}: needs 2 bottoms (scores, labels), "
            f"got {len(bottoms)}"
        )
    return RuleResult(tops=[BlobInfo(())],
                      forward_space=_score_batch(spec, bottoms))


@register_shape_rule("EuclideanLoss", terminal_ok=True)
def _euclidean_loss_shape_rule(spec, bottoms) -> RuleResult:
    if len(bottoms) != 2:
        raise ShapeError(
            f"layer {spec.name!r}: needs 2 bottoms, got {len(bottoms)}"
        )
    if bottoms[0].count != bottoms[1].count:
        raise ShapeError(
            f"layer {spec.name!r}: bottoms disagree in count "
            f"({bottoms[0].count} vs {bottoms[1].count})"
        )
    if not bottoms[0].num_axes:
        raise ShapeError(
            f"layer {spec.name!r}: needs a batch axis, got 0-d bottoms"
        )
    return RuleResult(tops=[BlobInfo(())], forward_space=bottoms[0].shape[0])
