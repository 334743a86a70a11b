"""Synthetic CIFAR-10: 32x32x3 color images with per-class signatures.

Each of the ten classes combines a characteristic hue, an oriented
texture (sinusoidal grating at a class-specific angle and frequency) and
a geometric mask (disc, bar, ring, corner wedge, ...).  Samples draw the
class signature with randomized phase, position and lighting plus pixel
noise, giving a dataset whose classes require spatial feature learning
(the gratings defeat a pure color histogram) but that a small CNN learns
quickly — the same role CIFAR-10 plays in the paper's evaluation.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

SIZE = 32

# Per-class (hue RGB, grating angle, grating frequency, shape id).
_CLASS_SIGNATURES = [
    ((0.9, 0.2, 0.2), 0.0, 3.0, 0),
    ((0.2, 0.9, 0.2), 0.6, 4.0, 1),
    ((0.2, 0.3, 0.9), 1.2, 5.0, 2),
    ((0.9, 0.8, 0.1), 1.8, 3.5, 3),
    ((0.8, 0.2, 0.8), 2.4, 4.5, 0),
    ((0.1, 0.8, 0.8), 0.3, 6.0, 1),
    ((0.9, 0.5, 0.1), 0.9, 2.5, 2),
    ((0.5, 0.5, 0.9), 1.5, 5.5, 3),
    ((0.6, 0.9, 0.4), 2.1, 3.0, 0),
    ((0.9, 0.4, 0.6), 2.7, 4.0, 1),
]

#: Pixel row / column coordinates of the canvas, shared by every sample.
_YS, _XS = np.mgrid[0:SIZE, 0:SIZE].astype(np.float64)


def _shape_mask(shape_id: int, cx: float, cy: float) -> np.ndarray:
    ys, xs = _YS, _XS
    if shape_id == 0:  # disc
        return ((xs - cx) ** 2 + (ys - cy) ** 2 < (SIZE * 0.3) ** 2).astype(float)
    if shape_id == 1:  # horizontal bar
        return (np.abs(ys - cy) < SIZE * 0.15).astype(float)
    if shape_id == 2:  # ring
        r2 = (xs - cx) ** 2 + (ys - cy) ** 2
        return (
            (r2 < (SIZE * 0.38) ** 2) & (r2 > (SIZE * 0.2) ** 2)
        ).astype(float)
    # corner wedge
    return ((xs + ys) < (cx + cy)).astype(float)


class SyntheticCIFAR10:
    """Deterministic synthetic CIFAR-10-like dataset.

    Parameters mirror :class:`~repro.data.synth_mnist.SyntheticMNIST`.
    """

    def __init__(
        self, n_samples: int = 1024, seed: int = 0, noise: float = 0.05
    ) -> None:
        if n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        rng = np.random.default_rng(seed)
        images = np.zeros((n_samples, 3, SIZE, SIZE), dtype=np.float32)
        labels = rng.integers(0, 10, n_samples)
        ys, xs = _YS, _XS
        for i in range(n_samples):
            hue, angle, freq, shape_id = _CLASS_SIGNATURES[int(labels[i])]
            angle = angle + rng.normal(0.0, 0.08)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            coord = xs * np.cos(angle) + ys * np.sin(angle)
            grating = 0.5 + 0.5 * np.sin(
                2.0 * np.pi * freq * coord / SIZE + phase
            )
            cx = SIZE / 2 + rng.normal(0.0, 2.5)
            cy = SIZE / 2 + rng.normal(0.0, 2.5)
            mask = _shape_mask(shape_id, cx, cy)
            lighting = rng.uniform(0.7, 1.0)
            base = grating * (0.35 + 0.65 * mask) * lighting
            for channel in range(3):
                plane = hue[channel] * base
                plane = plane + rng.normal(0.0, noise, plane.shape)
                images[i, channel] = np.clip(plane, 0.0, 1.0)
        self.images = images
        self.labels = labels.astype(np.int64)

    @property
    def shape(self) -> Tuple[int, int, int]:
        return (3, SIZE, SIZE)
