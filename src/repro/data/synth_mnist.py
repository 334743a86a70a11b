"""Synthetic MNIST: procedurally rendered 28x28 grayscale digits.

Each class 0-9 has a stroke skeleton (a polyline on a 28x28 canvas, drawn
from the seven-segment-style geometry of the digit).  A sample is rendered
by jittering the skeleton's control points, rasterizing the strokes with a
soft brush, translating the result by a small random offset, and adding
pixel noise.  The resulting classes are linearly *non*-trivial but easily
separable by a small CNN — enough signal for the convergence experiments
(loss decreases, accuracy far above the 10% chance level) while remaining
fully offline and deterministic per seed.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

SIZE = 28

# Control polylines per digit on a [0, 1]^2 canvas (x right, y down).
# Geometry loosely follows seven-segment renderings with diagonals for
# 2, 4 and 7 so classes differ in stroke topology, not just position.
_DIGIT_STROKES: Dict[int, List[Sequence[Tuple[float, float]]]] = {
    0: [[(0.3, 0.2), (0.7, 0.2), (0.7, 0.8), (0.3, 0.8), (0.3, 0.2)]],
    1: [[(0.5, 0.15), (0.5, 0.85)], [(0.38, 0.28), (0.5, 0.15)]],
    2: [[(0.3, 0.25), (0.5, 0.15), (0.7, 0.3), (0.3, 0.8), (0.7, 0.8)]],
    3: [[(0.3, 0.2), (0.7, 0.2), (0.5, 0.5), (0.7, 0.65), (0.5, 0.85),
         (0.3, 0.8)]],
    4: [[(0.65, 0.85), (0.65, 0.15), (0.3, 0.6), (0.75, 0.6)]],
    5: [[(0.7, 0.2), (0.3, 0.2), (0.3, 0.5), (0.65, 0.5), (0.65, 0.8),
         (0.3, 0.8)]],
    6: [[(0.65, 0.2), (0.35, 0.4), (0.3, 0.7), (0.5, 0.85), (0.68, 0.7),
         (0.6, 0.52), (0.34, 0.58)]],
    7: [[(0.3, 0.2), (0.7, 0.2), (0.45, 0.85)]],
    8: [[(0.5, 0.15), (0.32, 0.3), (0.5, 0.48), (0.68, 0.3), (0.5, 0.15)],
        [(0.5, 0.48), (0.3, 0.68), (0.5, 0.86), (0.7, 0.68), (0.5, 0.48)]],
    9: [[(0.66, 0.42), (0.46, 0.5), (0.34, 0.34), (0.48, 0.16),
         (0.66, 0.28), (0.66, 0.42), (0.6, 0.85)]],
}


#: Pixel coordinates along one canvas axis.
_AXIS = np.arange(SIZE, dtype=np.float64)


def _rasterize(
    strokes: Sequence[Sequence[Tuple[float, float]]],
    jitter: np.ndarray,
    brush_sigma: float,
) -> np.ndarray:
    """Draw jittered polylines with a Gaussian brush on a SIZE x SIZE canvas.

    All K brush points are stamped in one ``(K, SIZE, SIZE)`` pass whose
    every step rounds exactly as a per-point ``canvas +=`` loop would
    (DESIGN.md, "Data render note"): dist² is the x-term plus the y-term
    in that operand order, ``d2 / -(2σ²)`` equals ``-d2 / (2σ²)``
    because round-to-nearest is sign-symmetric, and ``sum(axis=0)`` over
    the C-contiguous stack adds the K planes to each pixel one after
    another, in point order.
    """
    centres_x, centres_y = [], []
    point_index = 0
    for stroke in strokes:
        pts = np.asarray(stroke, dtype=np.float64)
        pts = pts + jitter[point_index : point_index + len(pts)]
        point_index += len(pts)
        for (x0, y0), (x1, y1) in zip(pts[:-1], pts[1:]):
            length = max(abs(x1 - x0), abs(y1 - y0))
            steps = max(int(length * SIZE * 2), 2)
            ts = np.linspace(0.0, 1.0, steps)
            centres_x.append((x0 + ts * (x1 - x0)) * (SIZE - 1))
            centres_y.append((y0 + ts * (y1 - y0)) * (SIZE - 1))
    cx = np.concatenate(centres_x)[:, None, None]
    cy = np.concatenate(centres_y)[:, None, None]
    dist2 = (_AXIS[None, None, :] - cx) ** 2 + (_AXIS[None, :, None] - cy) ** 2
    np.divide(dist2, -(2.0 * brush_sigma**2), out=dist2)
    np.exp(dist2, out=dist2)
    canvas = dist2.sum(axis=0)
    peak = canvas.max()
    if peak > 0:
        canvas = np.minimum(canvas / (0.6 * peak), 1.0)
    return canvas


def _points_in(digit: int) -> int:
    return sum(len(s) for s in _DIGIT_STROKES[digit])


class SyntheticMNIST:
    """Deterministic synthetic MNIST-like dataset.

    Parameters
    ----------
    n_samples:
        Number of images to generate.
    seed:
        Generator seed; two instances with the same seed produce identical
        data.
    jitter:
        Standard deviation of the control-point perturbation (canvas units).
    noise:
        Standard deviation of additive pixel noise.
    """

    def __init__(
        self,
        n_samples: int = 1024,
        seed: int = 0,
        jitter: float = 0.02,
        noise: float = 0.05,
    ) -> None:
        if n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        rng = np.random.default_rng(seed)
        images = np.zeros((n_samples, 1, SIZE, SIZE), dtype=np.float32)
        labels = rng.integers(0, 10, n_samples)
        for i in range(n_samples):
            digit = int(labels[i])
            pts = _points_in(digit)
            point_jitter = rng.normal(0.0, jitter, (pts, 2))
            canvas = _rasterize(
                _DIGIT_STROKES[digit], point_jitter,
                brush_sigma=rng.uniform(0.8, 1.2),
            )
            shift = rng.integers(-2, 3, 2)
            canvas = np.roll(canvas, shift, axis=(0, 1))
            canvas += rng.normal(0.0, noise, canvas.shape)
            images[i, 0] = np.clip(canvas, 0.0, 1.0)
        self.images = images
        self.labels = labels.astype(np.int64)

    @property
    def shape(self) -> Tuple[int, int, int]:
        return (1, SIZE, SIZE)
