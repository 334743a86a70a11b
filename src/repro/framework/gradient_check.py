"""Numerical gradient checking (Caffe's ``GradientChecker``).

Verifies a layer's analytic backward pass against central-difference
numerical gradients of a scalar objective built from the top blobs.  Used
throughout the test suite; exposed as library API because downstream
users writing new layers need it for exactly the reason the paper calls
the framework "research oriented".
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.framework.blob import Blob
from repro.framework.layer import Layer


class GradientCheckError(AssertionError):
    """Raised when analytic and numerical gradients disagree."""


def _objective(top: Sequence[Blob], weights: List[np.ndarray]) -> float:
    """A deterministic scalar of the top data: sum(w * top) per blob.

    Random-looking but fixed weights make the check sensitive to every
    output element (a plain sum would miss sign errors that cancel).
    """
    total = 0.0
    for blob, w in zip(top, weights):
        total += float(np.dot(blob.flat_data.astype(np.float64), w))
    return total


def check_gradient(
    layer: Layer,
    bottom: Sequence[Blob],
    top: Sequence[Blob],
    *,
    check_bottom: Optional[Sequence[int]] = None,
    step: float = 1e-2,
    threshold: float = 1e-2,
    seed: int = 7,
) -> None:
    """Compare analytic and numerical gradients of ``layer``.

    Parameters
    ----------
    check_bottom:
        Indices of bottom blobs to differentiate with respect to
        (default: all).  Parameter blobs are always checked.
    step:
        Central-difference step.
    threshold:
        Maximum allowed ``|analytic - numeric| / max(scale, 1)`` where
        ``scale`` is the magnitude of the two estimates.

    Raises
    ------
    GradientCheckError
        On the first element whose gradients disagree.
    """
    rng = np.random.default_rng(seed)
    layer.setup(bottom, top)
    layer.forward(bottom, top)
    weights = [
        rng.standard_normal(t.count).astype(np.float64) for t in top
    ]

    # Analytic pass: seed top diffs with the objective's gradient.
    for t, w in zip(top, weights):
        t.flat_diff[:] = w.astype(np.float32)
    for blob in layer.blobs:
        blob.zero_diff()
    if check_bottom is None:
        check_bottom = list(range(len(bottom)))
    propagate = [i in check_bottom for i in range(len(bottom))]
    layer.backward(top, propagate, bottom)

    targets = []
    for i in check_bottom:
        targets.append((f"bottom[{i}]", bottom[i]))
    for i, blob in enumerate(layer.blobs):
        targets.append((f"param[{i}]", blob))

    analytic = {label: blob.flat_diff.copy() for label, blob in targets}

    for label, blob in targets:
        data = blob.flat_data
        for index in range(blob.count):
            original = float(data[index])
            data[index] = original + step
            layer.forward(bottom, top)
            plus = _objective(top, weights)
            data[index] = original - step
            layer.forward(bottom, top)
            minus = _objective(top, weights)
            data[index] = original
            numeric = (plus - minus) / (2.0 * step)
            estimate = float(analytic[label][index])
            scale = max(abs(numeric), abs(estimate), 1.0)
            if abs(numeric - estimate) / scale > threshold:
                raise GradientCheckError(
                    f"layer {layer.name!r} {label}[{index}]: analytic "
                    f"{estimate:.6g} vs numeric {numeric:.6g} "
                    f"(threshold {threshold})"
                )
    # Restore a clean forward state.
    layer.forward(bottom, top)
