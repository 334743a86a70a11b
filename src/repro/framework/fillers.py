"""Parameter fillers (Caffe's ``Filler`` hierarchy).

Fillers initialize layer coefficient blobs before training.  All fillers
draw from an explicit :class:`numpy.random.Generator` so network
initialization is reproducible — a prerequisite for the paper's
convergence-invariance experiments, where the sequential and parallel runs
must start from identical coefficients.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.framework.blob import DTYPE, Blob


def stable_seed(name: str) -> int:
    """Process-invariant fallback filler seed derived from a layer name.

    ``hash(name)`` is salted per interpreter process under hash
    randomization (PYTHONHASHSEED), so two processes deriving a fallback
    seed from the same layer name would initialize the same network
    differently — exactly the cross-process nondeterminism the
    convergence-invariance experiments forbid.  CRC-32 is a fixed function
    of the bytes: same name, same seed, in every process forever.
    """
    return zlib.crc32(name.encode("utf-8")) % (2**31)


@dataclass
class FillerSpec:
    """Declarative filler description, as parsed from a prototxt.

    ``type`` selects the filler; remaining fields are interpreted per type
    (e.g. ``value`` for constant, ``std`` for gaussian).
    """

    type: str = "constant"
    value: float = 0.0
    min: float = 0.0
    max: float = 1.0
    mean: float = 0.0
    std: float = 1.0
    variance_norm: str = "fan_in"
    extra: Dict[str, float] = field(default_factory=dict)


def _fans(blob: Blob) -> tuple[int, int]:
    """``(fan_in, fan_out)`` of a parameter blob, per Caffe conventions."""
    count = blob.count
    num = blob.shape[0] if blob.num_axes > 0 else 1
    channels_etc = count // max(num, 1)
    fan_in = channels_etc
    fan_out = count // blob.shape[1] if blob.num_axes > 1 else count
    return fan_in, fan_out


def fill(blob: Blob, spec: FillerSpec, rng: np.random.Generator) -> Blob:
    """Fill ``blob.data`` according to ``spec`` using ``rng``."""
    kind = spec.type.lower()
    if kind == "constant":
        blob.flat_data.fill(DTYPE(spec.value))
    elif kind == "uniform":
        if spec.max < spec.min:
            raise ValueError(f"uniform filler: max {spec.max} < min {spec.min}")
        blob.flat_data[:] = rng.uniform(spec.min, spec.max, blob.count).astype(DTYPE)
    elif kind == "gaussian":
        if spec.std < 0:
            raise ValueError(f"gaussian filler: negative std {spec.std}")
        blob.flat_data[:] = rng.normal(spec.mean, spec.std, blob.count).astype(DTYPE)
    elif kind == "xavier":
        fan_in, fan_out = _fans(blob)
        if spec.variance_norm == "fan_in":
            scale = np.sqrt(3.0 / fan_in)
        elif spec.variance_norm == "fan_out":
            scale = np.sqrt(3.0 / fan_out)
        elif spec.variance_norm == "average":
            scale = np.sqrt(6.0 / (fan_in + fan_out))
        else:
            raise ValueError(f"xavier filler: bad variance_norm {spec.variance_norm!r}")
        blob.flat_data[:] = rng.uniform(-scale, scale, blob.count).astype(DTYPE)
    elif kind == "msra":
        fan_in, fan_out = _fans(blob)
        if spec.variance_norm == "fan_in":
            n = fan_in
        elif spec.variance_norm == "fan_out":
            n = fan_out
        elif spec.variance_norm == "average":
            n = (fan_in + fan_out) / 2.0
        else:
            raise ValueError(f"msra filler: bad variance_norm {spec.variance_norm!r}")
        blob.flat_data[:] = rng.normal(0.0, np.sqrt(2.0 / n), blob.count).astype(DTYPE)
    elif kind == "positive_unitball":
        values = rng.uniform(0.0, 1.0, blob.count).astype(DTYPE)
        num = blob.shape[0] if blob.num_axes else 1
        per_row = blob.count // max(num, 1)
        mat = values.reshape(num, per_row)
        mat /= mat.sum(axis=1, keepdims=True)
        blob.flat_data[:] = mat.ravel()
    else:
        raise ValueError(f"unknown filler type {spec.type!r}")
    return blob
