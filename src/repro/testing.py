"""Test utilities for downstream layer/net development.

Exposed as library API (like Caffe's ``test/test_gradient_check_util``)
so users writing new layers can build blobs and specs tersely and reuse
the gradient checker.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.compiler import scratch
from repro.framework.blob import Blob
from repro.framework.gradient_check import check_gradient  # noqa: F401
from repro.framework.net_spec import LayerSpec

__all__ = ["Blob", "JUNK_BYTE", "NAN_BYTE", "check_gradient",
           "dirty_scratch_pool", "make_blob", "spec"]

#: Fill bytes for :func:`dirty_scratch_pool`.  ``0xAB`` everywhere is a
#: tiny negative float (-1.2e-12), a non-canonical ``True`` and offset
#: 171: it breaks byte-for-byte comparisons but can hide inside a
#: tolerance.  ``0xFF`` everywhere is a NaN in every float width, which
#: nothing downstream can absorb: a loss goes non-finite, a served
#: response is quarantined.
JUNK_BYTE = 0xAB
NAN_BYTE = 0xFF


def make_blob(
    shape: Sequence[int],
    values=None,
    name: str = "b",
    rng: Optional[np.random.Generator] = None,
) -> Blob:
    """A blob with the given data (default: seeded standard-normal)."""
    blob = Blob(shape, name=name)
    if values is None:
        rng = rng or np.random.default_rng(0)
        values = rng.standard_normal(blob.count)
    blob.set_data(np.asarray(values, dtype=np.float32).ravel())
    return blob


def spec(name: str, type_: str, **params) -> LayerSpec:
    """Shorthand :class:`LayerSpec` builder."""
    return LayerSpec(name=name, type=type_, bottoms=[], tops=[], params=params)


def dirty_scratch_pool(byte: int = JUNK_BYTE) -> None:
    """Overwrite every scratch buffer the *calling thread* holds with
    ``byte`` (:data:`JUNK_BYTE` or :data:`NAN_BYTE`).

    Pooled buffers are handed out uninitialised; a kernel that reads one
    before writing it passes on a fresh pool and fails after this.  The
    pool is per-thread, so a team's workers are dirtied from inside a
    region (``team.parallel(lambda ctx: dirty_scratch_pool(...))``).
    """
    for buf in scratch._state().buffers.values():
        buf.view(np.uint8).fill(byte)
