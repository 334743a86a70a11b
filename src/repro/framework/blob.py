"""Blob: the unified storage unit of the framework.

A Blob is an N-dimensional array stored C-contiguously, holding two
parallel buffers: ``data`` (values) and ``diff`` (gradients).  For image
batches the conventional dimensions are ``(N, K, H, W)`` — batch size,
channels, height, width — and the value at index ``(n, k, h, w)`` lives at
flat offset ``((n * K + k) * H + h) * W + w``, exactly the layout the
paper's Figure 1 describes.  One ``(H, W)`` plane of one image is a *data
segment*; layers operate segment-wise (Figure 2).

Both buffers are plain host arrays.  Caffe's ``SyncedMemory`` (lazy
CPU/GPU copies) has no counterpart here: the runtime is CPU-only, and the
fine-grain GPU path exists only as a cost model in :mod:`repro.simulator`.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

DTYPE = np.float32


def _count_of(shape: Tuple[int, ...]) -> int:
    return int(np.prod(shape, dtype=np.int64)) if shape else 1


class Blob:
    """N-dimensional array with data and diff halves.

    Parameters
    ----------
    shape:
        Dimension extents.  Empty shape creates a 0-d scalar blob.
    name:
        Optional label used in error messages and net plumbing.

    Notes
    -----
    ``data`` and ``diff`` are exposed as numpy views shaped like ``shape``
    over flat C-contiguous buffers; ``flat_data`` / ``flat_diff`` expose
    the raw 1-D storage that BLAS kernels and the paper's offset formula
    address.
    """

    def __init__(self, shape: Sequence[int] = (), name: str = "") -> None:
        self.name = name
        self._allocate(tuple(int(d) for d in shape))

    # ------------------------------------------------------------------
    # shape & storage
    # ------------------------------------------------------------------
    def _allocate(self, shape: Tuple[int, ...]) -> None:
        for dim in shape:
            if dim < 0:
                raise ValueError(f"blob {self.name!r}: negative dimension in {shape}")
        self._shape = shape
        self._count = _count_of(shape)
        self._flat_data = np.zeros(self._count, dtype=DTYPE)
        self._flat_diff = np.zeros(self._count, dtype=DTYPE)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._shape

    @property
    def count(self) -> int:
        """Total number of elements of the current shape.

        May be smaller than the underlying storage after a shrinking
        reshape (the buffer is retained, Caffe-style).
        """
        return self._count

    @property
    def num_axes(self) -> int:
        return len(self._shape)

    def canonical_axis(self, axis: int) -> int:
        n = len(self._shape)
        if not -n <= axis < n:
            raise IndexError(
                f"blob {self.name!r}: axis {axis} out of range for {n} axes"
            )
        return axis % n

    # Caffe legacy accessors for 4-d image blobs.
    @property
    def num(self) -> int:
        return self._legacy_dim(0)

    @property
    def channels(self) -> int:
        return self._legacy_dim(1)

    @property
    def height(self) -> int:
        return self._legacy_dim(2)

    @property
    def width(self) -> int:
        return self._legacy_dim(3)

    def _legacy_dim(self, axis: int) -> int:
        if len(self._shape) > 4:
            raise ValueError(
                f"blob {self.name!r}: legacy accessor needs <= 4 axes, "
                f"have shape {self._shape}"
            )
        return self._shape[axis] if axis < len(self._shape) else 1

    def reshape(self, shape: Sequence[int]) -> "Blob":
        """Change dimensions; reallocates only when the count grows.

        Matches Caffe semantics: shrinking or reshaping within the current
        capacity preserves the underlying buffers (and their contents up to
        the new count).
        """
        if shape == self._shape:  # a feeder reshapes on every pass
            return self
        new_shape = tuple(int(d) for d in shape)
        new_count = _count_of(new_shape)
        if new_count > self._flat_data.size:
            self._allocate(new_shape)
        else:
            self._shape = new_shape
            self._count = new_count
        return self

    def reshape_like(self, other: "Blob") -> "Blob":
        return self.reshape(other.shape)

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def offset(self, indices: Sequence[int]) -> int:
        """Flat offset of a (possibly partial) index tuple.

        For a 4-d blob and full indices ``(n, k, h, w)`` this computes
        ``((n * K + k) * H + h) * W + w``.  Trailing indices may be
        omitted (treated as 0), mirroring ``Blob::offset`` in Caffe.
        """
        if len(indices) > len(self._shape):
            raise IndexError(
                f"blob {self.name!r}: {len(indices)} indices for "
                f"{len(self._shape)} axes"
            )
        off = 0
        for axis, extent in enumerate(self._shape):
            off *= extent
            if axis < len(indices):
                idx = indices[axis]
                if not 0 <= idx < extent:
                    raise IndexError(
                        f"blob {self.name!r}: index {idx} out of range for "
                        f"axis {axis} with extent {extent}"
                    )
                off += idx
        return off

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """View of the value buffer, shaped like :attr:`shape`."""
        return self._flat_data[:self._count].reshape(self._shape)

    @property
    def diff(self) -> np.ndarray:
        """View of the gradient buffer, shaped like :attr:`shape`."""
        return self._flat_diff[:self._count].reshape(self._shape)

    @property
    def flat_data(self) -> np.ndarray:
        """View of the raw 1-D value storage (length :attr:`count`)."""
        return self._flat_data[:self._count]

    @property
    def flat_diff(self) -> np.ndarray:
        return self._flat_diff[:self._count]

    # ------------------------------------------------------------------
    # sharing (Caffe's ShareData/ShareDiff, used by split layers)
    # ------------------------------------------------------------------
    def share_data_with(self, other: "Blob") -> None:
        """Alias this blob's value storage onto ``other``'s."""
        if self.count > other.count:
            raise ValueError(
                f"blob {self.name!r}: cannot share data with smaller blob "
                f"{other.name!r} ({self.count} > {other.count})"
            )
        self._flat_data = other._flat_data

    # ------------------------------------------------------------------
    # numerics helpers
    # ------------------------------------------------------------------
    def set_data(self, values: Iterable[float] | np.ndarray) -> "Blob":
        arr = np.asarray(values, dtype=DTYPE)
        if arr.size != self.count:
            raise ValueError(
                f"blob {self.name!r}: set_data got {arr.size} values for "
                f"count {self.count}"
            )
        self.flat_data[:] = arr.ravel()
        return self

    def zero_data(self) -> "Blob":
        self.flat_data.fill(0.0)
        return self

    def zero_diff(self) -> "Blob":
        self.flat_diff.fill(0.0)
        return self

    def asum_data(self) -> float:
        """L1 norm of the data (Caffe's ``asum_data``)."""
        return float(np.abs(self.flat_data).sum())

    def asum_diff(self) -> float:
        return float(np.abs(self.flat_diff).sum())

    def sumsq_data(self) -> float:
        d = self.flat_data
        return float(np.dot(d, d))

    def sumsq_diff(self) -> float:
        d = self.flat_diff
        return float(np.dot(d, d))

    def scale_diff(self, factor: float) -> "Blob":
        diff = self.flat_diff
        diff *= DTYPE(factor)
        return self

    def update(self) -> "Blob":
        """Apply the accumulated gradient: ``data -= diff`` (Caffe Update)."""
        data = self.flat_data
        data -= self.flat_diff
        return self

    def copy_from(
        self, other: "Blob", copy_diff: bool = False, reshape: bool = False
    ) -> "Blob":
        if other.shape != self.shape:
            if not reshape:
                raise ValueError(
                    f"blob {self.name!r}: copy_from shape mismatch "
                    f"{other.shape} vs {self.shape} (pass reshape=True)"
                )
            self.reshape(other.shape)
        if copy_diff:
            self.flat_diff[:] = other.flat_diff
        else:
            self.flat_data[:] = other.flat_data
        return self

    @property
    def nbytes(self) -> int:
        """Host memory footprint of both halves, in bytes."""
        return self._flat_data.nbytes + self._flat_diff.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Blob(name={self.name!r}, shape={self._shape})"
