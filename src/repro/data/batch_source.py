"""Batch sources: the LMDB-reader substitute feeding the Data layer.

A batch source exposes one sample shape and an infinite stream of batches
(wrapping around the underlying dataset, as Caffe's DB readers do).  The
stream order is deterministic for a given seed, which the reproduction's
convergence-invariance experiments rely on.
"""

from __future__ import annotations

from typing import Callable, Protocol, Tuple

import numpy as np


class BatchSource(Protocol):
    """Protocol consumed by :class:`repro.framework.layers.data.DataLayer`."""

    @property
    def shape(self) -> Tuple[int, int, int]:
        """``(channels, height, width)`` of one sample."""
        ...

    def next_batch(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(images, labels)`` with ``images`` of shape
        ``(batch_size, C, H, W)`` and integer ``labels`` of shape
        ``(batch_size,)``."""
        ...


class ArrayBatchSource:
    """Serves batches from in-memory arrays, with optional shuffling.

    Parameters
    ----------
    images:
        Array of shape ``(n, C, H, W)``.
    labels:
        Integer array of shape ``(n,)``.
    shuffle:
        Re-permute the epoch order each wrap-around.
    seed:
        Seed for the shuffling stream (ignored when ``shuffle`` is False).
    """

    def __init__(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        shuffle: bool = False,
        seed: int = 0,
    ) -> None:
        self._images, self._labels = _checked_arrays(images, labels)
        self._start_stream(
            tuple(self._images.shape[1:]), len(self._labels), shuffle, seed
        )

    def _start_stream(self, shape: Tuple[int, ...], size: int,
                      shuffle: bool, seed: int) -> None:
        """The stream's first position; needs only the dataset geometry."""
        self._shape = shape
        self._size = size
        self._shuffle = shuffle
        self._rng = np.random.default_rng(seed)
        self._order = np.arange(size)
        if shuffle:
            self._rng.shuffle(self._order)
        self._cursor = 0
        self.epochs_completed = 0

    @property
    def shape(self) -> Tuple[int, int, int]:
        return self._shape  # type: ignore[return-value]

    @property
    def size(self) -> int:
        return self._size

    def next_batch(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        picks = np.empty(batch_size, dtype=np.int64)
        filled = 0
        while filled < batch_size:
            take = min(batch_size - filled, self.size - self._cursor)
            picks[filled : filled + take] = self._order[
                self._cursor : self._cursor + take
            ]
            self._cursor += take
            filled += take
            if self._cursor == self.size:
                self._cursor = 0
                self.epochs_completed += 1
                if self._shuffle:
                    self._rng.shuffle(self._order)
        return self._images[picks], self._labels[picks]

    def reset(self) -> None:
        """Rewind to the start of the (current) epoch order."""
        self._cursor = 0

    # ------------------------------------------------------------------
    # cursor capture (checkpoint / resume)
    # ------------------------------------------------------------------
    def get_state(self) -> dict:
        """JSON-serializable stream position: cursor, epoch count, the
        current epoch's permutation, and the shuffle RNG state.  A resume
        that restores this replays the exact remaining batch sequence;
        omitting it would re-serve samples the run already consumed."""
        return {
            "cursor": int(self._cursor),
            "epochs_completed": int(self.epochs_completed),
            "order": [int(i) for i in self._order],
            "rng": self._rng.bit_generator.state,
            "shuffle": bool(self._shuffle),
        }

    def check_state(self, state: dict) -> None:
        """Raise ValueError unless ``state`` is a position this source can
        resume from: ``cursor`` in ``[0, size)``, ``order`` a permutation
        of ``range(size)`` and the same ``shuffle`` mode.  Mutates
        nothing, so a restore can check every source before it commits."""
        order = np.asarray(state["order"])
        if order.shape != self._order.shape:
            raise ValueError(
                f"source state has {order.size} samples, this source has "
                f"{self.size}"
            )
        if not np.array_equal(np.sort(order), np.arange(self.size)):
            raise ValueError(
                f"source state order is not a permutation of "
                f"range({self.size})"
            )
        cursor = int(state["cursor"])
        if not 0 <= cursor < self.size:
            raise ValueError(
                f"source state cursor {cursor} is outside [0, {self.size})"
            )
        if bool(state["shuffle"]) != self._shuffle:
            raise ValueError(
                f"source state was captured with shuffle="
                f"{state['shuffle']}, this source has shuffle="
                f"{self._shuffle}"
            )

    def set_state(self, state: dict) -> None:
        """Restore a :meth:`get_state` capture (checked first)."""
        self.check_state(state)
        self._order = np.asarray(state["order"], dtype=self._order.dtype)
        self._cursor = int(state["cursor"])
        self.epochs_completed = int(state["epochs_completed"])
        self._rng.bit_generator.state = state["rng"]


class RenderedArraySource(ArrayBatchSource):
    """An unshuffled :class:`ArrayBatchSource` whose arrays are rendered
    on its first :meth:`next_batch`.

    ``shape`` and ``size`` are declared up front, so building a net,
    inferring its shapes, swapping the source out for serving and the
    cursor protocol never render.  ``render`` returns ``(images,
    labels)`` of exactly the declared geometry.
    """

    def __init__(
        self,
        render: Callable[[], Tuple[np.ndarray, np.ndarray]],
        shape: Tuple[int, int, int],
        size: int,
    ) -> None:
        self._render = render
        self._images = self._labels = None
        self._start_stream(tuple(shape), int(size), shuffle=False, seed=0)

    def next_batch(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
        if self._images is None:
            images, labels = _checked_arrays(*self._render())
            if images.shape != (self.size,) + self.shape:
                raise ValueError(
                    f"rendered images {images.shape} do not match the "
                    f"declared {(self.size,) + self.shape}"
                )
            self._images, self._labels = images, labels
        return super().next_batch(batch_size)


def _checked_arrays(images: np.ndarray,
                    labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``images`` as float32 ``(n, C, H, W)``, n >= 1, with one label per
    image; ValueError otherwise."""
    images = np.asarray(images, dtype=np.float32)
    labels = np.asarray(labels)
    if images.ndim != 4:
        raise ValueError(f"images must be (n, C, H, W), got {images.shape}")
    if labels.shape != (images.shape[0],):
        raise ValueError(
            f"labels shape {labels.shape} does not match "
            f"{images.shape[0]} images"
        )
    if images.shape[0] == 0:
        raise ValueError("batch source needs at least one sample")
    return images, labels
