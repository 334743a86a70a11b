"""Data layers: the network's input feeders.

As in Caffe, data layers *execute sequentially* — the paper repeatedly
points at this as a locality limiter (the data layer's memory footprint is
produced by one thread, then consumed by many in conv1).  We reproduce
that by reporting a forward space of 1: the coarse-grain runtime therefore
runs the layer as a single chunk.

``DataLayer`` pulls batches from a registered *batch source* (the offline
substitute for Caffe's LMDB readers; see :mod:`repro.data`), ``MemoryDataLayer``
serves arrays supplied by the caller, and ``InputLayer`` just shapes a top
blob for externally filled input.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

import numpy as np

from repro.framework.blob import DTYPE, Blob
from repro.framework.layer import Layer, LayerContract, SEQUENTIAL, register_layer
from repro.framework.shape_inference import (
    BlobInfo,
    RuleResult,
    ShapeError,
    register_shape_rule,
)

#: Registry mapping source names (as written in prototxt ``source:`` fields)
#: to zero-argument factories returning batch-source objects.  A batch
#: source provides ``next_batch(n) -> (images, labels)`` and ``shape``
#: (``(C, H, W)`` of one sample).
_SOURCE_REGISTRY: Dict[str, Callable[[], object]] = {}

#: Declared per-sample shapes, kept separately so static analysis can
#: resolve a source's geometry without running its factory (factories may
#: render whole synthetic datasets).
_SOURCE_SHAPES: Dict[str, tuple] = {}


def register_source(
    name: str,
    factory: Callable[[], object],
    shape: tuple | None = None,
) -> None:
    """Register a batch-source factory under ``name``.

    ``shape`` optionally declares the per-sample ``(C, H, W)`` geometry
    up front; without it, static shape inference has to fall back to
    instantiating the source (see :func:`declared_source_shape`).
    """
    _SOURCE_REGISTRY[name] = factory
    if shape is not None:
        _SOURCE_SHAPES[name] = tuple(int(d) for d in shape)
    else:
        _SOURCE_SHAPES.pop(name, None)


def declared_source_shape(name: str) -> tuple | None:
    """Per-sample ``(C, H, W)`` of a registered source, or None.

    Prefers the shape declared at registration; a source registered
    without one yields None (static analysis then reports the data
    layer as uninferable rather than running the factory).
    """
    return _SOURCE_SHAPES.get(name)


def create_source(name: str) -> object:
    factory = _SOURCE_REGISTRY.get(name)
    if factory is None:
        known = ", ".join(sorted(_SOURCE_REGISTRY)) or "<none>"
        raise KeyError(f"unknown data source {name!r}; registered: {known}")
    return factory()


@register_layer("Data")
class DataLayer(Layer):
    """Feeds batches from a batch source.

    Parameters (``data_param``): ``source`` (registered source name, or an
    object passed as ``source_object``), ``batch_size``.  Transform
    parameters (``transform_param``): ``scale`` (default 1.0),
    ``mean_value`` (scalar subtracted before scaling).
    """

    exact_num_bottom = 0
    min_num_top = 1
    max_num_top = 2

    contract = LayerContract(forward=SEQUENTIAL, backward=SEQUENTIAL)

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        spec = self.spec
        self.batch_size = int(spec.require("batch_size"))
        if self.batch_size <= 0:
            raise ValueError(
                f"layer {self.name!r}: batch_size must be positive"
            )
        source = spec.param("source_object")
        if source is None:
            source = create_source(str(spec.require("source")))
        self.source = source
        self.scale = float(spec.param("scale", 1.0))
        self.mean_value = float(spec.param("mean_value", 0.0))

    def reshape(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        c, h, w = self.source.shape
        top[0].reshape((self.batch_size, c, h, w))
        if len(top) > 1:
            top[1].reshape((self.batch_size,))

    def forward_space(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> int:
        return 1  # data layers run sequentially (paper Section 4.3)

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        if lo >= hi:
            return
        images, labels = self.source.next_batch(self.batch_size)
        data = np.asarray(images, dtype=DTYPE)
        if data.shape != top[0].shape:
            raise ValueError(
                f"layer {self.name!r}: source produced shape {data.shape}, "
                f"expected {top[0].shape}"
            )
        if self.mean_value:
            data = data - DTYPE(self.mean_value)
        if self.scale != 1.0:
            data = data * DTYPE(self.scale)
        top[0].flat_data[:] = data.ravel()
        if len(top) > 1:
            top[1].flat_data[:] = np.asarray(labels, dtype=DTYPE).ravel()

    def backward_chunk(self, *args, **kwargs) -> None:
        pass  # data layers have nothing to backpropagate


@register_layer("MemoryData")
class MemoryDataLayer(Layer):
    """Serves caller-provided arrays (Caffe MemoryDataLayer).

    Call :meth:`set_batch` before each forward pass.  Parameters:
    ``batch_size``, ``channels``, ``height``, ``width``.
    """

    exact_num_bottom = 0
    min_num_top = 1
    max_num_top = 2

    contract = LayerContract(forward=SEQUENTIAL, backward=SEQUENTIAL)

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        spec = self.spec
        self.batch_size = int(spec.require("batch_size"))
        self.channels = int(spec.param("channels", 1))
        self.height = int(spec.param("height", 1))
        self.width = int(spec.param("width", 1))
        self._images: np.ndarray | None = None
        self._labels: np.ndarray | None = None

    def set_batch(self, images: np.ndarray, labels: np.ndarray | None = None) -> None:
        expected = (self.batch_size, self.channels, self.height, self.width)
        images = np.asarray(images, dtype=DTYPE)
        if images.shape != expected:
            raise ValueError(
                f"layer {self.name!r}: batch shape {images.shape} != {expected}"
            )
        self._images = images
        self._labels = (
            np.asarray(labels, dtype=DTYPE) if labels is not None else None
        )

    def reshape(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        top[0].reshape(
            (self.batch_size, self.channels, self.height, self.width)
        )
        if len(top) > 1:
            top[1].reshape((self.batch_size,))

    def forward_space(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> int:
        return 1

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        if lo >= hi:
            return
        if self._images is None:
            raise RuntimeError(
                f"layer {self.name!r}: set_batch() was never called"
            )
        top[0].flat_data[:] = self._images.ravel()
        if len(top) > 1:
            if self._labels is None:
                raise RuntimeError(
                    f"layer {self.name!r}: labels requested but not provided"
                )
            top[1].flat_data[:] = self._labels.ravel()

    def backward_chunk(self, *args, **kwargs) -> None:
        pass


@register_layer("Input")
class InputLayer(Layer):
    """Declares an externally filled input blob of a fixed shape.

    Parameters (``input_param``): ``shape`` — a dict with a ``dim`` list.
    """

    exact_num_bottom = 0
    min_num_top = 1

    contract = LayerContract(forward=SEQUENTIAL, backward=SEQUENTIAL)

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        self.shapes = _input_shapes(self.spec, len(top))

    def reshape(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        for i, t in enumerate(top):
            shape = self.shapes[i if len(self.shapes) > 1 else 0]
            t.reshape(shape)

    def forward_space(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> int:
        return 1

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        pass  # contents are supplied externally

    def backward_chunk(self, *args, **kwargs) -> None:
        pass


def _input_shapes(spec, num_tops: int) -> list:
    """An Input layer's ``shape { dim }`` blocks: one per top, or a
    single one serving every top."""
    raw = spec.require("shape")
    parsed = []
    for blk in raw if isinstance(raw, list) else [raw]:
        dims = blk.get("dim") if isinstance(blk, dict) else blk
        if not isinstance(dims, list):
            dims = [dims]
        parsed.append(tuple(int(d) for d in dims))
    if len(parsed) not in (1, num_tops):
        raise ShapeError(
            f"layer {spec.name!r}: {len(parsed)} shapes for {num_tops} tops"
        )
    return parsed


# ---------------------------------------------------------------------------
# inference rules (the feeders anchor every downstream shape)
# ---------------------------------------------------------------------------
@register_shape_rule("Data")
def _data_shape_rule(spec, bottoms) -> RuleResult:
    batch = int(spec.require("batch_size"))
    if batch <= 0:
        raise ShapeError(
            f"layer {spec.name!r}: batch_size must be positive, got {batch}"
        )
    source = spec.param("source_object")
    if source is not None and hasattr(source, "shape"):
        sample = tuple(int(d) for d in source.shape)
    else:
        name = spec.param("source")
        sample = declared_source_shape(str(name)) if name else None
    if sample is None:
        raise ShapeError(
            f"layer {spec.name!r}: data source "
            f"{spec.param('source')!r} declares no sample shape; register "
            "it with register_source(..., shape=(C, H, W))"
        )
    tops = [BlobInfo((batch,) + sample)]
    if len(spec.tops) > 1:
        tops.append(BlobInfo((batch,)))
    return RuleResult(tops=tops, forward_space=1)


@register_shape_rule("MemoryData")
def _memory_data_shape_rule(spec, bottoms) -> RuleResult:
    batch = int(spec.require("batch_size"))
    if batch <= 0:
        raise ShapeError(
            f"layer {spec.name!r}: batch_size must be positive, got {batch}"
        )
    shape = (
        batch,
        int(spec.param("channels", 1)),
        int(spec.param("height", 1)),
        int(spec.param("width", 1)),
    )
    tops = [BlobInfo(shape)]
    if len(spec.tops) > 1:
        tops.append(BlobInfo((batch,)))
    return RuleResult(tops=tops, forward_space=1)


@register_shape_rule("Input")
def _input_shape_rule(spec, bottoms) -> RuleResult:
    parsed = _input_shapes(spec, len(spec.tops))
    tops = [
        BlobInfo(parsed[i if len(parsed) > 1 else 0])
        for i in range(len(spec.tops))
    ]
    return RuleResult(tops=tops, forward_space=1)
