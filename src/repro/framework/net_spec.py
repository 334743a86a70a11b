"""Declarative network specification objects.

A :class:`NetSpec` is the in-memory form of a parsed prototxt network
definition: an ordered list of :class:`LayerSpec` entries, each naming the
layer type, its bottom/top blob names, phase restrictions and a free-form
parameter dictionary (the ``*_param`` blocks of the prototxt).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


@dataclass
class BlobLrSpec:
    """Per-parameter learning-rate / weight-decay multipliers (Caffe's
    ``ParamSpec``: ``param { lr_mult: ... decay_mult: ... }``)."""

    lr_mult: float = 1.0
    decay_mult: float = 1.0


@dataclass
class LayerSpec:
    """One layer entry of a network definition."""

    name: str
    type: str
    bottoms: List[str] = field(default_factory=list)
    tops: List[str] = field(default_factory=list)
    params: Dict[str, Any] = field(default_factory=dict)
    phase: Optional[str] = None  # None = both phases, else "TRAIN" / "TEST"
    param_specs: List[BlobLrSpec] = field(default_factory=list)
    loss_weight: Optional[float] = None

    def param(self, key: str, default: Any = None) -> Any:
        """Look up a parameter with a default, e.g. ``spec.param("num_output")``."""
        return self.params.get(key, default)

    def require(self, key: str) -> Any:
        if key not in self.params:
            raise KeyError(
                f"layer {self.name!r} (type {self.type}) is missing required "
                f"parameter {key!r}"
            )
        return self.params[key]


@dataclass
class NetSpec:
    """A full network definition."""

    name: str = ""
    layers: List[LayerSpec] = field(default_factory=list)
    inputs: List[str] = field(default_factory=list)
    input_shapes: List[Sequence[int]] = field(default_factory=list)

    def layer(self, name: str) -> LayerSpec:
        for spec in self.layers:
            if spec.name == name:
                return spec
        raise KeyError(f"network {self.name!r} has no layer named {name!r}")

    def layers_for_phase(self, phase: str) -> List[LayerSpec]:
        """Layers active in ``phase`` (``"TRAIN"`` or ``"TEST"``)."""
        if phase not in ("TRAIN", "TEST"):
            raise ValueError(f"phase must be TRAIN or TEST, got {phase!r}")
        return [s for s in self.layers if s.phase in (None, phase)]

    def validate(self) -> None:
        """Check structural sanity: every declared input carries a shape,
        per-phase unique names, no dangling bottoms.  A name may repeat
        across phases (Caffe's TRAIN/TEST data layers conventionally
        share one)."""
        if len(self.inputs) > len(self.input_shapes):
            missing = ", ".join(
                repr(name) for name in self.inputs[len(self.input_shapes):]
            )
            raise ValueError(
                f"net declares {len(self.inputs)} input(s) but only "
                f"{len(self.input_shapes)} input_shape(s); inputs without "
                f"a shape: {missing}"
            )
        for phase in ("TRAIN", "TEST"):
            seen_names = set()
            for spec in self.layers_for_phase(phase):
                if spec.name in seen_names:
                    raise ValueError(
                        f"duplicate layer name {spec.name!r} in phase {phase}"
                    )
                seen_names.add(spec.name)
            available = set(self.inputs)
            for spec in self.layers_for_phase(phase):
                for bottom in spec.bottoms:
                    if bottom not in available:
                        raise ValueError(
                            f"layer {spec.name!r} consumes blob {bottom!r} "
                            f"which no earlier layer produces (phase {phase})"
                        )
                available.update(spec.tops)


def _copy_layer_spec(spec: LayerSpec) -> LayerSpec:
    """Deep-copy a layer spec, sharing any injected live source object.

    ``source_object`` entries are runtime handles (batch sources with
    cursors, locks, thread teams behind them) passed in by reference;
    they must not be cloned.
    """
    source = spec.params.pop("source_object", None)
    try:
        clone = copy.deepcopy(spec)
    finally:
        if source is not None:
            spec.params["source_object"] = source
    if source is not None:
        clone.params["source_object"] = source
    return clone


def with_batch(spec: NetSpec, batch: Optional[int]) -> NetSpec:
    """A copy of ``spec`` with every batch extent set to ``batch``
    (``spec`` itself when ``batch`` is None): each feeder's
    ``batch_size``, the leading ``dim`` of every ``Input`` layer's
    ``shape`` blocks and of every net-level input shape.  The one batch
    override — ``infer_net(batch=...)`` and the zoo builders both go
    through it, so a live net and the symbolic view describe the same
    workload."""
    if batch is None:
        return spec
    batch = int(batch)
    if batch <= 0:
        raise ValueError(f"batch override must be positive, got {batch}")
    patched = NetSpec(
        name=spec.name,
        layers=[_copy_layer_spec(layer) for layer in spec.layers],
        inputs=list(spec.inputs),
        input_shapes=[
            [batch, *shape[1:]] if len(shape) else list(shape)
            for shape in spec.input_shapes
        ],
    )
    for layer_spec in patched.layers:
        if "batch_size" in layer_spec.params:
            layer_spec.params["batch_size"] = batch
        elif layer_spec.type.lower() == "input":
            raw = layer_spec.params.get("shape")
            for blk in raw if isinstance(raw, list) else [raw]:
                dims = blk.get("dim") if isinstance(blk, dict) else None
                if isinstance(dims, list) and dims:
                    dims[0] = batch
    return patched
