"""Symbolic net construction: shape propagation without instantiation.

This applies the graph transformations of :class:`~repro.framework.net.Net`
— phase filtering, automatic Split insertion, in-place wiring — but pushes
:class:`~repro.framework.shape_inference.BlobInfo` records through the
registered shape rules instead of instantiating layers and allocating
blobs.  A live layer shapes itself through the same
:func:`~repro.framework.shape_inference.infer_layer` call, so the
resulting :class:`SymbolicNet` has *exactly* the blob names and shapes the
real net has (split copies included) and refuses exactly the specs
``Net(spec)`` refuses — which is what lets
:func:`repro.simulator.cost_model.spec_costs` run the machine models from
a spec alone.

Two failure modes:

* ``strict=True`` (default): the first inference failure raises
  :class:`~repro.framework.shape_inference.ShapeError` (or ``KeyError``
  for an unregistered layer type) — the behaviour cost extraction wants;
* ``strict=False``: failures are recorded per layer and downstream layers
  whose bottoms became unknown are marked ``skipped`` — the behaviour the
  linter wants, so one bad layer yields one finding instead of aborting
  the whole report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.framework.net import _insert_splits
from repro.framework.net_spec import LayerSpec, NetSpec, with_batch
from repro.framework.shape_inference import (
    BlobInfo,
    RuleResult,
    ShapeError,
    infer_layer,
)


@dataclass
class LayerInference:
    """Inference outcome for one layer of the (split-inserted) graph."""

    spec: LayerSpec
    bottoms: Optional[List[BlobInfo]]
    result: Optional[RuleResult]
    error: Optional[str] = None
    #: True when the layer was never inferred because an upstream failure
    #: left one of its bottoms without a shape.
    skipped: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class SymbolicNet:
    """Shape-inferred view of one phase of a :class:`NetSpec`."""

    name: str
    phase: str
    layers: List[LayerInference]
    #: blob name -> inferred info, over the split-inserted graph; matches
    #: ``Net.blob_map`` key-for-key when inference fully succeeds.
    blob_map: Dict[str, BlobInfo] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(layer.ok for layer in self.layers)

    def errors(self) -> List[str]:
        return [l.error for l in self.layers if l.error is not None]


def infer_net(
    spec: NetSpec,
    phase: str = "TRAIN",
    batch: Optional[int] = None,
    strict: bool = True,
) -> SymbolicNet:
    """Propagate shapes through one phase of ``spec``.

    ``batch`` overrides every batch extent first
    (:func:`~repro.framework.net_spec.with_batch`), so what-if planning
    at a different batch size needs no spec surgery.
    """
    spec = with_batch(spec, batch)
    phase_specs = _insert_splits(spec.layers_for_phase(phase))

    blob_map: Dict[str, BlobInfo] = {}
    for input_name, input_shape in zip(spec.inputs, spec.input_shapes):
        blob_map[input_name] = BlobInfo(tuple(int(d) for d in input_shape))
    # Inputs beyond input_shapes get no entry: their consumers are
    # reported (lint NG006 / strict ShapeError) rather than guessed at.

    layers: List[LayerInference] = []
    for layer_spec in phase_specs:
        bottoms: List[BlobInfo] = []
        missing = None
        for bottom_name in layer_spec.bottoms:
            info = blob_map.get(bottom_name)
            if info is None:
                missing = bottom_name
                break
            bottoms.append(info)
        if missing is not None:
            msg = (
                f"layer {layer_spec.name!r}: bottom {missing!r} has no "
                "known shape"
            )
            if strict:
                raise ShapeError(msg)
            layers.append(LayerInference(
                layer_spec, None, None, error=msg, skipped=True,
            ))
            continue

        try:
            result = infer_layer(layer_spec, bottoms)
        except ShapeError as exc:
            if strict:
                raise
            layers.append(LayerInference(
                layer_spec, bottoms, None, error=str(exc),
            ))
            continue
        except KeyError as exc:
            if strict:
                raise
            layers.append(LayerInference(
                layer_spec, bottoms, None,
                error=str(exc.args[0]) if exc.args else str(exc),
            ))
            continue

        for top_name, info in zip(layer_spec.tops, result.tops):
            blob_map[top_name] = info
        layers.append(LayerInference(layer_spec, bottoms, result))

    return SymbolicNet(
        name=spec.name, phase=phase, layers=layers, blob_map=blob_map,
    )
