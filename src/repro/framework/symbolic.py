"""Symbolic net construction: shape propagation without instantiation.

This mirrors the graph transformations of :class:`~repro.framework.net.Net`
— phase filtering, automatic Split insertion, in-place wiring — but pushes
:class:`~repro.framework.shape_inference.BlobInfo` records through the
registered shape rules instead of instantiating layers and allocating
blobs.  The resulting :class:`SymbolicNet` therefore has *exactly* the
blob names and shapes the real net would have (split copies included),
which is what lets :mod:`repro.analysis.netcheck` assert parity and
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

from repro.framework.net import _copy_layer_spec, _insert_splits
from repro.framework.net_spec import LayerSpec, NetSpec
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


def _override_batch(specs: List[LayerSpec], batch: int) -> None:
    """Rewrite every feeder's batch extent in-place (specs are copies)."""
    for spec in specs:
        type_name = spec.type.lower()
        if type_name in ("data", "memorydata") and "batch_size" in spec.params:
            spec.params["batch_size"] = batch
        elif type_name == "input":
            raw = spec.params.get("shape")
            blocks = raw if isinstance(raw, list) else [raw]
            for blk in blocks:
                if isinstance(blk, dict):
                    dims = blk.get("dim")
                    if isinstance(dims, list) and dims:
                        dims[0] = batch


def _require_extents(
    layer_spec: LayerSpec, names: List[str], infos: List[BlobInfo]
) -> None:
    """An empty blob (a feeder with batch 0, say) carries no work to
    cost or schedule; the formulas downstream divide by its extents."""
    for name, info in zip(names, infos):
        if any(dim <= 0 for dim in info.shape):
            raise ShapeError(
                f"layer {layer_spec.name!r}: blob {name!r} has a "
                f"non-positive extent in shape {info.shape}"
            )


def infer_net(
    spec: NetSpec,
    phase: str = "TRAIN",
    batch: Optional[int] = None,
    strict: bool = True,
) -> SymbolicNet:
    """Propagate shapes through one phase of ``spec``.

    ``batch`` overrides the batch extent of every feeder (Data/MemoryData
    ``batch_size``, Input and net-level input shapes' leading dim) before
    propagation, so what-if planning at a different batch size needs no
    spec surgery.
    """
    if batch is not None:
        batch = int(batch)
        if batch <= 0:
            raise ValueError(f"batch override must be positive, got {batch}")

    phase_specs = [_copy_layer_spec(s) for s in spec.layers_for_phase(phase)]
    if batch is not None:
        _override_batch(phase_specs, batch)
    phase_specs = _insert_splits(phase_specs)

    blob_map: Dict[str, BlobInfo] = {}
    for input_name, input_shape in zip(spec.inputs, spec.input_shapes):
        shape = tuple(int(d) for d in input_shape)
        if batch is not None and shape:
            shape = (batch,) + shape[1:]
        blob_map[input_name] = BlobInfo(shape)
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
            _require_extents(layer_spec, layer_spec.bottoms, bottoms)
            result = infer_layer(layer_spec, bottoms)
            if len(result.tops) != len(layer_spec.tops):
                raise ShapeError(
                    f"layer {layer_spec.name!r}: rule produced "
                    f"{len(result.tops)} tops for {len(layer_spec.tops)} "
                    "declared top(s)"
                )
            _require_extents(layer_spec, layer_spec.tops, result.tops)
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
