"""Net: assembles layers into a DAG and drives forward/backward passes.

Construction follows Caffe's ``Net::Init``:

1. filter the :class:`~repro.framework.net_spec.NetSpec` by phase;
2. automatically insert :class:`~repro.framework.layers.split.SplitLayer`
   instances wherever a blob is consumed by more than one downstream layer
   (so backward gradients accumulate correctly);
3. instantiate layers in definition order, wiring bottom/top blobs by
   name (identical bottom/top names request in-place operation);
4. compute, per layer and bottom, whether gradients must flow
   (``propagate_down``), by propagating "needs gradient" from parameters
   downstream.

The sequential training iteration of the paper's Algorithm 1 is
``net.forward()`` (lines 3-7) followed by ``net.backward()`` (lines 8-10);
the solver's ``updateCoefficients`` lives in :mod:`repro.framework.solvers`.
"""

from __future__ import annotations

import copy as _copy
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.framework.blob import Blob
from repro.framework.layer import Layer, create_layer
from repro.framework.net_spec import (
    BlobLrSpec,
    LayerSpec,
    NetSpec,
    _copy_layer_spec,
)
from repro.framework.solvers.base import SequentialExecutor


def _insert_splits(specs: List[LayerSpec]) -> List[LayerSpec]:
    """Rewrite the layer list, inserting Split layers for shared blobs.

    Returns a new list of (possibly rewritten copies of) layer specs.
    Mirrors Caffe's ``InsertSplits``: each *production* of a blob name may
    feed at most one consumer directly; extra consumers get split copies
    named ``<blob>_<producer>_split_<i>``.
    """
    # production id -> (producer index, blob name); consumption lists.
    producer_of: Dict[str, int] = {}
    consumers: Dict[tuple, List[int]] = {}
    inplace_consumer: Dict[tuple, int] = {}

    for idx, spec in enumerate(specs):
        for bottom in spec.bottoms:
            production = (bottom, producer_of.get(bottom, -1))
            if bottom in spec.tops:
                if production in inplace_consumer:
                    raise ValueError(
                        f"blob {bottom!r} has two in-place consumers "
                        f"({specs[inplace_consumer[production]].name!r} and "
                        f"{spec.name!r})"
                    )
                inplace_consumer[production] = idx
            else:
                consumers.setdefault(production, []).append(idx)
        for top in spec.tops:
            producer_of[top] = idx

    out: List[LayerSpec] = []
    # For consumers needing rewiring: (consumer idx, blob) -> new name.
    rewires: Dict[tuple, str] = {}
    splits_after: Dict[int, List[LayerSpec]] = {}

    for production, consumer_list in consumers.items():
        blob_name, producer_idx = production
        if production in inplace_consumer and consumer_list:
            raise ValueError(
                f"blob {blob_name!r} is consumed in-place by "
                f"{specs[inplace_consumer[production]].name!r} but also by "
                f"{[specs[i].name for i in consumer_list]}; Caffe forbids this"
            )
        if len(consumer_list) <= 1:
            continue
        producer_name = (
            specs[producer_idx].name if producer_idx >= 0 else "input"
        )
        split_tops = [
            f"{blob_name}_{producer_name}_split_{i}"
            for i in range(len(consumer_list))
        ]
        split_spec = LayerSpec(
            name=f"{blob_name}_{producer_name}_split",
            type="Split",
            bottoms=[blob_name],
            tops=split_tops,
        )
        splits_after.setdefault(producer_idx, []).append(split_spec)
        for i, consumer_idx in enumerate(consumer_list):
            rewires[(consumer_idx, blob_name)] = split_tops[i]

    for idx, spec in enumerate(specs):
        needed = [(k, v) for k, v in rewires.items() if k[0] == idx]
        if needed:
            spec = _copy.deepcopy(spec)
            for (_, blob_name), new_name in needed:
                spec.bottoms = [
                    new_name if b == blob_name else b for b in spec.bottoms
                ]
        out.append(spec)
        for split_spec in splits_after.get(idx, []):
            out.append(split_spec)
    # Splits for input blobs (producer_idx == -1) go first.
    prefix = splits_after.get(-1, [])
    return prefix + out


class Net:
    """A runnable network for one phase.

    Parameters
    ----------
    spec:
        The parsed network definition.
    phase:
        ``"TRAIN"`` or ``"TEST"``.
    sources:
        Optional mapping from data-layer names to batch-source objects,
        injected as each data layer's ``source_object`` (overriding the
        registry lookup).  This is how tests and examples plug synthetic
        datasets in.
    """

    def __init__(
        self,
        spec: NetSpec,
        phase: str = "TRAIN",
        sources: Optional[Dict[str, object]] = None,
    ) -> None:
        spec.validate()
        self.name = spec.name
        self.phase = phase
        phase_specs = [
            _copy_layer_spec(s) for s in spec.layers_for_phase(phase)
        ]
        if sources:
            for layer_spec in phase_specs:
                if layer_spec.name in sources:
                    layer_spec.params["source_object"] = sources[layer_spec.name]
        phase_specs = _insert_splits(phase_specs)

        self.layers: List[Layer] = []
        self.layer_names: List[str] = []
        self.blob_map: Dict[str, Blob] = {}
        self.bottoms: List[List[Blob]] = []
        self.tops: List[List[Blob]] = []
        self.bottom_need_backward: List[List[bool]] = []
        self._blob_needs_grad: Dict[int, bool] = {}  # id(blob) -> bool

        # validate() guarantees len(input_shapes) >= len(inputs); an input
        # without a declared shape is a spec error, not an empty blob.
        for input_name, input_shape in zip(spec.inputs, spec.input_shapes):
            blob = Blob(tuple(input_shape), name=input_name)
            self.blob_map[input_name] = blob
            self._blob_needs_grad[id(blob)] = False

        for layer_spec in phase_specs:
            self._append_layer(layer_spec)

        self.learnable_params: List[Blob] = []
        self.params_lr: List[float] = []
        self.params_decay: List[float] = []
        self.param_owners: List[str] = []
        for layer, layer_spec in zip(self.layers, phase_specs):
            for i, blob in enumerate(layer.blobs):
                param_spec = (
                    layer_spec.param_specs[i]
                    if i < len(layer_spec.param_specs)
                    else BlobLrSpec()
                )
                self.learnable_params.append(blob)
                self.params_lr.append(param_spec.lr_mult)
                self.params_decay.append(param_spec.decay_mult)
                self.param_owners.append(layer.name)

    def _append_layer(self, layer_spec: LayerSpec) -> None:
        bottom_blobs: List[Blob] = []
        for bottom_name in layer_spec.bottoms:
            if bottom_name not in self.blob_map:
                raise ValueError(
                    f"layer {layer_spec.name!r} consumes unknown blob "
                    f"{bottom_name!r}"
                )
            bottom_blobs.append(self.blob_map[bottom_name])
        top_blobs: List[Blob] = []
        for top_name in layer_spec.tops:
            if top_name in layer_spec.bottoms:
                top_blobs.append(self.blob_map[top_name])  # in-place
            else:
                blob = Blob((), name=top_name)
                self.blob_map[top_name] = blob
                top_blobs.append(blob)

        layer = create_layer(layer_spec)
        if hasattr(layer, "train_mode"):
            layer.train_mode = self.phase == "TRAIN"
        layer.setup(bottom_blobs, top_blobs)

        needs = any(
            self._blob_needs_grad.get(id(b), False) for b in bottom_blobs
        ) or bool(layer.blobs)
        propagate = [
            self._blob_needs_grad.get(id(b), False) for b in bottom_blobs
        ]
        # Integer-label bottoms of loss/accuracy layers never need grads;
        # the generic rule already gives False unless upstream has params.
        for top_blob in top_blobs:
            self._blob_needs_grad[id(top_blob)] = needs

        self.layers.append(layer)
        self.layer_names.append(layer_spec.name)
        self.bottoms.append(bottom_blobs)
        self.tops.append(top_blobs)
        self.bottom_need_backward.append(propagate)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def forward(self) -> float:
        """Run the full forward pass sequentially; returns the weighted
        total loss.  This is :class:`SequentialExecutor`'s walk — the
        walk and layer bodies every executor runs, with the sequential
        chunk runner."""
        return SequentialExecutor().forward(self)

    def backward(self) -> None:
        """Run the full backward pass sequentially, accumulating
        parameter diffs (:class:`SequentialExecutor`'s walk)."""
        SequentialExecutor().backward(self)

    def _seed_loss_diffs(self) -> None:
        """Set d(total)/d(loss output) = 1 on every loss top."""
        for layer, tops in zip(self.layers, self.tops):
            for top_blob, weight in zip(tops, layer.loss_weights):
                if weight:
                    top_blob.flat_diff[0] = 1.0

    def forward_backward(self) -> float:
        loss = self.forward()
        self.backward()
        return loss

    def clear_param_diffs(self) -> None:
        for blob in self.learnable_params:
            blob.zero_diff()

    # ------------------------------------------------------------------
    # access helpers
    # ------------------------------------------------------------------
    def blob(self, name: str) -> Blob:
        if name not in self.blob_map:
            known = ", ".join(sorted(self.blob_map))
            raise KeyError(f"net has no blob {name!r}; blobs: {known}")
        return self.blob_map[name]

    def layer(self, name: str) -> Layer:
        for layer_name, layer in zip(self.layer_names, self.layers):
            if layer_name == name:
                return layer
        raise KeyError(f"net has no layer {name!r}")

    def has_layer(self, name: str) -> bool:
        return name in self.layer_names

    # ------------------------------------------------------------------
    # parameter snapshot / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, List[np.ndarray]]:
        """Copy of every layer's parameter arrays, keyed by layer name."""
        state: Dict[str, List[np.ndarray]] = {}
        for layer in self.layers:
            if layer.blobs:
                state[layer.name] = [b.data.copy() for b in layer.blobs]
        return state

    def load_state_dict(self, state: Dict[str, Sequence[np.ndarray]]) -> None:
        for layer in self.layers:
            if layer.name in state:
                arrays = state[layer.name]
                if len(arrays) != len(layer.blobs):
                    raise ValueError(
                        f"layer {layer.name!r}: snapshot has {len(arrays)} "
                        f"blobs, layer has {len(layer.blobs)}"
                    )
                for blob, arr in zip(layer.blobs, arrays):
                    blob.set_data(np.asarray(arr))

    def save(self, path: str) -> None:
        """Serialize parameters to an ``.npz`` file.

        The write is atomic (temp file + ``os.replace``, so a crash
        mid-save cannot destroy a previous snapshot) and embeds a
        CRC-32 digest entry that :meth:`load` verifies.  The file stays
        a plain ``np.load``-able archive for interchange.
        """
        from repro.resilience.checkpoint import atomic_savez_with_digest

        flat: Dict[str, np.ndarray] = {}
        for layer_name, arrays in self.state_dict().items():
            for i, arr in enumerate(arrays):
                flat[f"{layer_name}::{i}"] = arr
        atomic_savez_with_digest(path, flat)

    def load(self, path: str) -> None:
        """Restore a :meth:`save` snapshot, verifying its digest first.

        A truncated/garbled file raises
        :class:`~repro.resilience.checkpoint.CheckpointCorrupt` naming
        the file and the expected/actual digest instead of a raw
        zipfile error.
        """
        from repro.resilience.checkpoint import load_npz_verified

        state: Dict[str, List[np.ndarray]] = {}
        for key, arr in load_npz_verified(path).items():
            layer_name, idx = key.rsplit("::", 1)
            state.setdefault(layer_name, []).append((int(idx), arr))
        ordered = {
            name: [arr for _, arr in sorted(pairs)]
            for name, pairs in state.items()
        }
        self.load_state_dict(ordered)

    def memory_bytes(self) -> int:
        """Total blob memory (activations + parameters), for the paper's
        Section 3.2.1 memory accounting."""
        seen = set()
        total = 0
        for blob in self.blob_map.values():
            if id(blob) not in seen:
                seen.add(id(blob))
                total += blob.nbytes
        for layer in self.layers:
            for blob in layer.blobs:
                if id(blob) not in seen:
                    seen.add(id(blob))
                    total += blob.nbytes
        return total
