"""Shadow-memory machinery for the dynamic race detector.

The detector replays a layer's chunk schedule once *per simulated
thread* against an identical memory image and diffs the tracked arrays
to recover each thread's write set.  Two replays per thread — one from
the pristine baseline and one from a perturbed baseline — make the
write set robust against writes that happen to store the value already
present (``y[:] = 0`` over zeros would otherwise be invisible).

Write sets come from the snapshot diff alone (plus :class:`RebindWatch`
for attribute rebinds): a race names the tracked array (``blob:``,
``param:`` or ``attr:``) and the first offsets two threads both wrote.
Nothing is hooked into the Blob accessors, so the runtime carries no
instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.framework.blob import Blob

#: Additive perturbation applied to float arrays for the second replay.
#: Small enough to keep label-like floats intact under ``astype(int)``.
PERTURB_EPS = 1e-4


@dataclass
class TrackedArray:
    """One shared array under shadow observation."""

    name: str            # e.g. "blob:conv1.data", "attr:loss._prob"
    array: np.ndarray
    baseline: np.ndarray = field(init=False)
    perturbed: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.baseline = self.array.copy()
        if np.issubdtype(self.array.dtype, np.floating):
            self.perturbed = self.baseline + PERTURB_EPS
        else:
            # int/bool content (labels, argmax indices) must survive
            # exactly — perturbing them would corrupt indexing.
            self.perturbed = self.baseline.copy()

    def restore(self, image: np.ndarray) -> None:
        np.copyto(self.array, image)

    def diff_mask(self, image: np.ndarray) -> np.ndarray:
        flat_now = self.array.reshape(-1)
        flat_img = image.reshape(-1)
        if np.issubdtype(self.array.dtype, np.floating):
            # NaN-safe exact comparison: NaN != NaN would flag untouched
            # NaN-initialized scratch as written.
            now_nan = np.isnan(flat_now)
            img_nan = np.isnan(flat_img)
            mask = (flat_now != flat_img) & ~(now_nan & img_nan)
            return mask
        return flat_now != flat_img


def collect_tracked_arrays(
    net, layer, bottom: Sequence[Blob], top: Sequence[Blob]
) -> List[TrackedArray]:
    """Every shared array the layer's chunks could legally or illegally
    write: all net blob data/diff arrays, the layer's parameter blob
    arrays, and any ndarray attribute hanging off the layer instance.

    Deduplicated by array identity — in-place layers and Split tops
    share backing arrays, and one mask per physical buffer is what the
    race check needs.
    """
    tracked: List[TrackedArray] = []
    seen: Set[int] = set()
    blob_names: Dict[int, str] = {}
    for name, blob in getattr(net, "blob_map", {}).items():
        blob_names[id(blob)] = name

    def add(name: str, arr: Optional[np.ndarray]) -> None:
        if arr is None or not isinstance(arr, np.ndarray) or arr.size == 0:
            return
        base = arr if arr.base is None else arr.base
        if id(base) in seen:
            return
        seen.add(id(base))
        tracked.append(TrackedArray(name, arr))

    def add_blob(label: str, blob: Blob) -> None:
        name = blob_names.get(id(blob), label)
        add(f"blob:{name}.data", getattr(blob, "_flat_data", None))
        add(f"blob:{name}.diff", getattr(blob, "_flat_diff", None))

    for blob in list(bottom) + list(top):
        add_blob("io", blob)
    for i, blob in enumerate(getattr(layer, "blobs", ())):
        add(f"param:{layer.name}.blobs[{i}].data",
            getattr(blob, "_flat_data", None))
        add(f"param:{layer.name}.blobs[{i}].diff",
            getattr(blob, "_flat_diff", None))
    # remaining net blobs: a correct layer never touches them, which is
    # exactly why they are watched
    for name, blob in getattr(net, "blob_map", {}).items():
        add_blob(name, blob)
    for attr, value in vars(layer).items():
        if isinstance(value, np.ndarray):
            add(f"attr:{layer.name}.{attr}", value)
    return tracked


def restore_all(tracked: Sequence[TrackedArray], perturbed: bool) -> None:
    for t in tracked:
        t.restore(t.perturbed if perturbed else t.baseline)


def write_masks(tracked: Sequence[TrackedArray],
                perturbed: bool) -> List[np.ndarray]:
    return [t.diff_mask(t.perturbed if perturbed else t.baseline)
            for t in tracked]


def owner_runs(owners: np.ndarray) -> List[Tuple[int, int, int]]:
    """Collapse an ownership vector into ``(lo, hi, thread)`` runs."""
    runs: List[Tuple[int, int, int]] = []
    lo = 0
    for i in range(1, len(owners) + 1):
        if i == len(owners) or owners[i] != owners[lo]:
            runs.append((lo, i, int(owners[lo])))
            lo = i
    return runs


class RebindWatch:
    """Detects layer attributes *rebound* (``self.x = new_array``) during
    a replay.

    Rebinding replaces the array object, so a snapshot diff of the old
    array sees nothing — yet two threads doing it race on the attribute
    slot itself (last writer wins).  The watch snapshots the identity of
    every ndarray attribute and reports names whose binding changed.
    """

    def __init__(self, layer) -> None:
        self.layer = layer
        self.before = {
            name: value for name, value in vars(layer).items()
            if isinstance(value, np.ndarray)
        }

    def rebound(self) -> Set[str]:
        out: Set[str] = set()
        for name, value in vars(self.layer).items():
            if not isinstance(value, np.ndarray):
                continue
            if name not in self.before or self.before[name] is not value:
                out.add(name)
        return out

    def restore(self) -> None:
        for name, value in list(vars(self.layer).items()):
            if not isinstance(value, np.ndarray):
                continue
            if name not in self.before:
                delattr(self.layer, name)
            elif self.before[name] is not value:
                setattr(self.layer, name, self.before[name])


def thread_write_sets(
    tracked: Sequence[TrackedArray],
    num_threads: int,
    run_chunks,          # callable(thread_id) -> None
    layer=None,
) -> Tuple[List[List[np.ndarray]], List[Set[str]]]:
    """Replay each simulated thread's chunks twice and union the diffs.

    Returns ``(masks, rebinds)``: ``masks[thread][tracked_index]`` is a
    flat boolean write mask per tracked array per thread, and
    ``rebinds[thread]`` names the layer attributes that thread rebound.
    Leaves the tracked arrays (and attribute bindings) restored to their
    baseline image.
    """
    masks: List[List[np.ndarray]] = []
    rebinds: List[Set[str]] = []
    watch = RebindWatch(layer) if layer is not None else None
    for tid in range(num_threads):
        union: Optional[List[np.ndarray]] = None
        thread_rebinds: Set[str] = set()
        for perturbed in (False, True):
            restore_all(tracked, perturbed)
            run_chunks(tid)
            step = write_masks(tracked, perturbed)
            if union is None:
                union = step
            else:
                union = [u | s for u, s in zip(union, step)]
            if watch is not None:
                thread_rebinds |= watch.rebound()
                watch.restore()
        masks.append(union or [])
        rebinds.append(thread_rebinds)
    restore_all(tracked, perturbed=False)
    return masks, rebinds
