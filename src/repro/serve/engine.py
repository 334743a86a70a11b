"""The inference engine: batched TEST-phase execution with recovery.

One engine owns one TEST-phase :class:`~repro.framework.net.Net` and one
:class:`~repro.core.parallel_net.ParallelExecutor` (ThreadTeam inside,
plancheck plan honored when given).  The server hands it a formed batch
of raw samples; the engine:

1. **stages** the batch: every sample's shape is checked, then one
   assignment fills a fresh zero-padded ``(max_batch, ...)`` float32
   array;
2. **quarantines poisoned inputs** — one per-row finiteness mask over
   the live rows demotes any sample carrying NaN/Inf (or a value
   float32 cannot hold) to a coded per-request error and zeroes its
   row, so one malformed payload cannot poison its batch-mates (the
   HealthGuard sentinel idea applied per-sample instead of
   per-iteration); the array then turns read-only and is parked once
   in the net's data layers via :class:`StagedSource`, so a retry
   replays the *identical* bytes without staging again;
3. **executes** the forward pass over the live rows only, up to the
   logits (``executor.forward(net, rows=k, upto=...)``: blobs stay at
   ``max_batch``, each sample-disjoint loop covers the first ``k``
   samples, and the loss/accuracy layers past the logits never run —
   every served row is bitwise the padded pass's row), and on a worker
   fault restarts the crashed thread team
   (:meth:`~repro.core.team.ThreadTeam.restart`) and retries with
   exponential backoff through the injected clock — the batch is
   replayed, and the pending-table's idempotent delivery upstream makes
   the replay exactly-once from the client's view;
4. **quarantines poisoned outputs** — the live logits are copied once
   and one finiteness mask over the copy turns a non-finite row into a
   coded error rather than a served lie; served rows are views of that
   copy;
5. **logs** the exact batch composition (request ids + the staged
   array itself) so the servecheck certifier can re-run every served
   batch through plain sequential ``Net.forward`` and demand bitwise
   parity.

Hot reload (:meth:`InferenceEngine.reload`) parses and validates the
new parameters *before* taking the engine lock, then swaps under it —
the in-flight batch drains first, and a failed validation leaves the
old parameters untouched (atomic swap).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.parallel_net import ParallelExecutor
from repro.core.team import WorkerError
from repro.framework.blob import DTYPE
from repro.resilience.checkpoint import (
    MAGIC,
    CheckpointMismatch,
    checked_load,
    load_npz_verified,
)
from repro.resilience.faults import InjectedFault
from repro.serve.clock import Clock, MonotonicClock


class EngineFault(RuntimeError):
    """The executor kept failing after every retry; the batch's requests
    get coded ``error`` responses (never silence)."""

    def __init__(self, message: str, attempts: int) -> None:
        super().__init__(message)
        self.attempts = attempts


class StagedSource:
    """A batch source whose next batch is staged explicitly.

    Replaces a data layer's streaming source for serving: ``stage()``
    parks one batch, every ``next_batch`` call returns exactly those
    bytes (idempotent — a crash-retry of the forward pass re-reads the
    identical batch).  Implements the cursor protocol
    (``get_state``/``set_state``) like every other batch source.
    """

    def __init__(self, shape: Tuple[int, ...]) -> None:
        self.shape = tuple(int(d) for d in shape)
        self._images: Optional[np.ndarray] = None
        self._labels: Optional[np.ndarray] = None
        self.batches_served = 0

    def stage(self, images: np.ndarray,
              labels: Optional[np.ndarray] = None) -> None:
        images = np.asarray(images, dtype=DTYPE)
        if images.shape[1:] != self.shape:
            raise ValueError(
                f"staged sample shape {images.shape[1:]} != source "
                f"shape {self.shape}"
            )
        self._images = images
        self._labels = (np.zeros(images.shape[0], dtype=DTYPE)
                        if labels is None
                        else np.asarray(labels, dtype=DTYPE))

    def next_batch(self, batch_size: int):
        if self._images is None:
            raise RuntimeError("no batch staged")
        if len(self._images) != batch_size:
            raise ValueError(
                f"staged batch holds {len(self._images)} samples, "
                f"data layer asked for {batch_size}"
            )
        self.batches_served += 1
        return self._images, self._labels

    def get_state(self) -> Dict[str, int]:
        return {"batches_served": self.batches_served}

    def set_state(self, state: Dict[str, int]) -> None:
        self.batches_served = int(state["batches_served"])


@dataclass(frozen=True)
class BatchRecord:
    """What the certifier needs to replay one served batch bit-exactly."""

    batch_index: int
    request_ids: Tuple[Optional[str], ...]   # None = padding row
    images: np.ndarray                        # staged (max_batch, C, H, W),
                                              # read-only


@dataclass
class BatchResult:
    """Per-row outcome of one executed batch."""

    batch_index: int
    outputs: List[Optional[np.ndarray]]   # logits row, or None if quarantined
    quarantined_input: List[int]
    quarantined_output: List[int]
    attempts: int
    restarts: int
    completed_at: float


def _swap_in_staged_sources(net, max_batch: int) -> List[StagedSource]:
    """Replace every data layer's source with a StagedSource at the
    serving batch size; returns the staged sources (usually one)."""
    staged: List[StagedSource] = []
    for layer in net.layers:
        source = getattr(layer, "source", None)
        if source is None or not hasattr(layer, "batch_size"):
            continue
        replacement = StagedSource(tuple(source.shape))
        layer.source = replacement
        layer.batch_size = max_batch
        staged.append(replacement)
    if not staged:
        raise ValueError(
            "net has no source-backed data layer to serve through"
        )
    return staged


def _resolve_output_blob(net, output_blob: Optional[str]):
    """The logits blob: named explicitly, or the loss layer's bottom."""
    if output_blob is not None:
        return net.blob(output_blob)
    for layer, bottom in zip(net.layers, net.bottoms):
        if any(layer.loss_weights) and bottom:
            return bottom[0]
    raise ValueError(
        "cannot infer the output blob (no loss layer with a bottom); "
        "pass output_blob= explicitly"
    )


class InferenceEngine:
    """Executes formed batches on the parallel runtime, with recovery."""

    def __init__(
        self,
        net_factory,
        num_threads: int = 1,
        max_batch: int = 8,
        clock: Optional[Clock] = None,
        plan=None,
        reduction: str = "blockwise",
        output_blob: Optional[str] = None,
        max_retries: int = 2,
        backoff_s: float = 0.005,
        record_batches: bool = True,
    ) -> None:
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.net_factory = net_factory
        self.clock = clock if clock is not None else MonotonicClock()
        self.max_batch = max_batch
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.record_batches = record_batches
        self.net = net_factory()
        self._staged = _swap_in_staged_sources(self.net, max_batch)
        self.sample_shape = self._staged[0].shape
        self.executor = ParallelExecutor(
            num_threads=num_threads, reduction=reduction, plan=plan,
        )
        self._output = _resolve_output_blob(self.net, output_blob)
        #: Index of the last layer the served forward runs: the last
        #: writer of the output blob.
        self.upto = max(i for i, tops in enumerate(self.net.tops)
                        if any(top is self._output for top in tops))
        self._engine_lock = threading.Lock()
        self.batches_executed = 0
        self.restarts = 0
        self.reloads = 0
        self.batch_log: List[BatchRecord] = []

    # -- execution -----------------------------------------------------
    def run_batch(
        self,
        samples: Sequence[np.ndarray],
        request_ids: Optional[Sequence[Optional[str]]] = None,
    ) -> BatchResult:
        """Execute one batch of up to ``max_batch`` raw samples.

        Returns per-row outputs/quarantine flags; raises
        :class:`EngineFault` only when every retry failed (the caller
        must then answer each request with a coded error).
        """
        k = len(samples)
        if k == 0 or k > self.max_batch:
            raise ValueError(
                f"batch size {k} outside [1, {self.max_batch}]"
            )
        if request_ids is None:
            request_ids = [None] * k
        elif len(request_ids) != k:
            raise ValueError(
                f"request_ids holds {len(request_ids)} id(s) for {k} "
                "sample(s); each sample needs exactly one"
            )
        for i, sample in enumerate(samples):
            shape = getattr(sample, "shape", None)  # None: not an array
            if shape != self.sample_shape:
                raise ValueError(
                    f"sample {i} has shape {shape}, expected "
                    f"{self.sample_shape}"
                )
        images = np.zeros((self.max_batch,) + self.sample_shape, dtype=DTYPE)
        live = images[:k]
        live[...] = samples
        finite_in = np.isfinite(live).reshape(k, -1).all(axis=1)
        ok_in = finite_in.tolist()
        if not all(ok_in):
            live[~finite_in] = 0  # poisoned rows stay zero: batch-safe
        images.flags.writeable = False
        with self._engine_lock:
            attempts = self._forward_with_recovery(images, k)
            batch_index = self.batches_executed
            self.batches_executed += 1
            completed_at = self.clock.now()
            served = self._output.data[:k].copy()
            ok_out = np.isfinite(served).reshape(k, -1).all(axis=1).tolist()
            if self.record_batches:
                padded_ids = tuple(request_ids) + (None,) * (
                    self.max_batch - k
                )
                self.batch_log.append(BatchRecord(
                    batch_index=batch_index,
                    request_ids=padded_ids,
                    images=images,
                ))
        return BatchResult(
            batch_index=batch_index,
            outputs=[row if good_in and good_out else None
                     for row, good_in, good_out in zip(served, ok_in, ok_out)],
            quarantined_input=[i for i, good in enumerate(ok_in) if not good],
            quarantined_output=[i for i, (good_in, good_out)
                                in enumerate(zip(ok_in, ok_out))
                                if good_in and not good_out],
            attempts=attempts,
            restarts=self.restarts,
            completed_at=completed_at,
        )

    def _forward_with_recovery(self, images: np.ndarray, rows: int) -> int:
        """Stage once, then forward the first ``rows`` samples up to the
        logits, restarting the team on transient faults; the staged
        array is read-only, so every attempt reads the same bytes."""
        for source in self._staged:
            source.stage(images)
        attempts = 0
        while True:
            attempts += 1
            try:
                self.executor.forward(self.net, rows=rows, upto=self.upto)
                return attempts
            except (WorkerError, InjectedFault) as exc:
                if attempts > self.max_retries:
                    raise EngineFault(
                        f"forward pass failed {attempts} time(s), "
                        f"retries exhausted: {exc}",
                        attempts=attempts,
                    ) from exc
                # A crashed worker team cannot be reused: respawn it,
                # back off (virtual or real seconds), replay the batch.
                self.restarts += 1
                self.executor.team.restart()
                self.clock.sleep(self.backoff_s * (2 ** (attempts - 1)))

    # -- hot reload ----------------------------------------------------
    def reload(self, path: str) -> int:
        """Atomically swap in parameters from ``path``.

        Accepts either a full RCKP checkpoint container (the ``param::``
        entries are extracted) or a weights-only digest-verified
        ``.npz`` (``Net.save``).  Parsing and validation happen before
        the engine lock is taken; the swap itself waits for the
        in-flight batch to drain.  Returns the reload generation.
        """
        state = self._load_params(path)
        with self._engine_lock:
            self.net.load_state_dict(state)
            self.reloads += 1
            return self.reloads

    def _load_params(self, path: str) -> Dict[str, List[np.ndarray]]:
        with open(path, "rb") as handle:
            head = handle.read(len(MAGIC))
        grouped: Dict[str, List[Tuple[int, np.ndarray]]] = {}
        if head == MAGIC:
            for key, arr in checked_load(path).items():
                if key.startswith("param::"):
                    _, layer_name, index = key.split("::")
                    grouped.setdefault(layer_name, []).append(
                        (int(index), arr)
                    )
        else:
            for key, arr in load_npz_verified(path).items():
                layer_name, index = key.rsplit("::", 1)
                grouped.setdefault(layer_name, []).append((int(index), arr))
        state = {
            name: [arr for _, arr in sorted(pairs)]
            for name, pairs in grouped.items()
        }
        for layer in self.net.layers:
            if not layer.blobs:
                continue
            arrays = state.get(layer.name)
            if arrays is None:
                raise CheckpointMismatch(
                    f"{path!r} carries no parameters for layer "
                    f"{layer.name!r}; refusing a partial hot reload"
                )
            if len(arrays) != len(layer.blobs):
                raise CheckpointMismatch(
                    f"{path!r} has {len(arrays)} parameter blobs for "
                    f"layer {layer.name!r}, the live net has "
                    f"{len(layer.blobs)}"
                )
        return state

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self.executor.team.shutdown()

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
