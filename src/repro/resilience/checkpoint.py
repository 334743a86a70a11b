"""Crash-consistent checkpointing for the training runtime.

Two failure modes killed "resume" before this module existed: a crash
*during* the write tore the snapshot file (``np.savez`` writes in place,
so the previous good checkpoint was already gone), and a *successful*
write silently omitted trajectory state — the LR-policy identity, every
layer's RNG stream, and the data-source cursor — so the resumed run
forked from the certified trajectory without any error.

The fixes:

* **Atomic writes** — every snapshot goes to a temp file in the target
  directory, is flushed and fsynced, then ``os.replace``d over the
  destination.  A crash at any point leaves either the old file or the
  new one, never a torn hybrid (:func:`atomic_write_bytes`).
* **Checksummed container** — full checkpoints are wrapped in a small
  versioned header (magic ``RCKP``, format version, CRC-32, payload
  length) so corruption and truncation are detected *before* the
  payload is handed to ``np.load`` (:class:`CheckpointCorrupt` names
  the file and the expected/actual digest).  Pre-resilience ``.npz``
  snapshots are rejected with a versioned-header error instead of
  resuming with silently missing state (:class:`CheckpointFormatError`).
* **Complete state** — :func:`save_checkpoint` captures parameters,
  solver history, the iteration counter, the loss history, the
  LR-policy identity (verified on resume), every layer RNG stream
  declared capturable via :meth:`repro.framework.layer.Layer.rng_state`,
  and every batch source's cursor (``get_state``/``set_state``).
  :func:`load_checkpoint` refuses to restore when any of those would be
  lost or does not fit the target — a source's ``check_state`` vets its
  cursor before anything is mutated (:class:`CheckpointMismatch`) — so a
  resume either reproduces the trajectory bitwise or fails loudly.

Weights-only ``.npz`` files (``Net.save``) stay plain NumPy archives for
interchange, but are written atomically with an embedded ``__crc32__``
digest entry that :func:`load_npz_verified` checks.
"""

from __future__ import annotations

import io
import json
import os
import struct
import tempfile
import zipfile
import zlib
from typing import Dict, List, Optional

import numpy as np

#: Container magic + current checkpoint format version.
MAGIC = b"RCKP"
CHECKPOINT_VERSION = 1

#: Header layout: magic(4s) | version(u16) | crc32(u32) | payload_len(u64).
_HEADER = struct.Struct("<4sHIQ")

#: Digest entry embedded in weights-only archives.
DIGEST_KEY = "__crc32__"


class CheckpointError(RuntimeError):
    """Base class of every checkpoint failure."""


class CheckpointCorrupt(CheckpointError):
    """The file's bytes do not match its recorded digest (or cannot be
    parsed at all).  Carries the path and, when a digest comparison was
    possible, the expected/actual CRC-32 values."""

    def __init__(
        self,
        path: str,
        reason: str,
        expected: Optional[int] = None,
        actual: Optional[int] = None,
    ) -> None:
        detail = f"checkpoint {path!r} is corrupt: {reason}"
        if expected is not None and actual is not None:
            detail += (
                f" (expected CRC-32 {expected:#010x}, got {actual:#010x})"
            )
        super().__init__(detail)
        self.path = path
        self.expected = expected
        self.actual = actual


class CheckpointFormatError(CheckpointError):
    """The file is not a current-format checkpoint (alien file, or a
    pre-resilience snapshot missing RNG/cursor state)."""


class CheckpointMismatch(CheckpointError):
    """The checkpoint is intact but does not fit the target solver —
    restoring it would silently fork the certified trajectory."""


# ---------------------------------------------------------------------------
# atomic byte-level writer (the single state-write primitive)
# ---------------------------------------------------------------------------
def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` so a crash can never tear the file.

    The bytes go to a temp file in the same directory (same filesystem,
    so the final ``os.replace`` is atomic), are flushed and fsynced,
    then renamed over the destination.  Either the previous file or the
    complete new one survives any crash point.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".tmp."
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    try:  # best effort: persist the rename itself
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# checksummed container (full checkpoints)
# ---------------------------------------------------------------------------
def write_container(path: str, payload: bytes,
                    version: int = CHECKPOINT_VERSION) -> None:
    """Atomically write ``payload`` wrapped in the checksummed header."""
    header = _HEADER.pack(MAGIC, version, zlib.crc32(payload), len(payload))
    atomic_write_bytes(path, header + payload)


def read_container(path: str) -> bytes:
    """Read and verify a container file; returns the payload bytes.

    Verification order: magic/version first (so alien and old-format
    files get a :class:`CheckpointFormatError` naming the problem), then
    length, then the CRC-32 digest — all *before* the payload reaches
    any parser.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[:4] == b"PK\x03\x04":
        raise CheckpointFormatError(
            f"{path!r} is a pre-resilience (unversioned) .npz snapshot: it "
            "carries no checksum, no RNG streams and no data-source cursor, "
            "so resuming from it would silently fork the trajectory; "
            "re-create it with the current save_state/save_checkpoint"
        )
    if len(blob) < _HEADER.size:
        # Zero-length and header-truncated files must never surface as a
        # bare struct.error/EOFError from the unpack below: name the path
        # and the byte count so a torn write is diagnosable at a glance.
        raise CheckpointFormatError(
            f"{path!r} is truncated before the checkpoint header ends: the "
            f"file holds {len(blob)} byte(s) but the {MAGIC!r} versioned "
            f"header alone is {_HEADER.size} bytes"
        )
    if blob[:4] != MAGIC:
        raise CheckpointFormatError(
            f"{path!r} is not a checkpoint container (bad magic); expected "
            f"the {MAGIC!r} versioned header"
        )
    magic, version, crc, length = _HEADER.unpack_from(blob)
    if version > CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"{path!r} has checkpoint format version {version}; this "
            f"runtime reads up to version {CHECKPOINT_VERSION}"
        )
    payload = blob[_HEADER.size:]
    if len(payload) != length:
        raise CheckpointCorrupt(
            path,
            f"truncated payload: header promises {length} bytes, "
            f"file holds {len(payload)}",
        )
    actual = zlib.crc32(payload)
    if actual != crc:
        raise CheckpointCorrupt(
            path, "payload bytes do not match the recorded digest",
            expected=crc, actual=actual,
        )
    return payload


def atomic_savez(path: str, arrays: Dict[str, np.ndarray]) -> None:
    """Serialize ``arrays`` to an npz payload inside the container."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    write_container(path, buffer.getvalue())


def checked_load(path: str) -> Dict[str, np.ndarray]:
    """Load a container written by :func:`atomic_savez`."""
    payload = read_container(path)
    try:
        with np.load(io.BytesIO(payload)) as archive:
            return {key: archive[key] for key in archive.files}
    except (zipfile.BadZipFile, OSError, ValueError, EOFError) as exc:
        # The digest matched, so this is a writer bug, not bit rot — but
        # still name the file rather than leaking a raw zipfile error.
        raise CheckpointCorrupt(
            path, f"digest-valid payload failed to parse: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# weights-only archives (Net.save interchange format)
# ---------------------------------------------------------------------------
def _digest_arrays(arrays: Dict[str, np.ndarray]) -> int:
    """CRC-32 over a canonical serialization of the array dict."""
    crc = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        meta = f"{name}|{arr.dtype.str}|{arr.shape}".encode()
        crc = zlib.crc32(meta, crc)
        crc = zlib.crc32(arr.tobytes(), crc)
    return crc


def atomic_savez_with_digest(path: str, arrays: Dict[str, np.ndarray]) -> None:
    """Atomically write a plain ``.npz`` with an embedded CRC-32 entry.

    The file stays ``np.load``-compatible (the digest rides along as the
    ``__crc32__`` member) while :func:`load_npz_verified` can detect
    corruption of any member.
    """
    if DIGEST_KEY in arrays:
        raise ValueError(f"array name {DIGEST_KEY!r} is reserved")
    payload = dict(arrays)
    payload[DIGEST_KEY] = np.uint32(_digest_arrays(arrays))
    buffer = io.BytesIO()
    np.savez(buffer, **payload)
    atomic_write_bytes(path, buffer.getvalue())


def load_npz_verified(path: str) -> Dict[str, np.ndarray]:
    """Load a ``.npz``, verifying the embedded digest when present.

    Truncated or garbled archives raise :class:`CheckpointCorrupt`
    naming the file instead of a raw ``zipfile`` error; a digest
    mismatch reports the expected/actual CRC-32.
    """
    try:
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except (zipfile.BadZipFile, OSError, ValueError, EOFError) as exc:
        raise CheckpointCorrupt(
            path, f"unreadable archive ({exc}); the file is truncated or "
            "garbled"
        ) from exc
    digest = arrays.pop(DIGEST_KEY, None)
    if digest is not None:
        expected = int(digest)
        actual = _digest_arrays(arrays)
        if actual != expected:
            raise CheckpointCorrupt(
                path, "array bytes do not match the embedded digest",
                expected=expected, actual=actual,
            )
    return arrays


# ---------------------------------------------------------------------------
# full trajectory-state capture / restore
# ---------------------------------------------------------------------------
def _json_blob(value) -> np.ndarray:
    return np.frombuffer(json.dumps(value).encode(), dtype=np.uint8)


def _json_unblob(arr: np.ndarray):
    return json.loads(bytes(np.asarray(arr, dtype=np.uint8)).decode())


def _lr_policy_identity(params) -> dict:
    """The fields that determine the learning rate at every iteration.
    Checked on resume: a mismatch means the resumed trajectory could not
    match the original no matter what state was restored."""
    return {
        "lr_policy": params.lr_policy,
        "base_lr": params.base_lr,
        "gamma": params.gamma,
        "power": params.power,
        "stepsize": params.stepsize,
        "stepvalues": list(params.stepvalues),
        "max_iter": params.max_iter,
    }


def _rng_layers(net) -> Dict[str, object]:
    """Layers whose live RNG stream must ride in the checkpoint."""
    out = {}
    for layer in net.layers:
        state = layer.rng_state()
        if state is not None:
            out[layer.name] = state
    return out


def _source_layers(net) -> Dict[str, object]:
    """Data layers backed by a batch source with a capturable cursor."""
    out = {}
    for layer in net.layers:
        source = getattr(layer, "source", None)
        if source is not None and hasattr(source, "get_state"):
            out[layer.name] = source
    return out


def capture_state(solver) -> Dict[str, np.ndarray]:
    """Everything a bitwise resume needs, as an array dict."""
    net = solver.net
    meta = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "iteration": solver.iteration,
        "solver_type": solver.params.type,
        "lr_policy": _lr_policy_identity(solver.params),
    }
    arrays: Dict[str, np.ndarray] = {"__meta__": _json_blob(meta)}
    for layer_name, layer_arrays in net.state_dict().items():
        for i, arr in enumerate(layer_arrays):
            arrays[f"param::{layer_name}::{i}"] = arr
    for i, history in enumerate(solver.history):
        arrays[f"history::{i}"] = history
    arrays["__loss_history__"] = np.asarray(
        solver.loss_history, dtype=np.float64
    )
    for name, state in _rng_layers(net).items():
        arrays[f"rng::{name}"] = _json_blob(state)
    for name, source in _source_layers(net).items():
        arrays[f"source::{name}"] = _json_blob(source.get_state())
    return arrays


def restore_state(solver, arrays: Dict[str, np.ndarray], path: str) -> None:
    """Restore a :func:`capture_state` dict into ``solver``, verifying
    that nothing is silently lost in either direction."""
    if "__meta__" not in arrays:
        raise CheckpointFormatError(
            f"{path!r} carries no checkpoint metadata; it is not a "
            "full-state checkpoint"
        )
    meta = _json_unblob(arrays["__meta__"])
    version = int(meta.get("checkpoint_version", 0))
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"{path!r} has state-layout version {version}; this runtime "
            f"restores version {CHECKPOINT_VERSION}"
        )
    if str(meta["solver_type"]).lower() != solver.params.type.lower():
        raise CheckpointMismatch(
            f"{path!r} was saved by a {meta['solver_type']!r} solver but "
            f"is being restored into a {solver.params.type!r} solver; the "
            "update rules differ, so the trajectories would fork"
        )
    saved_lr = meta["lr_policy"]
    live_lr = _lr_policy_identity(solver.params)
    diffs = [
        f"{key}: saved {saved_lr.get(key)!r} != live {live_lr[key]!r}"
        for key in live_lr if saved_lr.get(key) != live_lr[key]
    ]
    if diffs:
        raise CheckpointMismatch(
            f"{path!r} LR-policy state disagrees with the solver "
            f"({'; '.join(diffs)}); resuming would silently change the "
            "learning-rate schedule"
        )

    net = solver.net
    param_state: Dict[str, List] = {}
    history_seen = set()
    rng_states: Dict[str, object] = {}
    source_states: Dict[str, object] = {}
    for key, value in arrays.items():
        if key.startswith("param::"):
            _, layer_name, index = key.split("::")
            param_state.setdefault(layer_name, []).append((int(index), value))
        elif key.startswith("history::"):
            index = int(key.split("::")[1])
            if index >= len(solver.history):
                raise CheckpointMismatch(
                    f"{path!r} has solver-history slot {index} but the "
                    f"solver only has {len(solver.history)}"
                )
            history_seen.add(index)
        elif key.startswith("rng::"):
            rng_states[key.split("::", 1)[1]] = _json_unblob(value)
        elif key.startswith("source::"):
            source_states[key.split("::", 1)[1]] = _json_unblob(value)

    expected_params = set(net.state_dict())
    if set(param_state) != expected_params:
        missing = expected_params - set(param_state)
        extra = set(param_state) - expected_params
        raise CheckpointMismatch(
            f"{path!r} parameter layers do not match the net "
            f"(missing: {sorted(missing)}, unexpected: {sorted(extra)})"
        )
    if history_seen != set(range(len(solver.history))):
        raise CheckpointMismatch(
            f"{path!r} holds {len(history_seen)} solver-history slots, the "
            f"solver has {len(solver.history)}"
        )
    expected_rng = set(_rng_layers(net))
    if set(rng_states) != expected_rng:
        raise CheckpointMismatch(
            f"{path!r} RNG streams {sorted(rng_states)} do not match the "
            f"net's capturable streams {sorted(expected_rng)}; restoring "
            "would fork a random stream (e.g. Dropout's mask sequence)"
        )
    sources = _source_layers(net)
    if set(source_states) != set(sources):
        raise CheckpointMismatch(
            f"{path!r} data-source cursors {sorted(source_states)} do not "
            f"match the net's sources {sorted(sources)}; the resumed run "
            "would replay or skip batches"
        )
    for name, state in source_states.items():
        check = getattr(sources[name], "check_state", None)
        if check is None:
            continue
        try:
            check(state)
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointMismatch(
                f"{path!r} data-source cursor of layer {name!r} does not "
                f"fit its source ({exc}); the resumed run would replay, "
                "skip or fail to serve batches"
            ) from exc

    # All checks passed — mutate the solver.
    solver.iteration = int(meta["iteration"])
    net.load_state_dict({
        name: [arr for _, arr in sorted(pairs)]
        for name, pairs in param_state.items()
    })
    for key, value in arrays.items():
        if key.startswith("history::"):
            solver.history[int(key.split("::")[1])][:] = value
    solver.loss_history = [
        float(v) for v in arrays.get("__loss_history__", ())
    ]
    for name, state in rng_states.items():
        net.layer(name).set_rng_state(state)
    for name, state in source_states.items():
        sources[name].set_state(state)


def save_checkpoint(solver, path: str) -> None:
    """Atomically write the solver's complete trajectory state."""
    atomic_savez(path, capture_state(solver))


def load_checkpoint(solver, path: str) -> None:
    """Verify and restore a :func:`save_checkpoint` file into ``solver``."""
    restore_state(solver, checked_load(path), path)
