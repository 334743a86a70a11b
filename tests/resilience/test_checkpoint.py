"""Unit and integration tests for crash-consistent checkpointing.

Container half: atomic writes, CRC-32 verification, coded rejection of
corrupt / truncated / old-format / future-version files.  Trajectory
half: save -> fresh-solver resume is bitwise identical to the
uninterrupted run, and incompatible solver or LR-policy state is
rejected instead of silently forking the trajectory.
"""

import os

import numpy as np
import pytest

from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    MAGIC,
    _HEADER,
    CheckpointCorrupt,
    CheckpointFormatError,
    CheckpointMismatch,
    atomic_savez,
    atomic_savez_with_digest,
    atomic_write_bytes,
    capture_state,
    checked_load,
    load_npz_verified,
    read_container,
    write_container,
)
from repro.zoo import build_solver


def _arrays():
    return {
        "alpha": np.arange(12, dtype=np.float32).reshape(3, 4),
        "beta": np.array([1.5, -2.5], dtype=np.float64),
        "gamma": np.array(7, dtype=np.int64),
    }


class TestAtomicWrite:
    def test_replaces_existing_file(self, tmp_path):
        path = str(tmp_path / "state.bin")
        atomic_write_bytes(path, b"old")
        atomic_write_bytes(path, b"new")
        with open(path, "rb") as fh:
            assert fh.read() == b"new"

    def test_no_temp_litter(self, tmp_path):
        path = str(tmp_path / "state.bin")
        atomic_write_bytes(path, b"payload")
        assert os.listdir(tmp_path) == ["state.bin"]


class TestContainer:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ck.rckp")
        atomic_savez(path, _arrays())
        loaded = checked_load(path)
        for name, ref in _arrays().items():
            np.testing.assert_array_equal(loaded[name], ref)
            assert loaded[name].dtype == ref.dtype

    def test_corrupt_payload_rejected_with_digests(self, tmp_path):
        path = str(tmp_path / "ck.rckp")
        write_container(path, b"x" * 64)
        raw = bytearray(open(path, "rb").read())
        raw[_HEADER.size + 10] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(raw)
        with pytest.raises(CheckpointCorrupt) as info:
            read_container(path)
        message = str(info.value)
        assert "ck.rckp" in message
        assert info.value.expected is not None
        assert info.value.actual is not None
        assert info.value.expected != info.value.actual

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "ck.rckp")
        write_container(path, b"y" * 128)
        raw = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(raw[: _HEADER.size + 40])
        with pytest.raises(CheckpointCorrupt, match="truncated"):
            read_container(path)

    def test_old_format_npz_rejected(self, tmp_path):
        path = str(tmp_path / "legacy.npz")
        np.savez(path, weights=np.zeros(3))
        with pytest.raises(CheckpointFormatError, match="pre-resilience"):
            read_container(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.rckp")
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + b"\0" * 32)
        with pytest.raises(CheckpointFormatError):
            read_container(path)

    def test_future_version_rejected(self, tmp_path):
        path = str(tmp_path / "future.rckp")
        header = _HEADER.pack(MAGIC, CHECKPOINT_VERSION + 1, 0, 0)
        with open(path, "wb") as fh:
            fh.write(header)
        with pytest.raises(CheckpointFormatError, match="version"):
            read_container(path)


class TestDigestNpz:
    def test_stays_np_load_compatible(self, tmp_path):
        path = str(tmp_path / "weights.npz")
        atomic_savez_with_digest(path, _arrays())
        with np.load(path) as raw:
            np.testing.assert_array_equal(raw["alpha"], _arrays()["alpha"])

    def test_verified_loader_pops_digest(self, tmp_path):
        path = str(tmp_path / "weights.npz")
        atomic_savez_with_digest(path, _arrays())
        loaded = load_npz_verified(path)
        assert set(loaded) == set(_arrays())

    def test_tampered_array_rejected(self, tmp_path):
        path = str(tmp_path / "weights.npz")
        arrays = _arrays()
        atomic_savez_with_digest(path, arrays)
        # Tamper: rewrite one array without refreshing the digest.
        with np.load(path) as raw:
            stored = {name: raw[name] for name in raw.files}
        stored["alpha"] = stored["alpha"] + 1
        np.savez(path, **stored)
        with pytest.raises(CheckpointCorrupt):
            load_npz_verified(path)


def _losses_and_params(solver):
    return (
        list(solver.loss_history),
        [b.flat_data.copy() for b in solver.net.learnable_params],
    )


class TestTrajectoryResume:
    @pytest.mark.parametrize("net", ["mlp", "lenet"])
    def test_resume_bitwise_equals_uninterrupted(self, tmp_path, net):
        iters, resume_at = 4, 2
        path = str(tmp_path / "ck.rckp")

        reference = build_solver(net, iters, batch=4)
        reference.step(iters)
        ref_losses, ref_params = _losses_and_params(reference)

        first = build_solver(net, iters, batch=4)
        first.step(resume_at)
        first.save_state(path)

        second = build_solver(net, iters, batch=4)
        second.load_state(path)
        assert second.iteration == resume_at
        second.step(iters - resume_at)
        res_losses, res_params = _losses_and_params(second)

        assert res_losses == ref_losses  # bitwise: float == float
        for got, want in zip(res_params, ref_params):
            np.testing.assert_array_equal(got, want)

    def test_roundtrip_state_is_stable(self, tmp_path):
        path = str(tmp_path / "ck.rckp")
        solver = build_solver("mlp", 4, batch=4)
        solver.step(2)
        solver.save_state(path)
        fresh = build_solver("mlp", 4, batch=4)
        fresh.load_state(path)
        saved = checked_load(path)
        recaptured = capture_state(fresh)
        assert set(saved) == set(recaptured)
        for key in saved:
            np.testing.assert_array_equal(saved[key], recaptured[key])

    def test_solver_type_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ck.rckp")
        solver = build_solver("mlp", 4, batch=4)
        solver.step(1)
        solver.save_state(path)

        from repro.framework.solvers import create_solver

        other = build_solver("mlp", 4, batch=4)
        params = other.params
        params.type = "AdaGrad"
        params.momentum = 0.0
        adagrad = create_solver(params, other.net)
        with pytest.raises(CheckpointMismatch, match="solver"):
            adagrad.load_state(path)

    def test_lr_policy_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ck.rckp")
        solver = build_solver("mlp", 4, batch=4)
        solver.step(1)
        solver.save_state(path)
        other = build_solver("mlp", 8, batch=4)  # different max_iter
        with pytest.raises(CheckpointMismatch, match="max_iter"):
            other.load_state(path)

    def test_old_format_snapshot_rejected_on_load_state(self, tmp_path):
        path = str(tmp_path / "legacy.npz")
        np.savez(path, __iteration__=np.array(3))
        solver = build_solver("mlp", 4, batch=4)
        with pytest.raises(CheckpointFormatError):
            solver.load_state(path)

    def test_corrupt_snapshot_rejected_on_load_state(self, tmp_path):
        from repro.resilience import corrupt_checkpoint

        path = str(tmp_path / "ck.rckp")
        solver = build_solver("mlp", 4, batch=4)
        solver.step(1)
        solver.save_state(path)
        corrupt_checkpoint(path, seed=7)
        fresh = build_solver("mlp", 4, batch=4)
        with pytest.raises(CheckpointCorrupt):
            fresh.load_state(path)


class TestSourceCursorValidation:
    """A CRC-valid checkpoint whose data-source cursor does not fit the
    source is refused at load, before params or iteration move."""

    @pytest.mark.parametrize("field, value", [
        ("cursor", 2048),
        ("cursor", -3),
        ("order", [0] * 2048),
    ])
    def test_bad_cursor_rejected_before_mutation(self, tmp_path, field,
                                                 value):
        import json

        path = str(tmp_path / "ck.rckp")
        solver = build_solver("mlp", 4, batch=4)
        solver.step(1)
        arrays = capture_state(solver)
        (key,) = [k for k in arrays if k.startswith("source::")]
        state = json.loads(bytes(arrays[key]).decode())
        state[field] = value
        arrays[key] = np.frombuffer(json.dumps(state).encode(), np.uint8)
        atomic_savez(path, arrays)

        fresh = build_solver("mlp", 4, batch=4)
        before = [p.data.copy() for p in fresh.net.learnable_params]
        layer = key.split("::")[1]
        with pytest.raises(CheckpointMismatch, match=f"layer '{layer}'"):
            fresh.load_state(path)
        assert fresh.iteration == 0
        for got, want in zip(fresh.net.learnable_params, before):
            np.testing.assert_array_equal(got.data, want)


class TestNetSave:
    def test_net_save_verified_roundtrip(self, tmp_path):
        path = str(tmp_path / "weights.npz")
        solver = build_solver("mlp", 2, batch=4)
        solver.step(1)
        solver.net.save(path)
        fresh = build_solver("mlp", 2, batch=4)
        fresh.net.load(path)
        for got, want in zip(
            fresh.net.learnable_params, solver.net.learnable_params
        ):
            np.testing.assert_array_equal(got.flat_data, want.flat_data)


class TestHeaderTruncation:
    """Torn writes that cut the file before the header ends must surface
    as CheckpointFormatError naming the path and byte count — never as a
    bare struct.error / EOFError from the header unpack."""

    def _container(self, tmp_path):
        path = str(tmp_path / "state.rckp")
        write_container(path, b"payload-bytes-for-truncation")
        with open(path, "rb") as fh:
            blob = fh.read()
        assert len(blob) > _HEADER.size
        return path, blob

    @pytest.mark.parametrize("cut", list(range(_HEADER.size)))
    def test_every_header_boundary_is_coded(self, tmp_path, cut):
        path, blob = self._container(tmp_path)
        with open(path, "wb") as fh:
            fh.write(blob[:cut])
        with pytest.raises(CheckpointFormatError) as excinfo:
            read_container(path)
        message = str(excinfo.value)
        assert path in message
        assert f"{cut} byte(s)" in message

    def test_zero_length_file_is_coded(self, tmp_path):
        path = str(tmp_path / "empty.rckp")
        with open(path, "wb"):
            pass
        with pytest.raises(CheckpointFormatError, match="0 byte"):
            read_container(path)

    @pytest.mark.parametrize("keep_extra", [0, 1, 7])
    def test_post_header_truncation_stays_coded(self, tmp_path, keep_extra):
        """Cuts past the header are the existing payload-truncation
        path: still a coded checkpoint error, never struct/EOF."""
        path, blob = self._container(tmp_path)
        with open(path, "wb") as fh:
            fh.write(blob[:_HEADER.size + keep_extra])
        with pytest.raises((CheckpointFormatError, CheckpointCorrupt)):
            read_container(path)
