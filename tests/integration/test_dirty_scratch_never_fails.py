"""No kernel can fail an operation by reading scratch it did not write.

Every InnerProduct block, LRN window and pooling pass now works in
``np.empty`` buffers from the per-thread scratch pool.  In serving one
non-finite logit is a quarantined — failed — request; in training it is
a non-finite loss.  So the pool is filled with NaN bytes
(:data:`repro.testing.NAN_BYTE`) between operations, in every thread,
and the operations must neither fail nor move a bit.  A ``0xAB`` fill
(-1.2e-12) could hide inside a tolerance; a NaN cannot hide anywhere.

The same goes for the per-sample arrays the layers' ``shape_changed``
hooks own (``_max_idx``, ``_scale``, ``_prob``, ``_per_sample``, ...):
they are allocated when a shape changes, not every forward, so whatever
the previous iteration left in them must never be read.
"""

import numpy as np
import pytest

from repro.core import ParallelExecutor
from repro.serve import (
    STATUS_OK,
    InferenceEngine,
    InferenceServer,
    ManualClock,
)
from repro.serve.engine import _resolve_output_blob, _swap_in_staged_sources
from repro.testing import JUNK_BYTE, NAN_BYTE, dirty_scratch_pool
from repro.zoo import build_net, build_solver

MAX_BATCH = 8
MAX_DELAY = 0.005


def dirty_every_thread(executor):
    # The pool is per-thread: dirty each from inside a region.
    executor.team.parallel(lambda ctx: dirty_scratch_pool(NAN_BYTE))


def test_served_rows_survive_a_nan_filled_pool():
    """64 pumped lenet batches of 1..8 requests (partial ones are padded
    to 8), the pool NaN-filled before every pump and across a team
    restart: every response ``ok``, no row quarantined, every row the
    bytes sequential ``Net.forward`` gives on the recorded batch."""
    engine = InferenceEngine(
        lambda: build_net("lenet", phase="TEST"),
        num_threads=1, max_batch=MAX_BATCH, clock=ManualClock(),
    )
    server = InferenceServer(engine, capacity=2 * MAX_BATCH,
                             max_delay=MAX_DELAY)
    rng = np.random.default_rng(7)
    handles = {}
    try:
        for batch in range(64):
            if batch == 32:
                engine.executor.team.restart()
            for row in range(batch % MAX_BATCH + 1):
                rid = f"b{batch}r{row}"
                handles[rid] = server.submit(
                    rng.random(engine.sample_shape, dtype=np.float32),
                    request_id=rid)
            engine.clock.advance(2 * MAX_DELAY)  # a partial batch is due
            dirty_every_thread(engine.executor)
            server.pump()
    finally:
        engine.close()

    assert server.stats()["delivered"] == {STATUS_OK: len(handles)}
    assert len(engine.batch_log) == 64
    reference = build_net("lenet", phase="TEST")
    staged = _swap_in_staged_sources(reference, MAX_BATCH)
    logits = _resolve_output_blob(reference, None)
    compared = 0
    for record in engine.batch_log:
        for source in staged:
            source.stage(record.images)
        reference.forward()
        for row, rid in enumerate(record.request_ids):
            if rid is None:  # padding row
                continue
            response = handles[rid].response()
            assert response.status == STATUS_OK, (rid, response.detail)
            assert response.output.tobytes() == logits.data[row].tobytes()
            compared += 1
    assert compared == len(handles) == 8 * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8)


def parameters(solver):
    return [blob.data.tobytes()
            for layer in solver.net.layers for blob in layer.blobs]


class TestTrainingSurvivesANanFilledPool:
    """mlp at batch 64 (eight full blocks) and cifar10 at batch 20 (a
    ragged block of 4, LRN, AVE pooling): with every thread's pool
    NaN-filled between iterations each loss stays finite and the
    parameters end on the undirtied sequential run's bytes."""

    CASES = {"mlp": (64, 30), "cifar10": (20, 5)}

    @pytest.fixture(scope="class")
    def undirtied(self):
        runs = {}
        for network, (batch, iters) in self.CASES.items():
            solver = build_solver(network, max_iter=iters, batch=batch)
            solver.step(iters)
            runs[network] = solver.loss_history, parameters(solver)
        return runs

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("network", sorted(CASES))
    def test_losses_finite_and_parameters_bitwise(self, undirtied, network,
                                                  threads):
        batch, iters = self.CASES[network]
        with ParallelExecutor(threads, reduction="blockwise") as executor:
            solver = build_solver(network, max_iter=iters, batch=batch,
                                  executor=executor)
            for _ in range(iters):
                solver.step(1)
                dirty_every_thread(executor)
        assert np.isfinite(solver.loss_history).all()
        assert (solver.loss_history, parameters(solver)) == undirtied[network]


def dirty_work_arrays(net, byte):
    """Overwrite every array a layer declares as footprint scratch;
    returns how many there were."""
    dirtied = 0
    for layer in net.layers:
        decl = layer.write_footprint
        for attr in decl.scratch if decl is not None else ():
            array = getattr(layer, attr, None)
            if array is not None:
                array.view(np.uint8).fill(byte)
                dirtied += 1
    return dirtied


class TestTrainingSurvivesDirtyWorkArrays:
    """lenet (MAX pooling, loss) and cifar10 (LRN, AVE pooling too) at
    batch 8: with every layer-owned work array overwritten between
    iterations the trajectory stays bitwise that of a clean run."""

    ITERS = 4

    @pytest.fixture(scope="class")
    def clean(self):
        runs = {}
        for network in ("lenet", "cifar10"):
            solver = build_solver(network, max_iter=self.ITERS, batch=8)
            solver.step(self.ITERS)
            runs[network] = solver.loss_history, parameters(solver)
        return runs

    @pytest.mark.parametrize("byte", [JUNK_BYTE, NAN_BYTE])
    @pytest.mark.parametrize("threads", [None, 2])
    @pytest.mark.parametrize("network", ["lenet", "cifar10"])
    def test_trajectory_bitwise(self, clean, network, threads, byte):
        executor = (ParallelExecutor(threads, reduction="blockwise")
                    if threads else None)
        try:
            solver = build_solver(network, max_iter=self.ITERS, batch=8,
                                  executor=executor)
            for _ in range(self.ITERS):
                solver.step(1)
                # pool1's _max_idx and the loss layer's three, at least
                assert dirty_work_arrays(solver.net, byte) >= 4
        finally:
            if executor is not None:
                executor.close()
        assert (solver.loss_history, parameters(solver)) == clean[network]
