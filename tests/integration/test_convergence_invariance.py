"""The paper's convergence-invariance property, end to end.

"The coarse-grain parallelization does not change any training
parameters. Thus, the convergence rate is kept invariant between the
serial and the parallel executions." (Section 4.3)

With the blockwise reduction, our implementation delivers the strongest
form: the entire loss trajectory is bitwise identical at every thread
count.  The paper's ordered mode is deterministic per thread count and
tracks the sequential trajectory to floating-point reassociation.
"""

import numpy as np
import pytest

from repro.core import ParallelExecutor
from repro.core.scheduling import make_schedule
from repro.zoo import build_solver

ITERS = 8


def trajectory(network, threads, mode, iters=ITERS):
    if threads == 0:  # plain sequential baseline (no executor machinery)
        solver = build_solver(network, max_iter=iters)
        solver.step(iters)
        return solver.loss_history
    with ParallelExecutor(num_threads=threads, reduction=mode) as executor:
        solver = build_solver(network, max_iter=iters, executor=executor)
        solver.step(iters)
    return solver.loss_history


class TestBlockwiseBitwiseInvariance:
    @pytest.fixture(scope="class")
    def sequential(self):
        return trajectory("lenet", 0, "blockwise")

    @pytest.mark.parametrize("threads", [1, 2, 3, 4, 6])
    def test_lenet_trajectory_identical(self, sequential, threads):
        assert trajectory("lenet", threads, "blockwise") == sequential

    def test_cifar_trajectory_identical(self):
        seq = trajectory("cifar10", 0, "blockwise", iters=4)
        par = trajectory("cifar10", 3, "blockwise", iters=4)
        assert par == seq


class TestEveryCutSameBytes:
    """InnerProduct multiplies aligned blocks of 8 samples; a chunk edge
    inside a block must not move a bit.  mlp at batch 20 (two full
    blocks and a ragged one of 4) under schedules whose chunks are 1, 3,
    shrinking or ``ceil(20 / T)`` samples cuts blocks everywhere.  lenet
    at batch 10 adds convolution: its weight reduction and its
    backward-data loop under the same cuts."""

    SCHEDULES = ["static", "static,3", "dynamic,1", "guided"]
    THREADS = [2, 3, 5, 8]

    @staticmethod
    def run(network="mlp", batch=20, executor=None, iters=3):
        solver = build_solver(network, max_iter=iters, batch=batch,
                              executor=executor)
        solver.step(iters)
        return solver.loss_history, [
            blob.data.tobytes()
            for layer in solver.net.layers for blob in layer.blobs
        ]

    def run_parallel(self, threads, schedule, network="mlp", batch=20):
        with ParallelExecutor(threads, schedule=make_schedule(schedule),
                              reduction="blockwise") as executor:
            return self.run(network, batch, executor)

    @pytest.fixture(scope="class")
    def sequential(self):
        return self.run()

    @pytest.fixture(scope="class")
    def lenet_sequential(self):
        return self.run("lenet", 10)

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("threads", THREADS)
    def test_mlp_losses_and_parameters(self, sequential, threads, schedule):
        assert self.run_parallel(threads, schedule) == sequential

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("threads", THREADS)
    def test_lenet_losses_and_parameters(self, lenet_sequential, threads,
                                         schedule):
        assert self.run_parallel(threads, schedule, "lenet", 10) == (
            lenet_sequential)


class TestOrderedDeterminism:
    def test_deterministic_per_thread_count(self):
        a = trajectory("lenet", 4, "ordered")
        b = trajectory("lenet", 4, "ordered")
        assert a == b

    def test_tracks_sequential_closely(self):
        seq = np.array(trajectory("lenet", 0, "ordered"))
        par = np.array(trajectory("lenet", 4, "ordered"))
        assert np.allclose(seq, par, rtol=1e-3)

    def test_atomic_tracks_sequential(self):
        seq = np.array(trajectory("lenet", 0, "ordered"))
        par = np.array(trajectory("lenet", 4, "atomic"))
        assert np.allclose(seq, par, rtol=1e-3)


class TestHyperparametersUnchanged:
    def test_batch_size_constant_across_thread_counts(self):
        """The convergence-invariance argument rests on this: unlike the
        multi-GPU batch-splitting the paper criticizes, the batch the
        network sees never changes."""
        for threads in (1, 4):
            with ParallelExecutor(num_threads=threads) as executor:
                solver = build_solver("lenet", max_iter=1, executor=executor)
                solver.step(1)
                assert solver.net.blob("data").shape[0] == 64
