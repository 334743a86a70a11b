"""Integration tests: end-to-end training on the synthetic datasets."""

import numpy as np
import pytest

from repro.core import ParallelExecutor
from repro.zoo import build_solver


class TestLeNetTraining:
    def test_loss_decreases(self):
        solver = build_solver("lenet", max_iter=25)
        solver.step(25)
        history = solver.loss_history
        assert np.mean(history[-5:]) < np.mean(history[:5]) * 0.5

    def test_accuracy_beats_chance(self):
        solver = build_solver("lenet", max_iter=40, with_test_net=True)
        solver.step(40)
        accuracy = solver.test()
        assert accuracy > 0.5  # chance is 0.1

    def test_parallel_training_converges(self):
        with ParallelExecutor(num_threads=3, reduction="ordered") as executor:
            solver = build_solver("lenet", max_iter=25, executor=executor)
            solver.step(25)
        assert solver.loss_history[-1] < solver.loss_history[0] * 0.5


class TestCifarTraining:
    @pytest.fixture(scope="class")
    def solver(self):
        """One 60-iteration run for both tests: its first 30 losses are
        bitwise those of a 30-iteration run without a test net."""
        solver = build_solver("cifar10", max_iter=60, with_test_net=True)
        solver.step(60)
        return solver

    def test_loss_decreases(self, solver):
        history = solver.loss_history[:30]
        assert np.mean(history[-5:]) < np.mean(history[:3])

    def test_accuracy_beats_chance(self, solver):
        assert solver.test() > 0.3


class TestSolverVariantsOnLeNet:
    @pytest.mark.parametrize("solver_type,base_lr", [
        ("SGD", 0.01), ("AdaGrad", 0.01), ("Nesterov", 0.005),
    ])
    def test_all_solvers_learn(self, solver_type, base_lr):
        from repro.framework.solvers import SolverParams
        params = SolverParams(
            type=solver_type, base_lr=base_lr, lr_policy="fixed",
            momentum=0.9 if solver_type != "AdaGrad" else 0.0,
            max_iter=20,
        )
        solver = build_solver("lenet", params=params)
        solver.step(20)
        assert solver.loss_history[-1] < solver.loss_history[0]


class TestSnapshotResume:
    def test_training_resumes_identically(self, tmp_path):
        a = build_solver("lenet", max_iter=10)
        a.step(10)
        path = str(tmp_path / "snap.npz")
        a.net.save(path)

        # Fresh solver, restored weights AND momentum history: identical
        # continuation requires both plus the same data cursor.
        b = build_solver("lenet", max_iter=10)
        b.net.load(path)
        b.iteration = a.iteration
        for h_b, h_a in zip(b.history, a.history):
            h_b[:] = h_a
        data_layer_a = a.net.layers[0]
        data_layer_b = b.net.layers[0]
        data_layer_b.source._cursor = data_layer_a.source._cursor

        loss_a = a.step(3)
        loss_b = b.step(3)
        assert loss_a == loss_b
