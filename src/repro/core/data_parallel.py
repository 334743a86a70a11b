"""Multi-device data parallelism on top of the coarse-grain runtime.

The paper's introduction argues that batch-level parallelism "is
compatible with multi-GPU execution without altering the algorithm
convergence rate" — in contrast to the then-common practice of shrinking
the batch to fit one GPU, which changes a training hyper-parameter.

This module implements that claim as an executable system: the batch is
*sharded* (not shrunk) across ``R`` model replicas; each replica runs
the coarse-grain forward/backward on its shard; shard gradients are
all-reduced in fixed replica order and every replica applies the same
update.  Because

* the global batch size is unchanged,
* every sample's gradient contribution is computed exactly as in the
  single-device run, and
* the all-reduce folds shard sums in a fixed order,

the combined gradient is deterministic, and training behaves like the
single-device run with the same batch — the convergence-invariance
property lifted to the multi-device level (tested in
``tests/core/test_data_parallel.py``).

Devices are simulated by replicas within the process (each may own a
thread team); on real hardware the same structure maps onto one process
per GPU with an MPI/NCCL all-reduce in place of :func:`_allreduce`.
"""

from __future__ import annotations

import copy as _copy
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.parallel_net import ParallelExecutor
from repro.framework.blob import DTYPE
from repro.framework.net import Net
from repro.framework.net_spec import NetSpec
from repro.framework.solvers import SolverParams, create_solver


class ShardSource:
    """Serves one replica's shard of every global batch.

    All replicas share one underlying source; batches are drawn once per
    step (by replica 0) and sliced deterministically, so the union of
    the shards is exactly the batch the single-device run would see.
    """

    def __init__(self, parent: "DataParallelSolver", replica: int) -> None:
        self._parent = parent
        self._replica = replica

    @property
    def shape(self):
        return self._parent.base_source.shape

    def next_batch(self, batch_size: int):
        images, labels = self._parent.current_shards[self._replica]
        if images.shape[0] != batch_size:
            raise ValueError(
                f"replica {self._replica}: shard size {images.shape[0]} "
                f"!= expected {batch_size}"
            )
        return images, labels


class DataParallelSolver:
    """Synchronous data-parallel training over ``replicas`` devices.

    Parameters
    ----------
    spec:
        Network definition.  Its (train-phase) data layer defines the
        *global* batch size, which must be divisible by ``replicas``.
    params:
        Solver hyper-parameters (applied identically on every replica).
    replicas:
        Number of simulated devices.
    source:
        The global batch source (e.g. an
        :class:`~repro.data.ArrayBatchSource`).
    threads_per_replica:
        Coarse-grain threads inside each replica (the paper's two-level
        parallelism: batch-level across and within devices).
    reduction:
        Reduction mode for the within-replica executors.
    """

    def __init__(
        self,
        spec: NetSpec,
        params: SolverParams,
        source,
        replicas: int = 2,
        threads_per_replica: int = 1,
        reduction: str = "blockwise",
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self.base_source = source
        self.current_shards: List = [None] * replicas

        data_spec = next(
            layer for layer in spec.layers_for_phase("TRAIN")
            if layer.type.lower() in ("data", "memorydata")
        )
        self.global_batch = int(data_spec.require("batch_size"))
        if self.global_batch % replicas:
            raise ValueError(
                f"global batch {self.global_batch} is not divisible by "
                f"{replicas} replicas"
            )
        self.shard_size = self.global_batch // replicas

        self.nets: List[Net] = []
        self.executors: List[ParallelExecutor] = []
        self.solvers = []
        for replica in range(replicas):
            replica_spec = _copy.deepcopy(spec)
            shard_spec = next(
                layer for layer in replica_spec.layers_for_phase("TRAIN")
                if layer.type.lower() in ("data", "memorydata")
            )
            shard_spec.params["batch_size"] = self.shard_size
            shard_spec.params["source_object"] = ShardSource(self, replica)
            net = Net(replica_spec, phase="TRAIN")
            executor = ParallelExecutor(
                num_threads=threads_per_replica, reduction=reduction
            )
            self.nets.append(net)
            self.executors.append(executor)
            self.solvers.append(create_solver(params, net))
            self.solvers[-1].executor = executor

        # All replicas start from replica 0's parameters.
        reference = self.nets[0].state_dict()
        for net in self.nets[1:]:
            net.load_state_dict(reference)
        self.iteration = 0
        self.loss_history: List[float] = []

    # ------------------------------------------------------------------
    # the synchronous step
    # ------------------------------------------------------------------
    def _draw_shards(self) -> None:
        images, labels = self.base_source.next_batch(self.global_batch)
        self.current_shards = [
            (images[r * self.shard_size : (r + 1) * self.shard_size],
             labels[r * self.shard_size : (r + 1) * self.shard_size])
            for r in range(self.replicas)
        ]

    def _allreduce(self) -> None:
        """Sum shard gradients in fixed replica order; broadcast.

        Each replica's loss layer normalized by the *shard* size, so the
        shard gradient is ``(1/shard) * sum over shard``.  Averaging the
        replica gradients yields ``(1/global) * sum over batch`` — the
        exact single-device gradient.
        """
        scale = DTYPE(1.0 / self.replicas)
        for param_index in range(len(self.nets[0].learnable_params)):
            total = self.nets[0].learnable_params[param_index].flat_diff
            for net in self.nets[1:]:  # fixed order: deterministic
                total += net.learnable_params[param_index].flat_diff
            total *= scale
            for net in self.nets[1:]:
                np.copyto(net.learnable_params[param_index].flat_diff, total)

    def step(self, iters: int) -> float:
        last = 0.0
        for _ in range(iters):
            self._draw_shards()
            losses = []
            for net, executor in zip(self.nets, self.executors):
                net.clear_param_diffs()
                loss = executor.forward(net)
                executor.backward(net)
                losses.append(loss)
            self._allreduce()
            # identical update on every replica (same diffs, same state)
            for solver in self.solvers:
                solver.apply_update()
                solver.iteration += 1
            last = float(np.mean(losses))
            self.loss_history.append(last)
            self.iteration += 1
        return last

    # ------------------------------------------------------------------
    # invariants & lifecycle
    # ------------------------------------------------------------------
    def replicas_in_sync(self) -> bool:
        """All replicas hold bitwise-identical parameters."""
        reference = self.nets[0].learnable_params
        for net in self.nets[1:]:
            for a, b in zip(reference, net.learnable_params):
                if not np.array_equal(a.flat_data, b.flat_data):
                    return False
        return True

    def state_dict(self) -> Dict[str, List[np.ndarray]]:
        return self.nets[0].state_dict()

    def close(self) -> None:
        for executor in self.executors:
            executor.close()

    def __enter__(self) -> "DataParallelSolver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
