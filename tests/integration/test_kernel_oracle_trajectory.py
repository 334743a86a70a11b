"""Training on the rewritten window kernels retraces, bit for bit, the
trajectory of the kernels they replaced.

Host-independent: both runs happen here, on this machine's BLAS, and
differ only in whether MAX pooling, ``im2col`` and ``col2im`` are the
production routines or the frozen pre-rewrite copies in
``tests/_oracle_kernels.py``.  Losses and every parameter blob must
agree exactly, sequentially and under the two-thread blockwise executor
(whose chunking splits the plane/sample ranges differently).
"""

import _oracle_kernels as oracle  # tests/ is on sys.path (conftest.py)
import pytest

from repro import blaslib
from repro.core import ParallelExecutor
from repro.framework.layers.pooling import PoolingLayer
from repro.zoo import build_solver

ITERS = 3
BATCH = 8


def use_oracle_kernels(monkeypatch):
    production = (PoolingLayer.forward_chunk, PoolingLayer.backward_chunk)

    def either(oracle_fn, production_fn):
        def chunk(layer, *args):
            fn = oracle_fn if layer.method == "MAX" else production_fn
            return fn(layer, *args)
        return chunk

    monkeypatch.setattr(PoolingLayer, "forward_chunk",
                        either(oracle.max_pool_forward_chunk, production[0]))
    monkeypatch.setattr(PoolingLayer, "backward_chunk",
                        either(oracle.max_pool_backward_chunk, production[1]))
    monkeypatch.setattr(blaslib, "im2col", oracle.im2col)
    monkeypatch.setattr(blaslib, "col2im", oracle.col2im)


def train(network, threads):
    """(loss history, every parameter's bytes) after ITERS iterations."""
    def run(executor=None):
        solver = build_solver(network, max_iter=ITERS, batch=BATCH,
                              executor=executor)
        solver.step(ITERS)
        params = [blob.data.tobytes()
                  for layer in solver.net.layers for blob in layer.blobs]
        return solver.loss_history, params

    if threads == 0:
        return run()
    with ParallelExecutor(num_threads=threads,
                          reduction="blockwise") as executor:
        return run(executor)


@pytest.mark.parametrize("threads", [0, 2], ids=["sequential", "blockwise2"])
@pytest.mark.parametrize("network", ["cifar10", "lenet"])
def test_trajectory_equals_oracle_kernels(network, threads, monkeypatch):
    losses, params = train(network, threads)
    with monkeypatch.context() as patch:
        use_oracle_kernels(patch)
        oracle_losses, oracle_params = train(network, threads)
    assert len(losses) == ITERS and params
    assert losses == oracle_losses
    assert params == oracle_params
