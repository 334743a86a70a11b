"""Training on the rewritten kernels retraces the trajectory of the
kernels they replaced.

Host-independent: both runs happen here, on this machine's BLAS, and
differ only in whether a set of kernels are the production routines or
the frozen pre-rewrite copies in ``tests/_oracle_kernels.py``.

* MAX pooling, ``im2col``, ``col2im``, convolution's forward and
  backward-data GEMMs (on ``im2col_runs`` row runs, frozen on exact
  ``im2col`` columns) and InnerProduct's stacked block GEMMs (frozen as
  one ``gemm`` per block): losses and every parameter blob agree
  **exactly**, sequentially and under the two-thread blockwise executor
  (whose chunking splits the plane/sample ranges differently).  mlp runs
  at batch 20, two whole sample blocks and a ragged one, so its IP
  forward and backward-data really stack blocks; at batch 8 the sample
  loop is a single block.
* InnerProduct, AVE pooling forward, LRN and convolution backward-data
  (the deliberate numeric re-baselines — block GEMMs, ordered float32
  adds, a correlation with the rotated filter bank instead of
  ``col2im``): losses and parameters are ``np.allclose`` at
  ``rtol=1e-5``.
"""

import _oracle_kernels as oracle  # tests/ is on sys.path (conftest.py)
import numpy as np
import pytest

from repro import blaslib
from repro.core import ParallelExecutor
from repro.framework.blob import DTYPE
from repro.framework.layers.conv import ConvolutionLayer
from repro.framework.layers.inner_product import InnerProductLayer
from repro.framework.layers.lrn import LRNLayer
from repro.framework.layers.pooling import PoolingLayer
from repro.zoo import build_solver

ITERS = 3
BATCH = 8
#: Nets trained at another batch: see the module docstring.
BATCHES = {"mlp": 20}


def for_method(method, oracle_fn, production_fn):
    """A pooling chunk routine frozen for one pool method only."""
    def chunk(layer, *args):
        fn = oracle_fn if layer.method == method else production_fn
        return fn(layer, *args)
    return chunk


def use_oracle_kernels(monkeypatch):
    production = (PoolingLayer.forward_chunk, PoolingLayer.backward_chunk)
    monkeypatch.setattr(PoolingLayer, "forward_chunk", for_method(
        "MAX", oracle.max_pool_forward_chunk, production[0]))
    monkeypatch.setattr(PoolingLayer, "backward_chunk", for_method(
        "MAX", oracle.max_pool_backward_chunk, production[1]))
    monkeypatch.setattr(blaslib, "im2col", oracle.im2col)
    monkeypatch.setattr(blaslib, "col2im", oracle.col2im)
    monkeypatch.setattr(ConvolutionLayer, "forward_chunk",
                        oracle.conv_forward_chunk)
    monkeypatch.setattr(ConvolutionLayer, "_backward_data_chunk",
                        oracle.conv_correlation_data_chunk)
    monkeypatch.setattr(InnerProductLayer, "forward_chunk",
                        oracle.ip_block_forward_chunk)
    monkeypatch.setattr(InnerProductLayer, "_backward_data_chunk",
                        oracle.ip_block_backward_data_chunk)
    monkeypatch.setattr(InnerProductLayer, "_backward_weight_rows",
                        oracle.ip_block_backward_weight_rows)


def train(network, threads, batch=BATCH):
    """(loss history, every parameter's bytes) after ITERS iterations."""
    def run(executor=None):
        solver = build_solver(network, max_iter=ITERS, batch=batch,
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
@pytest.mark.parametrize("network", ["cifar10", "lenet", "mlp"])
def test_trajectory_equals_oracle_kernels(network, threads, monkeypatch):
    batch = BATCHES.get(network, BATCH)
    losses, params = train(network, threads, batch)
    with monkeypatch.context() as patch:
        use_oracle_kernels(patch)
        oracle_losses, oracle_params = train(network, threads, batch)
    assert len(losses) == ITERS and params
    assert losses == oracle_losses
    assert params == oracle_params


def use_frozen_numerics(monkeypatch):
    """The re-baselined kernels, back on their old forms."""
    monkeypatch.setattr(PoolingLayer, "forward_chunk", for_method(
        "AVE", oracle.ave_pool_forward_chunk, PoolingLayer.forward_chunk))
    monkeypatch.setattr(InnerProductLayer, "forward_chunk",
                        oracle.ip_forward_chunk)
    monkeypatch.setattr(InnerProductLayer, "_backward_data_chunk",
                        oracle.ip_backward_data_chunk)
    monkeypatch.setattr(InnerProductLayer, "_backward_weight_rows",
                        oracle.ip_backward_weight_rows)
    monkeypatch.setattr(LRNLayer, "forward_chunk", oracle.lrn_forward_chunk)
    monkeypatch.setattr(LRNLayer, "backward_chunk", oracle.lrn_backward_chunk)
    monkeypatch.setattr(ConvolutionLayer, "_backward_data_chunk",
                        oracle.conv_backward_data_chunk)


@pytest.mark.parametrize("network", ["cifar10", "lenet", "mlp"])
def test_trajectory_close_to_frozen_numerics(network, monkeypatch):
    losses, params = train(network, 0)
    with monkeypatch.context() as patch:
        use_frozen_numerics(patch)
        frozen_losses, frozen_params = train(network, 0)
    assert len(losses) == ITERS and params
    assert params != frozen_params  # the frozen kernels really ran
    # atol only matters for a weight that cancelled to ~1e-8: with
    # atol=0 one cifar10 conv1 weight (std 1e-4) sitting at -3.2e-8
    # differs by 5.6e-5 relative.
    close = dict(rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(losses, frozen_losses, **close)
    for new, old in zip(params, frozen_params):
        np.testing.assert_allclose(np.frombuffer(new, DTYPE),
                                   np.frombuffer(old, DTYPE), **close)
