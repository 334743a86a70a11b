"""One request, one answer: a served row's bits do not depend on its
batch — not on how many rows it carries, where the row sits, what its
batch-mates hold, the engine's ``max_batch`` or its thread count.

InnerProduct is the one layer whose GEMM issue pattern depends on the
batch (its sample blocks are stacked per chunk and its last block may be
ragged), so a row's value must come from its own sample alone.
"""

import itertools

import numpy as np
import pytest

from repro.serve.engine import InferenceEngine
from repro.zoo import build_net


@pytest.mark.parametrize("net_name", ["lenet", "mlp", "cifar10"])
def test_a_row_is_the_row_served_alone(net_name):
    rng = np.random.default_rng(7)
    sample = alone = None
    for threads, max_batch in itertools.product((1, 2), (8, 12)):
        with InferenceEngine(lambda: build_net(net_name, phase="TEST"),
                             num_threads=threads,
                             max_batch=max_batch) as engine:
            shape = engine.sample_shape
            if sample is None:  # the reference: k = 1, one thread
                sample = rng.random(shape, dtype=np.float32)
                alone = engine.run_batch([sample]).outputs[0].tobytes()
            for k in range(1, max_batch + 1):
                for position in sorted({0, k // 2, k - 1}):
                    batch = list(rng.random((k, *shape), dtype=np.float32))
                    batch[position] = sample
                    row = engine.run_batch(batch).outputs[position]
                    assert row.tobytes() == alone, (threads, max_batch, k,
                                                    position)
