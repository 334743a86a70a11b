"""The engine's live-row forward: only the rows a batch carries, up to
the logits, and every served row bitwise the padded pass's row."""

import numpy as np
import pytest

from repro.analysis.servecheck import _sequential_reference
from repro.resilience.faults import InjectedFault
from repro.serve.engine import InferenceEngine
from repro.zoo import build_net


def _samples(shape, k, seed):
    rng = np.random.default_rng(seed)
    return [rng.random(shape, dtype=np.float32) for _ in range(k)]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("max_batch", [8, 12])
@pytest.mark.parametrize("net_name", ["lenet", "mlp", "cifar10"])
def test_live_rows_equal_padded_forward_bitwise(net_name, max_batch,
                                                 threads):
    # servecheck SV103's reference: the padded sequential Net.forward.
    ref, staged, logits = _sequential_reference(net_name, max_batch)
    with InferenceEngine(lambda: build_net(net_name, phase="TEST"),
                         num_threads=threads, max_batch=max_batch) as engine:
        for k in range(1, max_batch + 1):
            # A different full batch first: every tail row goes stale.
            engine.run_batch(_samples(engine.sample_shape, max_batch,
                                      seed=1000 + k))
            result = engine.run_batch(_samples(engine.sample_shape, k,
                                               seed=k))
            for source in staged:
                source.stage(engine.batch_log[-1].images)
            ref.forward()
            assert len(result.outputs) == k
            for i, row in enumerate(result.outputs):
                assert np.array_equal(row, logits.data[i]), (k, i)


def test_rows_outside_the_batch_refused():
    with InferenceEngine(lambda: build_net("mlp", phase="TEST"),
                         max_batch=4) as engine:
        engine.run_batch(_samples(engine.sample_shape, 4, seed=0))
        for rows in (0, -1, 5):
            with pytest.raises(ValueError, match="rows|batch of 4"):
                engine.executor.forward(engine.net, rows=rows,
                                        upto=engine.upto)


def test_walk_stops_at_the_logits():
    with InferenceEngine(lambda: build_net("lenet", phase="TEST"),
                         max_batch=8) as engine:
        ran = []
        for layer in engine.net.layers:
            original = layer.forward_chunk

            def traced(bottom, top, lo, hi, name=layer.name,
                       original=original):
                ran.append((name, hi))
                return original(bottom, top, lo, hi)
            layer.forward_chunk = traced
        engine.run_batch(_samples(engine.sample_shape, 3, seed=0))
        names = [name for name, _ in ran]
        assert names[-1] == engine.net.layer_names[engine.upto]
        assert not {"loss", "accuracy"} & set(names)
        # every cut loop covers the three live samples, IP's included
        assert dict(ran)["conv1"] == 3
        assert dict(ran)["ip1"] == 3


def test_ledger_style_wrapper_sees_one_forward_per_batch_and_retry():
    """The ledger times ``serve.engine.forward_ms`` by shadowing
    ``executor.forward`` on the instance: the served pass must go
    through it, once per batch and once more per retry."""
    with InferenceEngine(lambda: build_net("mlp", phase="TEST"),
                         max_batch=4, backoff_s=0.0) as engine:
        calls = []
        inner = engine.executor.forward

        def forward(*args, **kwargs):
            calls.append(kwargs)
            return inner(*args, **kwargs)
        engine.executor.forward = forward
        engine.run_batch(_samples(engine.sample_shape, 2, seed=0))
        assert calls == [{"rows": 2, "upto": engine.upto}]

        layer = next(l for l in engine.net.layers if l.blobs)
        original = layer.forward_chunk
        state = {"failures": 1}

        def crash_once(bottom, top, lo, hi):
            if state["failures"]:
                state["failures"] -= 1
                raise InjectedFault("test: worker crash")
            return original(bottom, top, lo, hi)
        layer.forward_chunk = crash_once
        result = engine.run_batch(_samples(engine.sample_shape, 3, seed=1))
        assert result.attempts == 2
        assert len(calls) == 1 + 2
