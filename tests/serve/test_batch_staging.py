"""A served batch is staged once and checked as a whole.

The engine fills one zero-padded array per batch, finds poisoned input
and output rows with one finiteness mask each, and stages the batch once
however many attempts its forward takes.  The differential test holds
that whole-batch code to a per-row reference written here: a sample is
cast to float32 on its own, checked on its own and copied into its row;
an output row is copied and checked on its own.
"""

import numpy as np
import pytest

from repro.resilience.faults import InjectedFault
from repro.serve.clock import ManualClock
from repro.serve.engine import InferenceEngine, StagedSource
from repro.zoo import build_net

MAX_BATCH = 8

#: How a row's sample is made: clean float32 or float64 (rounds when
#: cast), one NaN / +Inf / -Inf element, a float64 value float32 cannot
#: hold (casts to +-Inf), or a row of NaN.
KINDS = ("f32", "f64", "nan", "+inf", "-inf", "f64_overflow", "all_nan")


def _sample(rng, shape, kind):
    if kind == "f32":
        return rng.random(shape, dtype=np.float32)
    sample = rng.random(shape)  # float64
    flat = sample.reshape(-1)
    at = rng.integers(flat.size)
    if kind == "nan":
        flat[at] = np.nan
    elif kind == "+inf":
        flat[at] = np.inf
    elif kind == "-inf":
        flat[at] = -np.inf
    elif kind == "f64_overflow":
        flat[at] = rng.choice([1e39, -1e39])
    elif kind == "all_nan":
        flat[:] = np.nan
    return sample


def _per_row_reference(samples, shape, logits):
    """The staged images and the per-row verdicts, one row at a time."""
    images = np.zeros((MAX_BATCH,) + shape, dtype=np.float32)
    quarantined_input = []
    with np.errstate(over="ignore"):
        for i, sample in enumerate(samples):
            arr = np.asarray(sample, dtype=np.float32)
            if np.all(np.isfinite(arr)):
                images[i] = arr
            else:
                quarantined_input.append(i)
    outputs, quarantined_output = [], []
    for i in range(len(samples)):
        if i in quarantined_input:
            outputs.append(None)
            continue
        row = np.array(logits[i], copy=True)
        if np.all(np.isfinite(row)):
            outputs.append(row)
        else:
            quarantined_output.append(i)
            outputs.append(None)
    return images, outputs, quarantined_input, quarantined_output


def _poison_logits(layer, rows, value):
    """Patch the logits layer so the given rows come out non-finite."""
    original = layer.forward_chunk

    def patched(bottom, top, lo, hi):
        original(bottom, top, lo, hi)
        for row in rows:
            top[0].data[row] = value

    layer.forward_chunk = patched


@pytest.mark.parametrize("seed", range(4))
def test_whole_batch_checks_equal_per_row_reference(seed):
    rng = np.random.default_rng(seed)
    with InferenceEngine(lambda: build_net("mlp", phase="TEST"),
                         num_threads=1, max_batch=MAX_BATCH,
                         output_blob="fc2") as engine:
        shape = engine.sample_shape
        logits_layer = engine.net.layers[engine.upto]
        logits = engine.net.blob("fc2")
        for k in range(1, MAX_BATCH + 1):
            kinds = rng.choice(KINDS, size=k,
                               p=[0.4, 0.2, 0.1, 0.1, 0.05, 0.1, 0.05])
            samples = [_sample(rng, shape, kind) for kind in kinds]
            poisoned = sorted(set(rng.integers(k, size=rng.integers(3))))
            _poison_logits(logits_layer, poisoned,
                           rng.choice([np.nan, np.inf, -np.inf]))
            with np.errstate(over="ignore"):
                result = engine.run_batch(samples)
            del logits_layer.forward_chunk

            images, outputs, q_in, q_out = _per_row_reference(
                samples, shape, logits.data)
            assert result.quarantined_input == q_in, (seed, k)
            assert result.quarantined_output == q_out, (seed, k)
            assert len(result.outputs) == k
            for i, (got, want) in enumerate(zip(result.outputs, outputs)):
                if want is None:
                    assert got is None, (seed, k, i)
                else:
                    assert got.dtype == want.dtype
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (seed, k, i)
            logged = engine.batch_log[-1].images
            assert logged.dtype == images.dtype
            assert logged.shape == images.shape
            assert logged.tobytes() == images.tobytes(), (seed, k)


def test_shape_error_names_the_sample():
    with InferenceEngine(lambda: build_net("mlp", phase="TEST"),
                         max_batch=4) as engine:
        good = np.zeros(engine.sample_shape, dtype=np.float32)
        with pytest.raises(ValueError,
                           match=r"sample 1 has shape \(28, 28\), "
                                 r"expected \(1, 28, 28\)"):
            engine.run_batch([good, np.zeros((28, 28), dtype=np.float32)])
        with pytest.raises(ValueError, match="sample 0 has shape None"):
            engine.run_batch([good.tolist()])
        assert engine.batches_executed == 0


def test_a_retried_batch_is_staged_once():
    with InferenceEngine(lambda: build_net("mlp", phase="TEST"),
                         num_threads=2, max_batch=4, clock=ManualClock(),
                         backoff_s=0.001) as engine:
        staged = [layer.source for layer in engine.net.layers
                  if isinstance(getattr(layer, "source", None),
                                StagedSource)]
        calls = []
        for source in staged:
            original = source.stage

            def counted(images, labels=None, original=original):
                calls.append(images)
                return original(images, labels)

            source.stage = counted
        layer = next(l for l in engine.net.layers if l.blobs)
        original_chunk = layer.forward_chunk
        crashes = {"left": 1}

        def crash_once(bottom, top, lo, hi):
            if crashes["left"]:
                crashes["left"] -= 1
                raise InjectedFault("test: worker crash")
            return original_chunk(bottom, top, lo, hi)

        layer.forward_chunk = crash_once
        rng = np.random.default_rng(0)
        result = engine.run_batch(
            [rng.random(engine.sample_shape, dtype=np.float32)
             for _ in range(3)])
        assert result.attempts == 2
        assert len(calls) == len(staged)
        # Both attempts read the one staged array, which nothing can
        # write to, and the batch log keeps that same array.
        assert all(source.batches_served == 2 for source in staged)
        assert calls[0] is engine.batch_log[-1].images
        assert not calls[0].flags.writeable
