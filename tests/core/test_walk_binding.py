"""The walk binds each loop once: what a pass resolves is rebuilt when
an input changes, and steady passes stay observable from outside.

A bound executor must give, after any change of its inputs — the batch
size, the plan, a team restart, ``rows``/``upto`` — the bytes a fresh
executor gives on the same net and batch; a steady pass re-derives no
shape; and wrappers installed on instances after warm-up (what the
benchmark's tracer does) see every chunk and region of the next pass.
"""

import numpy as np
import pytest

import repro.framework.layer as layer_module
from repro.core import ParallelExecutor
from repro.core.plan import uniform_plan
from repro.framework.solvers.base import SequentialExecutor
from repro.serve.engine import _swap_in_staged_sources
from repro.zoo import build_net


def staged_net(phase="TEST", batch=8):
    net = build_net("lenet", phase=phase)
    return net, _swap_in_staged_sources(net, batch)


def images(batch, seed):
    rng = np.random.default_rng(seed)
    return rng.random((batch, 1, 28, 28), dtype=np.float32)


def stage(net, staged, batch, seed):
    for layer in net.layers:
        if getattr(layer, "source", None) in staged:
            layer.batch_size = batch
    for source in staged:
        source.stage(images(batch, seed))


def poisoned_pass(executor, net, backward=False, **walk):
    """One pass over NaN-filled activations; returns every blob's bytes,
    so a row a pass computes but should not (or skips but should) shows."""
    for blob in net.blob_map.values():
        blob.data[...] = np.nan
    executor.forward(net, **walk)
    if backward:
        net.clear_param_diffs()
        executor.backward(net)
    blobs = [blob.data.tobytes() for blob in net.blob_map.values()]
    if backward:
        blobs += [blob.diff.tobytes() for blob in net.learnable_params]
    return blobs


def warm(executor, net, staged, passes=2, backward=False, **walk):
    for seed in range(passes):
        stage(net, staged, 8, seed)
        poisoned_pass(executor, net, backward, **walk)


class TestRebinding:
    """A change of input gives the result a fresh executor gives."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_batch_size_reshape(self, threads):
        net, staged = staged_net("TRAIN")
        with ParallelExecutor(num_threads=threads,
                              reduction="blockwise") as bound:
            warm(bound, net, staged, backward=True)
            stage(net, staged, 5, seed=9)
            got = poisoned_pass(bound, net, backward=True)
        with ParallelExecutor(num_threads=threads,
                              reduction="blockwise") as fresh:
            want = poisoned_pass(fresh, net, backward=True)
        assert got == want

    def test_new_plan(self):
        net, staged = staged_net()
        spaces = []
        for layer, bottom, top in zip(net.layers, net.bottoms, net.tops):
            layer.reshape(bottom, top)
            spaces.append((layer.name, layer.forward_space(bottom, top)))
        plan = uniform_plan("lenet", 8, 1, "ordered", spaces)
        with ParallelExecutor(num_threads=2) as bound:
            warm(bound, net, staged)
            bound.plan = plan
            regions = []
            parallel_for = bound.team.parallel_for
            bound.team.parallel_for = (
                lambda *args: regions.append(args[0]) or parallel_for(*args))
            stage(net, staged, 8, seed=9)
            got = poisoned_pass(bound, net)
        # every planned layer runs inline: no region is left bound
        assert regions == []
        with ParallelExecutor(num_threads=2, plan=plan) as fresh:
            assert poisoned_pass(fresh, net) == got

    def test_team_restart(self):
        net, staged = staged_net("TRAIN")
        with ParallelExecutor(num_threads=2, reduction="ordered") as bound:
            warm(bound, net, staged, backward=True)
            bound.team.restart()
            stage(net, staged, 8, seed=9)
            got = poisoned_pass(bound, net, backward=True)
        with ParallelExecutor(num_threads=2, reduction="ordered") as fresh:
            assert poisoned_pass(fresh, net, backward=True) == got

    @pytest.mark.parametrize("executor", ["sequential", "parallel"])
    def test_new_rows_and_upto(self, executor):
        net, staged = staged_net()
        make = {"sequential": SequentialExecutor,
                "parallel": lambda: ParallelExecutor(num_threads=2)}[executor]
        bound = make()
        warm(bound, net, staged, rows=8, upto=len(net.layers) - 1)
        for rows, upto in ((3, 6), (3, 4), (8, 6), (1, 6)):
            stage(net, staged, 8, seed=rows)
            got = poisoned_pass(bound, net, rows=rows, upto=upto)
            assert poisoned_pass(make(), net, rows=rows, upto=upto) == got


def test_steady_passes_derive_no_shape(monkeypatch):
    net, staged = staged_net("TRAIN")
    calls = []
    infer_layer = layer_module.infer_layer

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return infer_layer(*args, **kwargs)

    monkeypatch.setattr(layer_module, "infer_layer", counted)
    with ParallelExecutor(num_threads=2, reduction="blockwise") as executor:
        warm(executor, net, staged, backward=True)
        calls.clear()
        warm(executor, net, staged, passes=3, backward=True)
        assert calls == []
        stage(net, staged, 4, seed=0)
        poisoned_pass(executor, net, backward=True)
        assert calls  # a reshape re-derives


class _Counts:
    """The benchmark tracer's shadows, counting: ``team.parallel_for``,
    every layer's ``forward_chunk`` and ``backward_loops`` (and through
    it each loop body), all installed on instances."""

    def __init__(self, executor, net):
        self.regions = self.chunks = 0
        team = executor.team
        team.parallel_for = self.counted(team.parallel_for, "regions")
        for layer in net.layers:
            layer.forward_chunk = self.counted(layer.forward_chunk, "chunks")
            layer.backward_loops = self.counted_loops(layer.backward_loops)

    def counted(self, fn, field):
        def wrapper(*args, **kwargs):
            setattr(self, field, getattr(self, field) + 1)
            return fn(*args, **kwargs)
        return wrapper

    def counted_loops(self, backward_loops):
        def wrapper(*args, **kwargs):
            loops = backward_loops(*args, **kwargs)
            for loop in loops:
                loop.body = self.counted(loop.body, "chunks")
            return loops
        return wrapper

    def take(self):
        counts, self.regions, self.chunks = (self.regions, self.chunks), 0, 0
        return counts


@pytest.mark.parametrize("threads, reduction", [(1, "blockwise"),
                                                (2, "blockwise"),
                                                (2, "ordered")])
def test_wrappers_installed_after_warm_up_see_every_chunk(threads, reduction):
    """Shadows installed after warm-up count, pass after pass, what they
    count when installed on a fresh executor before its first pass: no
    bound step holds a method it looked up before the shadows went in,
    and none is wrapped twice."""
    def passes(executor, net, staged, counts, n):
        seen = []
        for seed in range(n):
            stage(net, staged, 8, seed)
            poisoned_pass(executor, net, backward=True)
            seen.append(counts.take())
        return seen

    net, staged = staged_net("TRAIN")
    with ParallelExecutor(num_threads=threads, reduction=reduction) as ex:
        counts = _Counts(ex, net)
        want = passes(ex, net, staged, counts, 1)[0]
    assert want[0] > 0 and want[1] > want[0]

    net, staged = staged_net("TRAIN")
    with ParallelExecutor(num_threads=threads, reduction=reduction) as ex:
        warm(ex, net, staged, backward=True)
        counts = _Counts(ex, net)
        assert passes(ex, net, staged, counts, 3) == [want] * 3
