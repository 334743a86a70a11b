"""Tests for the execution tracer."""

import numpy as np
import pytest

from repro.analysis.plancheck import plan_spec
from repro.core import ParallelExecutor, Trace, TracingExecutor
from repro.data import register_default_sources
from repro.framework.solvers.base import SequentialExecutor
from repro.zoo import build_net, lenet_spec


class TestTrace:
    def test_totals_aggregate(self):
        trace = Trace()
        trace.record("conv1", "forward", 0.5, 1)
        trace.record("conv1", "forward", 0.25, 1)
        trace.record("conv1", "backward", 1.0, 1)
        assert trace.totals() == {("conv1", "forward"): 0.75,
                                  ("conv1", "backward"): 1.0}

    def test_shares_sum_to_one(self):
        trace = Trace()
        trace.record("a", "forward", 3.0, 1)
        trace.record("b", "forward", 1.0, 1)
        shares = trace.shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares[("a", "forward")] == pytest.approx(0.75)

    def test_table_renders(self):
        trace = Trace()
        trace.record("conv1", "forward", 0.001, 4)
        table = trace.table()
        assert "conv1" in table and "%" in table

    def test_clear(self):
        trace = Trace()
        trace.record("x", "forward", 1.0, 1)
        trace.clear()
        assert not trace.events


class TestTracingExecutor:
    def test_sequential_semantics_preserved(self):
        net = build_net("lenet")
        state = net.state_dict()
        ref_loss = net.forward()

        net2 = build_net("lenet")
        net2.load_state_dict(state)
        tracer = TracingExecutor(SequentialExecutor())
        loss = tracer.forward(net2)
        assert loss == ref_loss

    def test_events_per_layer(self):
        net = build_net("lenet")
        tracer = TracingExecutor(SequentialExecutor())
        tracer.forward(net)
        tracer.backward(net)
        layers = {e.layer for e in tracer.trace.events}
        assert "conv1" in layers and "loss" in layers
        passes = {e.pass_ for e in tracer.trace.events}
        assert passes == {"forward", "backward"}

    def test_parallel_semantics_preserved(self):
        net = build_net("lenet")
        state = net.state_dict()
        net.clear_param_diffs()
        net.forward()
        net.backward()
        ref = np.concatenate([b.flat_diff.copy()
                              for b in net.learnable_params])

        net2 = build_net("lenet")
        net2.load_state_dict(state)
        with ParallelExecutor(num_threads=3, reduction="blockwise") as inner:
            tracer = TracingExecutor(inner)
            net2.clear_param_diffs()
            tracer.forward(net2)
            tracer.backward(net2)
        grads = np.concatenate([b.flat_diff.copy()
                                for b in net2.learnable_params])
        assert np.array_equal(grads, ref)  # blockwise: bitwise invariant

    def test_conv_dominates_real_time(self):
        """The real measured breakdown shows the paper's Figure 4 story:
        convolutions dominate the iteration."""
        net = build_net("lenet")
        tracer = TracingExecutor(SequentialExecutor())
        for _ in range(2):
            net.clear_param_diffs()
            tracer.forward(net)
            tracer.backward(net)
        shares = tracer.trace.shares()
        conv_share = sum(v for (layer, _), v in shares.items()
                         if layer.startswith("conv"))
        assert conv_share > 0.4

    def test_thread_count_recorded(self):
        net = build_net("lenet")
        with ParallelExecutor(num_threads=2) as inner:
            tracer = TracingExecutor(inner)
            tracer.forward(net)
        assert all(e.threads == 2 for e in tracer.trace.events)

    def test_traced_planned_run_is_the_planned_run(self):
        """The tracer is a view: under a per-layer plan it runs the
        wrapped executor's own path — same loss and gradients bitwise,
        same number of parallel regions (planned-inline layers open
        none) — instead of re-driving the layers with the executor-wide
        schedule and no plan."""
        register_default_sources()  # the planner sizes the Data layer
        plan = plan_spec(lenet_spec(), net_name="lenet",
                         threads=2).plan
        assert any(lp.threads <= 1 for lp in plan.layers.values())
        assert any(lp.threads > 1 for lp in plan.layers.values())
        state = build_net("lenet").state_dict()

        def run(view):
            net = build_net("lenet")
            net.load_state_dict(state)
            regions = []
            with ParallelExecutor(num_threads=2, reduction="blockwise",
                                  plan=plan) as inner:
                parallel_for = inner.team.parallel_for

                def counted(space, body, schedule=None):
                    regions.append(space)
                    parallel_for(space, body, schedule)

                inner.team.parallel_for = counted
                executor = view(inner)
                net.clear_param_diffs()
                loss = executor.forward(net)
                executor.backward(net)
            grads = np.concatenate([b.flat_diff.copy()
                                    for b in net.learnable_params])
            return loss, grads, regions

        loss, grads, regions = run(lambda inner: inner)
        traced_loss, traced_grads, traced_regions = run(TracingExecutor)
        assert traced_loss == loss
        assert np.array_equal(traced_grads, grads)
        assert traced_regions == regions
