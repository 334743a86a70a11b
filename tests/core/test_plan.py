"""Tests for per-layer execution plans (repro.core.plan).

Covers the plan data model (validation, tiers, JSON round-trip), the
PlannedSchedule chunk protocol (exact partition, thread capping,
granularity alignment), load-time drift detection (PL101-PL104), and
the load-bearing runtime claim: a planned run mixing per-layer thread
counts, granularities and reduction modes is bitwise equal to the
sequential pass when every layer sits at the bitwise tier.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import ParallelExecutor
from repro.core.plan import (
    ExecutionPlan,
    LayerPlan,
    PlannedSchedule,
    plan_drift,
    plan_schedule_for,
    uniform_plan,
)
from repro.core.reduction import (
    BITWISE_INVARIANT,
    DETERMINISTIC_PER_T,
    NONDETERMINISTIC,
)
from repro.core.scheduling import DynamicSchedule, StaticSchedule
from repro.zoo import build_net


def layer_spaces(net):
    """(name, coalesced forward space) per layer, shapes propagated."""
    spaces = []
    for layer, bottom, top in zip(net.layers, net.bottoms, net.tops):
        layer.reshape(bottom, top)
        spaces.append((layer.name, layer.forward_space(bottom, top)))
    return spaces


class TestLayerPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="threads"):
            LayerPlan(layer="x", threads=0)
        with pytest.raises(ValueError, match="granularity"):
            LayerPlan(layer="x", threads=1, granularity=0)
        with pytest.raises(ValueError, match="reduction"):
            LayerPlan(layer="x", threads=1, reduction="majority-vote")

    @pytest.mark.parametrize("schedule", [
        "bogus", "static,x", "static,-3", "dynamic,0", "guided,0",
    ])
    def test_rejects_malformed_schedule_naming_the_layer(self, schedule):
        with pytest.raises(ValueError, match=r"layer 'conv1': .*schedule"):
            LayerPlan(layer="conv1", threads=2, schedule=schedule)

    def test_single_thread_is_bitwise(self):
        lp = LayerPlan(layer="x", threads=1, reduction="atomic")
        assert lp.tier("atomic", False) == BITWISE_INVARIANT

    def test_tier_follows_mode_and_schedule(self):
        blockwise = LayerPlan(layer="x", threads=4, reduction="blockwise")
        assert blockwise.tier("ordered", True) == BITWISE_INVARIANT
        ordered = LayerPlan(layer="x", threads=4, reduction="ordered")
        assert ordered.tier("ordered", True) == DETERMINISTIC_PER_T
        atomic = LayerPlan(layer="x", threads=4, reduction="atomic")
        assert atomic.tier("ordered", True) == NONDETERMINISTIC

    def test_none_reduction_inherits_base_mode(self):
        lp = LayerPlan(layer="x", threads=4)
        assert lp.tier("blockwise", True) == BITWISE_INVARIANT
        assert lp.tier("atomic", True) == NONDETERMINISTIC


class TestPlanRoundTrip:
    def _plan(self):
        plan = ExecutionPlan(net="lenet", batch=64, team_threads=8,
                             tier=BITWISE_INVARIANT, predicted_us=12.5,
                             uniform_us=14.0)
        plan.add(LayerPlan(
            layer="conv1", threads=8, granularity=1, reduction="blockwise",
            space=64, dims=(("sample", 64),), coalesced=1,
        ))
        plan.add(LayerPlan(
            layer="pool1", threads=8, granularity=20, space=1280,
            dims=(("sample", 64), ("channel", 20)), coalesced=1,
        ))
        return plan

    def test_json_round_trip(self, tmp_path):
        plan = self._plan()
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert ExecutionPlan.load(path) == plan

    def test_load_rejects_malformed_layer_schedule(self, tmp_path):
        data = self._plan().to_json()
        data["layers"][0]["schedule"] = "dynamic,0"
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="layer 'conv1'.*'dynamic,0'"):
            ExecutionPlan.load(str(path))

    def test_rejects_foreign_format(self):
        with pytest.raises(ValueError, match="format"):
            ExecutionPlan.from_json({"format": "not-a-plan/9"})

    def test_with_layer_does_not_mutate(self):
        plan = self._plan()
        other = plan.with_layer(LayerPlan(layer="conv1", threads=1))
        assert plan.layers["conv1"].threads == 8
        assert other.layers["conv1"].threads == 1


class TestPlannedSchedule:
    @pytest.mark.parametrize("space", [17, 64, 100])
    @pytest.mark.parametrize("threads", [1, 2, 8])
    @pytest.mark.parametrize("granularity", [1, 4, 7])
    def test_exact_partition(self, space, threads, granularity):
        """Every iteration owned exactly once; chunk starts on whole
        granularity blocks; inactive team threads get empty plans."""
        sched = PlannedSchedule(StaticSchedule(), threads, granularity)
        team = 8
        per_thread = sched.plan(space, team)
        assert len(per_thread) == team
        for chunks in per_thread[min(threads, team):]:
            assert chunks == []
        covered = []
        for chunks in per_thread:
            for lo, hi in chunks:
                assert 0 <= lo < hi <= space
                assert lo % granularity == 0
                covered.extend(range(lo, hi))
        assert sorted(covered) == list(range(space))

    def test_caps_at_team_size(self):
        sched = PlannedSchedule(StaticSchedule(), 8)
        assert len(sched.plan(100, 2)) == 2

    def test_chunk_server_scales_granularity(self):
        sched = PlannedSchedule(DynamicSchedule(chunk=1), 2, granularity=10)
        server = sched.chunk_server(25, 8)
        chunks = []
        while (chunk := server.next_chunk()) is not None:
            chunks.append(chunk)
        assert chunks == [(0, 10), (10, 20), (20, 25)]

    def test_validation(self):
        with pytest.raises(ValueError):
            PlannedSchedule(StaticSchedule(), 0)
        with pytest.raises(ValueError):
            PlannedSchedule(StaticSchedule(), 1, granularity=0)

    def test_plan_schedule_for_drops_stale_granularity(self):
        lp = LayerPlan(layer="x", threads=2, granularity=50, space=100)
        assert plan_schedule_for(lp, 100).granularity == 50
        # live space drifted: granularity no longer meaningful
        assert plan_schedule_for(lp, 64).granularity == 1


class TestPlanDrift:
    @pytest.fixture(scope="class")
    def net(self):
        return build_net("mlp")

    @pytest.fixture(scope="class")
    def plan(self, net):
        return uniform_plan(net.name, 32, 4, "blockwise",
                            layer_spaces(net))

    def test_clean_plan_has_no_drift(self, net, plan):
        assert plan_drift(plan, net, 4) == []

    def test_net_mismatch_is_pl101(self, net, plan):
        other = dataclasses.replace(plan, net="cifar10")
        codes = [code for code, _, _ in plan_drift(other, net, 4)]
        assert "PL101" in codes

    def test_orphan_entry_is_pl101(self, net, plan):
        other = plan.with_layer(LayerPlan(layer="ghost", threads=1))
        issues = plan_drift(other, net, 4)
        assert [c for c, layer, _ in issues if layer == "ghost"] == ["PL101"]

    def test_space_drift_is_pl102(self, net, plan):
        name = next(n for n, lp in plan.layers.items() if lp.space > 1)
        stale = dataclasses.replace(plan.layers[name], space=7)
        codes = [c for c, _, _ in plan_drift(plan.with_layer(stale), net, 4)]
        assert "PL102" in codes

    def test_thread_overcommit_is_pl103(self, net, plan):
        codes = [c for c, _, _ in plan_drift(plan, net, 2)]
        assert "PL103" in codes

    def test_missing_parallel_layer_is_pl104(self, net, plan):
        name = next(n for n, lp in plan.layers.items() if lp.space > 1)
        layers = dict(plan.layers)
        del layers[name]
        gappy = dataclasses.replace(plan, layers=layers)
        issues = plan_drift(gappy, net, 4)
        assert [c for c, layer, _ in issues if layer == name] == ["PL104"]


class TestPlannedExecution:
    """Planned runs must honour the tier they claim."""

    @pytest.fixture(scope="class")
    def mlp_reference(self):
        net = build_net("mlp")
        state = net.state_dict()
        net.clear_param_diffs()
        loss = net.forward()
        net.backward()
        grads = np.concatenate(
            [b.flat_diff.copy() for b in net.learnable_params]
        )
        return state, loss, grads

    def _mixed_plan(self, net, team):
        """Alternate inline and full-width layers, blockwise merges —
        every layer at the bitwise tier, widths deliberately uneven."""
        plan = ExecutionPlan(net=net.name, batch=0, team_threads=team,
                             tier=BITWISE_INVARIANT)
        for i, (name, space) in enumerate(layer_spaces(net)):
            threads = 1 if i % 2 == 0 else min(team, max(space, 1))
            plan.add(LayerPlan(
                layer=name, threads=threads,
                granularity=max(1, space // 8) if threads > 1 else 1,
                reduction="blockwise", space=space,
                dims=(("iteration", space),) if space else (),
                coalesced=1 if space else 0,
            ))
        return plan

    @pytest.mark.parametrize("team", [2, 4, 8])
    def test_mixed_plan_bitwise_equals_sequential(self, mlp_reference, team):
        state, ref_loss, ref_grads = mlp_reference
        # derive the plan from a throwaway instance: probing spaces
        # reshapes layers, which must not disturb the measured net
        plan = self._mixed_plan(build_net("mlp"), team)
        net = build_net("mlp")
        net.load_state_dict(state)
        with ParallelExecutor(num_threads=team, reduction="blockwise",
                              plan=plan) as ex:
            net.clear_param_diffs()
            loss = ex.forward(net)
            ex.backward(net)
            grads = np.concatenate(
                [b.flat_diff.copy() for b in net.learnable_params]
            )
        assert loss == ref_loss
        assert np.array_equal(grads, ref_grads)

    def test_all_inline_plan_equals_sequential(self, mlp_reference):
        """A plan that pins every layer to one thread runs inline on the
        master even under an atomic executor — still bitwise."""
        state, ref_loss, ref_grads = mlp_reference
        probe = build_net("mlp")
        plan = uniform_plan(probe.name, 0, 1, "blockwise",
                            layer_spaces(probe))
        net = build_net("mlp")
        net.load_state_dict(state)
        with ParallelExecutor(num_threads=4, reduction="atomic",
                              plan=plan) as ex:
            net.clear_param_diffs()
            loss = ex.forward(net)
            ex.backward(net)
            grads = np.concatenate(
                [b.flat_diff.copy() for b in net.learnable_params]
            )
        assert loss == ref_loss
        assert np.array_equal(grads, ref_grads)

    def test_executor_tier_reflects_plan(self):
        plan = ExecutionPlan(net="x", batch=0, team_threads=4,
                             tier=BITWISE_INVARIANT)
        plan.add(LayerPlan(layer="a", threads=4, reduction="blockwise"))
        ex = ParallelExecutor(num_threads=4, reduction="blockwise",
                              plan=plan)
        try:
            assert ex.invariance_tier == BITWISE_INVARIANT
        finally:
            ex.close()
        weak = plan.with_layer(LayerPlan(layer="a", threads=4,
                                         reduction="atomic"))
        ex = ParallelExecutor(num_threads=4, reduction="blockwise",
                              plan=weak)
        try:
            assert ex.invariance_tier == NONDETERMINISTIC
        finally:
            ex.close()
