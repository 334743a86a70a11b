"""Unit and integration tests for the auto-parallelization planner.

Static half: the search itself (plans gate-clean over the zoo, mixed
thread widths, never predicted slower than uniform), the PL001-PL006
plan lint on handcrafted fixtures, and the PL101-PL104 drift wrappers.
Cost half: the parity regression — pricing the uniform strategy through
the planner's chain walk must equal ``CPUModel.iteration_time`` bitwise
for every zoo net.  Dynamic half: a planned configuration passes the FP
race gate and the detcheck replay certifies the claimed tier; the CLI
gate exits 0 over the zoo.
"""

import dataclasses
import json

import pytest

from repro.analysis import ERROR, INFO, WARNING
from repro.analysis.__main__ import main
from repro.analysis.codes import CODE_CATALOGUE
from repro.analysis.plancheck import (
    IMBALANCE_THRESHOLD,
    certify_plan,
    derive_dims,
    lint_plan,
    drift_findings,
    plan_spec,
    run_plancheck,
    thread_widths,
    uniform_chain_time,
)
from repro.analysis.race import run_dynamic
from repro.core.plan import ExecutionPlan, LayerPlan
from repro.core.reduction import BITWISE_INVARIANT, DETERMINISTIC_PER_T
from repro.data import register_default_sources
from repro.simulator import CPUModel, net_costs
from repro.zoo import build_net
from repro.zoo.build import _SPECS, UnknownNet

ZOO = ("lenet", "cifar10", "mlp")


def zoo_spec(name):
    register_default_sources()
    return _SPECS[name][0]()


@pytest.fixture(scope="module")
def lenet_report():
    return plan_spec(zoo_spec("lenet"), net_name="lenet", threads=8)


# ----------------------------------------------------------------------
# the search
# ----------------------------------------------------------------------
class TestPlanning:
    @pytest.mark.parametrize("net", ZOO)
    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_zoo_plans_are_gate_clean(self, net, threads):
        report = plan_spec(zoo_spec(net), net_name=net, threads=threads)
        assert report.plan is not None
        assert not [f for f in report.findings if f.severity == ERROR]
        assert report.gate_ok, [str(f) for f in report.findings]

    @pytest.mark.parametrize("net", ZOO)
    def test_never_predicted_slower_than_uniform(self, net):
        """The uniform strategy is always in the search space, so the
        winner can never price above it."""
        for threads in (1, 2, 8):
            report = plan_spec(zoo_spec(net), net_name=net, threads=threads)
            assert report.predicted_us <= report.uniform_us + 1e-9

    def test_lenet_mixes_thread_widths(self, lenet_report):
        """The point of per-layer planning: tiny layers run inline while
        the convolutions take the full team."""
        widths = {lp.layer: lp.threads
                  for lp in lenet_report.plan.layers.values()}
        assert widths["conv1"] == 8
        assert widths["loss"] == 1

    def test_single_thread_plan_is_all_inline(self):
        report = plan_spec(zoo_spec("mlp"), net_name="mlp", threads=1)
        assert all(lp.threads == 1
                   for lp in report.plan.layers.values())
        assert report.plan.tier == BITWISE_INVARIANT

    def test_search_prunes(self, lenet_report):
        assert lenet_report.candidates_pruned > 0
        assert (lenet_report.candidates_considered
                > lenet_report.candidates_pruned)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="threads"):
            plan_spec(zoo_spec("mlp"), threads=0)
        with pytest.raises(ValueError, match="tier"):
            plan_spec(zoo_spec("mlp"), claim="mostly-deterministic")

    def test_thread_widths(self):
        assert thread_widths(8) == [1, 2, 4, 8]
        assert thread_widths(6) == [1, 2, 4, 6]
        assert thread_widths(1) == [1]

    def test_derive_dims_product_matches_space(self):
        for net in ZOO:
            report = plan_spec(zoo_spec(net), net_name=net, threads=8)
            for lp in report.plan.layers.values():
                if lp.dims:
                    product = 1
                    for _, extent in lp.dims:
                        product *= extent
                    assert product == lp.space, lp.layer


# ----------------------------------------------------------------------
# cost-model parity
# ----------------------------------------------------------------------
class TestCostParity:
    @pytest.mark.parametrize("net", ZOO)
    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_uniform_chain_equals_iteration_time(self, net, threads):
        """Per-layer candidate costs summed by the planner must equal
        the cost model's own iteration total — bitwise, not approx."""
        chain = uniform_chain_time(zoo_spec(net), threads=threads,
                                   mode="ordered")
        reference = CPUModel().iteration_time(
            net_costs(build_net(net)), threads
        )
        assert chain == reference


# ----------------------------------------------------------------------
# plan lint: PL001-PL006
# ----------------------------------------------------------------------
def codes_of(findings):
    return [f.rule for f in findings]


class TestLint:
    @pytest.fixture(scope="class")
    def plan(self):
        return plan_spec(zoo_spec("lenet"), net_name="lenet",
                         threads=8).plan

    @pytest.fixture(scope="class")
    def spec(self):
        return zoo_spec("lenet")

    def test_clean_plan_lints_clean(self, plan, spec):
        assert [f for f in lint_plan(plan, spec)
                if f.severity == ERROR] == []

    def test_pl001_unknown_layer(self, plan, spec):
        bad = plan.with_layer(LayerPlan(layer="ghost", threads=1))
        findings = [f for f in lint_plan(bad, spec) if f.rule == "PL001"]
        assert findings and findings[0].severity == ERROR
        assert findings[0].layer == "ghost"

    def test_pl002_dims_mismatch(self, spec, plan):
        bad = plan.with_layer(LayerPlan(
            layer="conv1", threads=2, space=64,
            dims=(("sample", 64), ("channel", 3)), coalesced=1,
            granularity=1,
        ))
        codes = codes_of(lint_plan(bad, spec))
        assert "PL002" in codes

    def test_pl002_granularity_mismatch(self, spec, plan):
        bad = plan.with_layer(LayerPlan(
            layer="conv1", threads=2, space=192,
            dims=(("sample", 64), ("channel", 3)), coalesced=1,
            granularity=7,
        ))
        codes = codes_of(lint_plan(bad, spec))
        assert "PL002" in codes

    def test_pl002_coalesced_out_of_range(self, spec, plan):
        bad = plan.with_layer(LayerPlan(
            layer="conv1", threads=2, space=64,
            dims=(("sample", 64),), coalesced=5,
        ))
        assert "PL002" in codes_of(lint_plan(bad, spec))

    def test_pl003_threads_exceed_units(self, spec, plan):
        bad = plan.with_layer(LayerPlan(
            layer="conv1", threads=8, space=4,
            dims=(("sample", 4),), coalesced=1,
        ))
        assert "PL003" in codes_of(lint_plan(bad, spec))

    def test_pl004_tier_degrade(self, spec, plan):
        assert plan.tier == BITWISE_INVARIANT
        bad = plan.with_layer(LayerPlan(
            layer="conv1", threads=8, reduction="atomic", space=64,
            dims=(("sample", 64),), coalesced=1,
        ))
        findings = [f for f in lint_plan(bad, spec) if f.rule == "PL004"]
        assert findings and findings[0].severity == ERROR

    def test_pl005_slower_than_uniform(self, spec, plan):
        slow = dataclasses.replace(
            plan, predicted_us=plan.uniform_us * 2 + 1.0
        )
        findings = [f for f in lint_plan(slow, spec) if f.rule == "PL005"]
        assert findings and findings[0].severity == WARNING

    def test_pl006_imbalance_info(self, spec, plan):
        """5 units over 4 threads: busiest owns 2 vs ideal 1.25 — 60%
        imbalance, well past the 20% threshold, severity INFO."""
        lumpy = plan.with_layer(LayerPlan(
            layer="conv1", threads=4, space=5,
            dims=(("sample", 5),), coalesced=1,
        ))
        findings = [f for f in lint_plan(lumpy, spec) if f.rule == "PL006"]
        assert findings and findings[0].severity == INFO
        assert "60%" in findings[0].message

    def test_pl006_balanced_is_quiet(self, spec, plan):
        even = plan.with_layer(LayerPlan(
            layer="conv1", threads=4, space=64,
            dims=(("sample", 64),), coalesced=1,
        ))
        assert "PL006" not in codes_of(lint_plan(even, spec))


# ----------------------------------------------------------------------
# drift wrappers: PL101-PL104 severities
# ----------------------------------------------------------------------
class TestDriftFindings:
    def test_severities(self, lenet_report):
        net = build_net("lenet")
        plan = lenet_report.plan
        findings = drift_findings(plan, net, 2)  # team too small: PL103
        assert findings
        assert all(f.rule == "PL103" and f.severity == ERROR
                   for f in findings)

    def test_pl104_is_warning(self, lenet_report):
        net = build_net("lenet")
        layers = dict(lenet_report.plan.layers)
        del layers["conv1"]
        gappy = dataclasses.replace(lenet_report.plan, layers=layers)
        findings = [f for f in drift_findings(gappy, net, 8)
                    if f.rule == "PL104"]
        assert findings and findings[0].severity == WARNING


# ----------------------------------------------------------------------
# dynamic gates: races + replay certification
# ----------------------------------------------------------------------
class TestDynamicGates:
    def test_planned_run_has_no_races(self):
        report = plan_spec(zoo_spec("mlp"), net_name="mlp", threads=8)
        net = build_net("mlp")
        dynamic = run_dynamic(net, "mlp", 8, plan=report.plan)
        assert dynamic.races == []

    def test_certify_bitwise_claim(self):
        findings, plan = certify_plan("lenet", threads=2, iters=1,
                                      batch=4)
        assert findings == []
        assert plan is not None and plan.batch == 4

    def test_certify_deterministic_claim(self):
        findings, _ = certify_plan("mlp", threads=4, iters=1, batch=4,
                                   claim=DETERMINISTIC_PER_T)
        assert [f for f in findings if f.severity == ERROR] == []


# ----------------------------------------------------------------------
# report + CLI surface
# ----------------------------------------------------------------------
class TestReportAndCLI:
    def test_run_plancheck_gate(self):
        report = run_plancheck(("mlp",), threads=(1, 2))
        assert report.ok
        data = report.to_json()
        assert json.dumps(data)  # serializable
        assert len(data["reports"]) == 2

    def test_report_json_has_plan(self):
        report = run_plancheck(("mlp",), threads=(2,))
        entry = report.to_json()["reports"][0]
        assert entry["plan"]["format"] == "repro-plan/1"
        assert entry["gate_ok"] is True

    def test_unknown_net_exits(self):
        with pytest.raises(UnknownNet, match="unknown zoo net"):
            run_plancheck(("imagenet",))

    def test_cli_gate_ok(self, capsys):
        assert main(["plancheck", "--net", "mlp", "--threads", "1,2",
                     "--gate"]) == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_cli_emit_plan_round_trips(self, tmp_path, capsys):
        path = str(tmp_path / "mlp.plan.json")
        assert main(["plancheck", "--net", "mlp", "--threads", "2",
                     "--emit-plan", path]) == 0
        plan = ExecutionPlan.load(path)
        assert plan.team_threads == 2
        assert plan.layers

    def test_cli_json_output(self, capsys):
        assert main(["plancheck", "--net", "mlp", "--threads", "2",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["reports"][0]["net"] == "mlp"

    def test_pl_codes_registered(self, capsys):
        for code in ("PL001", "PL002", "PL003", "PL004", "PL005",
                     "PL006", "PL101", "PL102", "PL103", "PL104",
                     "PL201", "PL202"):
            assert code in CODE_CATALOGUE
        main(["--list-codes"])
        out = capsys.readouterr().out
        assert "PL001" in out and "PL201" in out

    def test_imbalance_threshold_is_twenty_percent(self):
        assert IMBALANCE_THRESHOLD == pytest.approx(0.20)

    def test_derive_dims_serial(self):
        dims = derive_dims("SoftmaxWithLoss", (4, 10), _FakeCost(
            serial=True, space=1, dist="serial"
        ))
        assert dims == (("serial", 1),)


class _FakeCost:
    def __init__(self, serial, space, dist):
        self.serial = serial
        self.space = space
        self.dist = dist
