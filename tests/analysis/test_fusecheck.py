"""Tests for the graph-compiler certifier (fusecheck, FU codes)."""

import json

import pytest

from repro.analysis.fusecheck import (
    FusecheckReport,
    certify_fuse,
    check_fuse,
)
from repro.analysis.report import ERROR, INFO


@pytest.fixture(autouse=True)
def _sources():
    from repro.data import register_default_sources

    register_default_sources()


def _zoo_spec(name):
    from repro.zoo.build import _SPECS

    return _SPECS[name][0]()


class TestCheckFuse:
    def test_lenet_passes_all_static_stages(self):
        report = check_fuse(_zoo_spec("lenet"), net_name="lenet",
                            threads=8, batch=4)
        assert report.ok
        assert len(report.fusion["fused"]) == 1
        assert report.arena is not None
        assert report.arena["arena_bytes"] < report.arena["baseline_bytes"]
        assert not any(f.rule == "FU004" for f in report.findings)

    def test_mlp_reports_nothing_to_fuse(self):
        report = check_fuse(_zoo_spec("mlp"), net_name="mlp",
                            threads=2, batch=4)
        assert report.ok
        assert any(f.rule == "FU005" and f.severity == INFO
                   for f in report.findings)

    def test_report_roundtrips_to_json(self):
        report = check_fuse(_zoo_spec("mlp"), net_name="mlp",
                            threads=1, batch=4)
        doc = FusecheckReport(reports=[report]).to_json()
        json.dumps(doc)  # must be serializable
        assert doc["ok"] is True
        assert doc["reports"][0]["net"] == "mlp"
        assert doc["reports"][0]["arena"]["arena_bytes"] > 0

    def test_summary_has_verdict_line(self):
        doc = FusecheckReport(reports=[check_fuse(
            _zoo_spec("mlp"), net_name="mlp", threads=1, batch=4)])
        assert doc.summary_lines()[-1] == "verdict: OK"

    def test_cost_parity_is_really_checked(self):
        """spec_costs and net_costs must agree on the fused zoo nets."""
        from repro.compiler.fuse import fuse_spec
        from repro.framework.net import Net
        from repro.simulator.cost_model import net_costs, spec_costs

        for name in ("lenet", "cifar10"):
            fused_spec, _ = fuse_spec(_zoo_spec(name))
            net = Net(fused_spec, phase="TRAIN")
            net.forward()
            assert net_costs(net) == spec_costs(fused_spec, phase="TRAIN")


    def test_batch_override_reaches_input_layers_on_both_sides(self):
        """One batch override (``with_batch``) under ``infer_net`` and the
        live net: an ``Input`` layer's ``shape { dim }`` is rewritten for
        both, so ``--batch`` on a correct prototxt is no FU004."""
        from repro.framework.net import Net
        from repro.framework.net_spec import with_batch
        from repro.framework.prototxt import parse_prototxt

        spec = parse_prototxt("""
            name: "tiny"
            layer { name: "in" type: "Input" top: "x"
                    input_param { shape { dim: 10 dim: 12 } } }
            layer { name: "ip" type: "InnerProduct" bottom: "x" top: "y"
                    inner_product_param { num_output: 5 } }
            layer { name: "relu" type: "ReLU" bottom: "y" top: "y" }
        """)
        report = check_fuse(spec, net_name="tiny", threads=2, batch=2)
        assert [f.rule for f in report.findings if f.severity == ERROR] == []
        assert Net(with_batch(spec, 2)).blob("y").shape == (2, 5)
        assert Net(spec).blob("y").shape == (10, 5)  # spec left alone

    @staticmethod
    def _lenet_under_a_lying_ip1_rule(monkeypatch, lies):
        """check_fuse on lenet with the fused ip1's rule reporting one
        weight column too many on its first ``lies`` calls."""
        import dataclasses

        from repro.framework import shape_inference

        rule = shape_inference.shape_rule_for("FusedInnerProductReLU")
        asked = []

        def wrong_weights(spec, bottoms):
            result = rule.fn(spec, bottoms)
            asked.append(spec.name)
            if len(asked) <= lies:
                num_output, inner = result.param_shapes[0]
                result.param_shapes[0] = (num_output, inner + 1)
            return result

        monkeypatch.setitem(
            shape_inference._SHAPE_RULES, "fusedinnerproductrelu",
            dataclasses.replace(rule, fn=wrong_weights))
        return check_fuse(_zoo_spec("lenet"), net_name="lenet",
                          threads=2, batch=4)

    def test_fu004_fires_when_a_rule_misreports_live_shapes(self, monkeypatch):
        """Both sides go through one cost ladder and one shape rule, so
        FU004 is exactly "the rule told netcheck (who asks first)
        something else than it told the live layer" — an impure rule."""
        report = self._lenet_under_a_lying_ip1_rule(monkeypatch, lies=1)
        assert [f.layer for f in report.findings if f.rule == "FU004"] == [
            "ip1"]

    def test_a_consistently_wrong_rule_cannot_build_a_net(self, monkeypatch):
        """The live layer has no shape arithmetic of its own to disagree
        with: a rule that always misreports the weights allocates them
        that way, and the first forward fails — FU001, not a silent cost
        skew."""
        report = self._lenet_under_a_lying_ip1_rule(monkeypatch, lies=99)
        assert [f.rule for f in report.findings
                if f.severity == ERROR] == ["FU001"]

    def test_each_spec_is_inferred_once(self, monkeypatch):
        """The callers hand the SymbolicNet on instead of re-inferring:
        one ``infer_net`` per spec in check_fuse (unfused + fused), one
        per check_spec / plan_spec / roofline_net net."""
        from repro.analysis import netcheck, perfcheck, plancheck
        from repro.framework import symbolic
        from repro.simulator import cost_model
        from repro.simulator.cpu_model import CPUModel

        calls = []
        real = symbolic.infer_net

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (symbolic, netcheck, plancheck, cost_model):
            monkeypatch.setattr(module, "infer_net", counting)

        def count(fn, *args, **kwargs):
            del calls[:]
            fn(*args, **kwargs)
            return len(calls)

        spec = _zoo_spec("lenet")
        assert count(netcheck.check_spec, spec, batch=4) == 1
        assert count(plancheck.plan_spec, spec, threads=2, batch=4) == 1
        assert count(perfcheck.roofline_net, "lenet", (1, 2, 8),
                     CPUModel()) == 1
        assert count(check_fuse, spec, threads=2, batch=4) == 2


class TestCertifyFuse:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_lenet_certifies_bitwise(self, threads):
        findings, plan = certify_fuse("lenet", threads=threads,
                                      iters=2, batch=4)
        assert plan is not None
        rules = [f.rule for f in findings]
        assert "FU202" in rules
        assert not any(f.severity == ERROR for f in findings)

    def test_unknown_net_raises(self):
        with pytest.raises(KeyError):
            certify_fuse("nope", threads=2)


class TestCli:
    def test_gate_passes_on_zoo_net(self, capsys):
        from repro.analysis.__main__ import main

        rc = main(["fusecheck", "--net", "mlp", "--threads", "1",
                   "--batch", "4", "--gate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: OK" in out

    def test_json_output(self, capsys):
        from repro.analysis.__main__ import main

        rc = main(["fusecheck", "--net", "lenet", "--threads", "2",
                   "--batch", "4", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["reports"][0]["fusion"]["fused"]

    def test_codes_catalogue_names_fu_family(self):
        from repro.analysis.codes import CODE_CATALOGUE

        for code in ("FU001", "FU002", "FU003", "FU004", "FU005",
                     "FU201", "FU202"):
            assert code in CODE_CATALOGUE
            assert CODE_CATALOGUE[code][0] == "fusecheck"
