"""Unit and integration tests for the resilience certifier.

Static half: the RS0xx lint on fabricated unsafe sources / classes and
its cleanliness on the real runtime.  Dynamic half: bitwise resume
certification per zoo net x reduction mode, the fault-injection
certification, and the CLI (including ``--gate`` semantics).
"""

import json
import textwrap

import pytest

from repro.analysis import ERROR
from repro.analysis.__main__ import main
from repro.analysis.rescheck import (
    DEFAULT_MODES,
    RescheckReport,
    ResumeCertificate,
    certify_faults,
    certify_resume,
    lint_batch_sources,
    lint_resilience,
    lint_rng_capture,
    lint_state_writes,
    run_rescheck,
)
from repro.framework.layer import Layer, RNGDecl
from repro.zoo import UnknownNet


class TestStaticLint:
    def test_runtime_sources_are_clean(self):
        assert lint_resilience() == []

    def test_raw_savez_flagged(self, tmp_path):
        bad = tmp_path / "snapshotter.py"
        bad.write_text(textwrap.dedent("""
            import numpy as np

            def save(path, arrays):
                np.savez(path, **arrays)
        """))
        findings = lint_state_writes(roots=[bad])
        assert [f.rule for f in findings] == ["RS001"]
        assert "atomic" in findings[0].message
        assert findings[0].location.endswith(":5")

    def test_raw_load_flagged(self, tmp_path):
        bad = tmp_path / "loader.py"
        bad.write_text(textwrap.dedent("""
            import numpy as np

            def load(path):
                return np.load(path)
        """))
        findings = lint_state_writes(roots=[bad])
        assert [f.rule for f in findings] == ["RS002"]

    def test_checkpoint_writer_is_exempt(self, tmp_path):
        writer_dir = tmp_path / "resilience"
        writer_dir.mkdir()
        writer = writer_dir / "checkpoint.py"
        writer.write_text("import numpy as np\nnp.savez('x', a=1)\n")
        assert lint_state_writes(roots=[tmp_path]) == []

    def test_uncapturable_per_forward_rng_flagged(self):
        class LeakyDropout(Layer):
            rng_provenance = RNGDecl(
                seed_params=("seed",), fallback="constant",
                draws="per_forward",
            )

            def layer_setup(self, bottom, top):
                import numpy as np
                # generator hidden from rng_state(): not self._rng
                self._hidden = np.random.default_rng(self.params["seed"])

        findings = lint_rng_capture(classes=[LeakyDropout])
        assert [f.rule for f in findings] == ["RS003"]
        assert findings[0].layer == "LeakyDropout"

    def test_capturable_per_forward_rng_passes(self):
        from repro.framework.layers import DropoutLayer

        assert lint_rng_capture(classes=[DropoutLayer]) == []

    def test_cursorless_batch_source_flagged(self):
        class CursorlessSource:
            def next_batch(self):
                return None

        findings = lint_batch_sources(classes=[CursorlessSource])
        assert [f.rule for f in findings] == ["RS004"]
        assert "get_state" in findings[0].message

    def test_real_batch_sources_pass(self):
        assert lint_batch_sources() == []


class TestResumeCertification:
    @pytest.mark.parametrize("net", ["mlp", "lenet", "cifar10"])
    @pytest.mark.parametrize("mode", DEFAULT_MODES)
    def test_bitwise_resume_per_net_and_mode(self, net, mode):
        cert = certify_resume(net, mode, threads=(2,), iters=2, batch=4)
        assert cert.ok, [str(f.message) for f in cert.findings]
        assert cert.resume_bitwise == {2: True}
        assert cert.roundtrip_stable == {2: True}

    def test_sequential_resume_certifies(self):
        # threads=1 exercises the no-executor path end to end
        cert = certify_resume("mlp", "blockwise", threads=(1,),
                              iters=2, batch=4)
        assert cert.ok

    def test_certificate_json_shape(self):
        cert = ResumeCertificate(net="mlp", mode="tree", threads=[2])
        payload = cert.to_json()
        assert payload["net"] == "mlp"
        assert payload["ok"] is True
        json.dumps(payload)  # must be serializable


class TestFaultCertification:
    def test_all_fault_classes_pass_on_mlp(self):
        findings = certify_faults("mlp", threads=2, iters=2, batch=4)
        assert findings == [], [f.message for f in findings]


class TestReport:
    def test_static_only_report(self):
        report = run_rescheck(static_only=True)
        assert report.ok
        assert report.certificates == []
        lines = report.summary_lines()
        assert any("rescheck static" in line for line in lines)
        assert lines[-1] == "verdict: RESILIENT"

    def test_report_aggregates_findings(self):
        from repro.analysis.report import Finding

        report = RescheckReport()
        report.static_findings.append(
            Finding(rule="RS001", severity=ERROR, layer="<x>",
                    message="raw write"))
        assert not report.ok
        assert any("VIOLATIONS" in line
                   for line in report.summary_lines())
        json.dumps(report.to_json())

    def test_unknown_net_rejected(self):
        with pytest.raises(UnknownNet, match="unknown zoo net"):
            run_rescheck(nets=["resnet152"], static_only=False,
                         threads=(1,), skip_faults=True)


class TestCli:
    def test_static_only_gate_passes(self, capsys):
        assert main(["rescheck", "--static-only", "--gate"]) == 0
        out = capsys.readouterr().out
        assert "verdict: RESILIENT" in out

    def test_dynamic_gate_single_net(self, capsys):
        code = main([
            "rescheck", "--net", "mlp", "--mode", "blockwise",
            "--threads", "2", "--skip-faults", "--gate",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "resume certificate: net=mlp mode=blockwise" in out

    def test_json_output(self, capsys):
        assert main(["rescheck", "--static-only", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_list_codes_includes_rs(self, capsys):
        assert main(["--list-codes"]) == 0
        out = capsys.readouterr().out
        for code in ("RS001", "RS004", "RS101", "RS102",
                     "RS201", "RS204"):
            assert code in out
        assert "rescheck" in out

    def test_bad_iters_rejected(self):
        with pytest.raises(SystemExit):
            main(["rescheck", "--iters", "0"])

    def test_tools_analyze_alias(self):
        import runpy
        from pathlib import Path

        wrapper = Path(__file__).resolve().parents[2] / "tools" / "analyze.py"
        assert runpy.run_path(str(wrapper))["main"] is main
