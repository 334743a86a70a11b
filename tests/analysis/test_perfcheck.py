"""Unit tests for the performance certifier (perflint + perfcheck)
and BLAS pinning."""

import json

import numpy as np
import pytest

from repro.analysis.perfcheck import (
    _classify,
    dram_saturation_width,
    run_perfcheck,
)
from repro.analysis.perflint import (
    analyze_layer_classes_perf,
    analyze_layer_perf,
    lint_sources_perf,
)
from repro.analysis.report import WARNING
from repro.bench.pinning import BLAS_THREAD_VARS, pin_blas_threads
from repro.analysis.sources import chunk_reachable
from repro.framework.layer import LayerContract, LoopSpec
from repro.simulator import CPUModel
from repro.simulator.cost_model import LayerCost


# ---------------------------------------------------------------------------
# synthetic layer classes for the lint (source comes from this file)
# ---------------------------------------------------------------------------
class CleanLayer:
    def forward_chunk(self, bottom, top, lo, hi):
        top[0].data[lo:hi] = np.maximum(bottom[0].data[lo:hi], 0)


class Float64Layer:
    def forward_chunk(self, bottom, top, lo, hi):
        x = bottom[0].data[lo:hi].astype(np.float64)
        top[0].data[lo:hi] = x


class AllocLayer:
    def forward_chunk(self, bottom, top, lo, hi):
        buf = np.zeros((hi - lo, 4))
        top[0].data[lo:hi] = buf


class CopyLayer:
    def forward_chunk(self, bottom, top, lo, hi):
        top[0].data[lo:hi] = np.ascontiguousarray(bottom[0].data[lo:hi])


class LoopLayer:
    def forward_chunk(self, bottom, top, lo, hi):
        for i in range(lo, hi):
            top[0].data[i] = bottom[0].data[i] * 2


class HelperLayer:
    """The hazard hides one self-call below the chunk root."""

    def forward_chunk(self, bottom, top, lo, hi):
        top[0].data[lo:hi] = self._accumulate(bottom[0].data[lo:hi])

    def _accumulate(self, x):
        return x.astype(np.float64)

    def unreached_helper(self, x):
        # float64 here is fine: never called from chunk code
        return np.float64(x)


class LoopBodyAllocLayer:
    """The hazard hides in a backward_loops body no name marks as chunk
    code."""

    def forward_chunk(self, bottom, top, lo, hi):
        top[0].data[lo:hi] = bottom[0].data[lo:hi]

    def _mask_rows(self, top, lo, hi):
        mask = np.zeros(hi - lo, dtype=bool)
        top[0].diff[lo:hi] *= mask

    def backward_loops(self, top, propagate_down, bottom):
        return [LoopSpec(
            space=top[0].count,
            body=lambda lo, hi, grads: self._mask_rows(top, lo, hi),
        )]


class DeclaredLayer:
    contract = LayerContract(
        float64=("forward_chunk",),
        note="accumulates in float64 for a bitwise-stable reduction",
    )

    def forward_chunk(self, bottom, top, lo, hi):
        top[0].data[lo:hi] = bottom[0].data[lo:hi].astype(np.float64)


class UnknownMethodDeclLayer:
    contract = LayerContract(allocs=("no_such_method",), note="stale")

    def forward_chunk(self, bottom, top, lo, hi):
        top[0].data[lo:hi] = bottom[0].data[lo:hi]


class UnreachableDeclLayer:
    contract = LayerContract(float64=("helper",), note="dead allowance")

    def forward_chunk(self, bottom, top, lo, hi):
        top[0].data[lo:hi] = bottom[0].data[lo:hi]

    def helper(self, x):
        return x.astype(np.float64)


class StaleDeclLayer:
    contract = LayerContract(float64=("forward_chunk",), note="gone now")

    def forward_chunk(self, bottom, top, lo, hi):
        top[0].data[lo:hi] = bottom[0].data[lo:hi]


def rules(findings):
    return sorted(f.rule for f in findings)


class TestPerfDecl:
    def test_requires_note(self):
        with pytest.raises(ValueError, match="note"):
            LayerContract(float64=("forward_chunk",), note="")

    def test_requires_an_allowance(self):
        with pytest.raises(ValueError, match="allowance"):
            LayerContract(note="vouches for nothing")

    def test_rejects_non_tuple(self):
        with pytest.raises(ValueError, match="tuple"):
            LayerContract(float64="forward_chunk", note="string, not tuple")


class TestPerflint:
    def test_clean_class(self):
        assert analyze_layer_perf(CleanLayer) == []

    def test_pe001_float64(self):
        assert rules(analyze_layer_perf(Float64Layer)) == ["PE001"]

    def test_pe002_allocation(self):
        assert rules(analyze_layer_perf(AllocLayer)) == ["PE002"]

    def test_pe003_copy(self):
        findings = analyze_layer_perf(CopyLayer)
        assert rules(findings) == ["PE003"]
        assert findings[0].severity == WARNING

    def test_pe004_loop(self):
        findings = analyze_layer_perf(LoopLayer)
        assert rules(findings) == ["PE004"]
        assert findings[0].severity == WARNING

    def test_hazard_found_through_self_call(self):
        findings = analyze_layer_perf(HelperLayer)
        assert rules(findings) == ["PE001"]
        assert "_accumulate" in findings[0].message
        # unreached_helper's float64 never fires
        assert all("unreached_helper" not in f.message for f in findings)

    def test_hazard_found_in_loop_body(self):
        findings = analyze_layer_perf(LoopBodyAllocLayer)
        assert rules(findings) == ["PE002"]
        assert "_mask_rows" in findings[0].message

    def test_chunk_reachability_closure(self):
        reachable = chunk_reachable(HelperLayer)
        assert "forward_chunk" in reachable
        assert "_accumulate" in reachable
        assert "unreached_helper" not in reachable

    def test_declared_allowance_silences(self):
        assert analyze_layer_perf(DeclaredLayer) == []

    def test_pe005_unknown_method(self):
        findings = analyze_layer_perf(UnknownMethodDeclLayer)
        assert rules(findings) == ["PE005"]
        assert "no such method" in findings[0].message

    def test_pe005_unreachable_method(self):
        findings = analyze_layer_perf(UnreachableDeclLayer)
        assert rules(findings) == ["PE005"]
        assert "not chunk-reachable" in findings[0].message

    def test_pe005_stale_allowance(self):
        findings = analyze_layer_perf(StaleDeclLayer)
        assert rules(findings) == ["PE005"]
        assert "stale" in findings[0].message

    def test_inherited_decl_never_vouches(self):
        class Child(DeclaredLayer):
            def forward_chunk(self, bottom, top, lo, hi):
                top[0].data[lo:hi] = (
                    bottom[0].data[lo:hi].astype(np.float64)
                )

        assert rules(analyze_layer_perf(Child)) == ["PE001"]

    def test_builtin_layers_clean(self):
        assert analyze_layer_classes_perf() == []

    def test_core_and_compiler_sources_clean(self):
        assert lint_sources_perf() == []


# ---------------------------------------------------------------------------
# roofline classifier
# ---------------------------------------------------------------------------
def synthetic_cost(**kw):
    defaults = dict(name="x", type="Convolution", pass_="forward",
                    flops=1e8, bytes=1e6, space=64, segments=64,
                    dist="sample")
    defaults.update(kw)
    return LayerCost(**defaults)


class TestRoofline:
    @pytest.fixture(scope="class")
    def model(self):
        return CPUModel()

    def test_saturation_width_is_machine_property(self, model):
        sat = dram_saturation_width(model)
        assert 2 <= sat <= model.params.cores
        # same answer regardless of the tested thread range
        assert dram_saturation_width(model, model.params.cores) == sat

    def test_serial_pass_stays_width_one(self, model):
        verdict = _classify(model, synthetic_cost(serial=True), 8)
        assert verdict["width"] == 1
        assert verdict["path"] == "serial"

    def test_compute_bound_conv(self, model):
        verdict = _classify(
            model, synthetic_cost(flops=1e9, bytes=1e5), 8)
        assert verdict["bound"] == "compute"

    def test_bandwidth_bound_big_bytes(self, model):
        verdict = _classify(
            model, synthetic_cost(flops=1e5, bytes=5e8), 8)
        assert verdict["bound"] == "bandwidth"
        assert verdict["path"] == "dram"

    def test_width_clipped_to_space(self, model):
        verdict = _classify(model, synthetic_cost(space=3), 8)
        assert verdict["width"] == 3


class TestRunPerfcheckStatic:
    def test_static_only_smoke(self):
        report = run_perfcheck(nets=("lenet",), threads=(1, 2))
        assert report.static_findings == []
        assert report.saturation_width >= 2
        rows = report.roofline["lenet"]
        assert rows  # every pass classified at every team size
        assert all(set(r.per_threads) == {1, 2} for r in rows)
        assert report.ok
        assert any("perfcheck verdict: OK" in line
                   for line in report.summary_lines())


class TestBlasPinning:
    def test_sets_unset_vars(self, monkeypatch):
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        in_effect = pin_blas_threads()
        for var in BLAS_THREAD_VARS:
            assert in_effect[var] == "1"

    def test_explicit_env_wins(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
        in_effect = pin_blas_threads()
        assert in_effect["OPENBLAS_NUM_THREADS"] == "8"

    def test_reports_numpy_already_loaded(self):
        # numpy is imported by this test module, so the pin is late
        assert pin_blas_threads()["pinned_before_numpy"] is False

    def test_importing_pinning_does_not_load_numpy(self):
        import subprocess
        import sys

        code = ("import repro.bench.pinning, sys; "
                "print('numpy' in sys.modules)")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"


class TestCatalogue:
    def test_pe_codes_registered(self):
        from repro.analysis.codes import CODE_CATALOGUE

        for code in ("PE001", "PE002", "PE003", "PE004", "PE005",
                     "PE101", "PE102"):
            assert code in CODE_CATALOGUE
            assert CODE_CATALOGUE[code][0] == "perfcheck"

    def test_report_json_shape(self):
        report = run_perfcheck(nets=("mlp",), threads=(1,))
        doc = json.loads(json.dumps(report.to_json()))
        assert doc["ok"] is True
        assert "mlp" in doc["roofline"]
