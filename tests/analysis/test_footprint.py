"""Unit tests for the static write-footprint classifier."""

import numpy as np
import pytest

from repro.analysis import (
    ERROR,
    analyze_layer_class,
    lint_runtime,
    run_static,
)
from repro.framework.layer import (
    Layer,
    LayerContract,
    REDUCTION,
    SAMPLE_DISJOINT,
    SEQUENTIAL,
    UNSAFE,
)


# ----------------------------------------------------------------------
# fixture layer classes (must live in a real file for inspect.getsource)
# ----------------------------------------------------------------------
class CleanElementwise(Layer):
    contract = LayerContract()

    def reshape(self, bottom, top):
        top[0].reshape_like(bottom[0])

    def forward_chunk(self, bottom, top, lo, hi):
        top[0].flat_data[lo:hi] = bottom[0].flat_data[lo:hi] * 2.0

    def backward_chunk(self, top, pd, bottom, lo, hi, param_grads):
        bottom[0].flat_diff[lo:hi] = top[0].flat_diff[lo:hi] * 2.0


class UndeclaredOverride(CleanElementwise):
    def forward_chunk(self, bottom, top, lo, hi):
        top[0].flat_data[lo:hi] = bottom[0].flat_data[lo:hi] * 3.0


class WholeBufferWriter(Layer):
    contract = LayerContract()

    def reshape(self, bottom, top):
        top[0].reshape_like(bottom[0])

    def forward_chunk(self, bottom, top, lo, hi):
        top[0].flat_data[:] = bottom[0].flat_data * 2.0

    def backward_chunk(self, top, pd, bottom, lo, hi, param_grads):
        bottom[0].flat_diff[lo:hi] = top[0].flat_diff[lo:hi]


class HelperWholeBufferWriter(WholeBufferWriter):
    """The whole-buffer write hides one self-call below forward_chunk."""

    contract = LayerContract()

    def forward_chunk(self, bottom, top, lo, hi):
        self._fill(top)

    def _fill(self, top):
        top[0].data[:] = 0.0


class DeclaredSequentialWriter(WholeBufferWriter):
    contract = LayerContract(forward=SEQUENTIAL)

    def forward_space(self, bottom, top):
        return 1

    def forward_chunk(self, bottom, top, lo, hi):
        top[0].flat_data[:] = bottom[0].flat_data * 2.0


class HiddenStateWriter(Layer):
    contract = LayerContract()

    def reshape(self, bottom, top):
        top[0].reshape_like(bottom[0])

    def forward_chunk(self, bottom, top, lo, hi):
        self._cache = np.maximum(bottom[0].flat_data[lo:hi], 0.0)
        top[0].flat_data[lo:hi] = self._cache

    def backward_chunk(self, top, pd, bottom, lo, hi, param_grads):
        bottom[0].flat_diff[lo:hi] = top[0].flat_diff[lo:hi]


class DeclaredScratchWriter(Layer):
    contract = LayerContract(scratch=("_per_sample",))

    def reshape(self, bottom, top):
        top[0].reshape_like(bottom[0])

    def forward_chunk(self, bottom, top, lo, hi):
        self._per_sample[lo:hi] = bottom[0].flat_data[lo:hi]
        top[0].flat_data[lo:hi] = self._per_sample[lo:hi]

    def backward_chunk(self, top, pd, bottom, lo, hi, param_grads):
        bottom[0].flat_diff[lo:hi] = top[0].flat_diff[lo:hi]


class ReductionBypasser(Layer):
    """Accumulates into the shared parameter diff instead of param_grads."""

    contract = LayerContract()

    def reshape(self, bottom, top):
        top[0].reshape_like(bottom[0])

    def forward_chunk(self, bottom, top, lo, hi):
        top[0].flat_data[lo:hi] = bottom[0].flat_data[lo:hi]

    def backward_chunk(self, top, pd, bottom, lo, hi, param_grads):
        dw = self.blobs[0].flat_diff
        dw += top[0].flat_diff[lo:hi].sum()


class UndeclaredReduction(Layer):
    """Uses param_grads correctly but declares sample_disjoint."""

    contract = LayerContract()

    def reshape(self, bottom, top):
        top[0].reshape_like(bottom[0])

    def forward_chunk(self, bottom, top, lo, hi):
        top[0].flat_data[lo:hi] = bottom[0].flat_data[lo:hi]

    def backward_chunk(self, top, pd, bottom, lo, hi, param_grads):
        param_grads[0] += top[0].flat_diff[lo:hi].sum()
        bottom[0].flat_diff[lo:hi] = top[0].flat_diff[lo:hi]


class ProperReduction(UndeclaredReduction):
    contract = LayerContract(backward=REDUCTION, reduction_params=(0,))

    def backward_chunk(self, top, pd, bottom, lo, hi, param_grads):
        param_grads[0] += top[0].flat_diff[lo:hi].sum()
        bottom[0].flat_diff[lo:hi] = top[0].flat_diff[lo:hi]


def rules(report):
    return sorted({f.rule for f in report.findings})


class TestClassification:
    def test_clean_elementwise(self):
        report = analyze_layer_class(CleanElementwise)
        assert report.ok
        assert report.inferred_forward == SAMPLE_DISJOINT
        assert report.inferred_backward == SAMPLE_DISJOINT
        assert not report.findings

    def test_undeclared_override_fp001(self):
        report = analyze_layer_class(UndeclaredOverride)
        assert not report.ok
        assert "FP001" in rules(report)

    def test_whole_buffer_write_fp005(self):
        report = analyze_layer_class(WholeBufferWriter)
        assert not report.ok
        assert report.inferred_forward == UNSAFE
        assert "FP005" in rules(report)

    def test_whole_buffer_write_in_helper_fp005(self):
        # The helper's parameter is bound to forward_chunk's top at the
        # call site, whatever the helper calls it.
        report = analyze_layer_class(HelperWholeBufferWriter)
        assert report.inferred_forward == UNSAFE
        assert "FP005" in rules(report)

    def test_sequential_declaration_permits_whole_buffer(self):
        report = analyze_layer_class(DeclaredSequentialWriter)
        assert report.ok

    def test_hidden_state_fp004(self):
        report = analyze_layer_class(HiddenStateWriter)
        assert not report.ok
        assert "FP004" in rules(report)

    def test_declared_bounded_scratch_ok(self):
        report = analyze_layer_class(DeclaredScratchWriter)
        assert report.ok

    def test_reduction_bypass_fp003(self):
        report = analyze_layer_class(ReductionBypasser)
        assert not report.ok
        assert report.inferred_backward == UNSAFE
        assert "FP003" in rules(report)

    def test_undeclared_reduction_fp002(self):
        report = analyze_layer_class(UndeclaredReduction)
        assert not report.ok
        assert report.inferred_backward == REDUCTION
        assert "FP002" in rules(report)

    def test_proper_reduction_ok(self):
        report = analyze_layer_class(ProperReduction)
        assert report.ok
        assert report.inferred_backward == REDUCTION
        assert report.inferred_reduction_params == (0,)


class TestBuiltinLayers:
    def test_all_builtin_layers_classify_clean(self):
        # other test modules register deliberately-racy layers in the
        # global registry; only the built-in package must be clean
        from repro.framework.layer import _REGISTRY

        builtin_names = {
            cls.__name__ for cls in _REGISTRY.values()
            if cls.__module__.startswith("repro.framework.layers")
        }
        assert builtin_names, "registry should not be empty"
        report = run_static()
        for name in builtin_names:
            layer_report = report.layers[name]
            assert layer_report.ok, (name, layer_report.findings)

    def test_conv_is_a_declared_reduction(self):
        report = run_static()
        conv = report.layers["ConvolutionLayer"]
        assert conv.inferred_backward == REDUCTION
        assert conv.inferred_reduction_params == (0, 1)
        assert conv.declared.reduction_params == (0, 1)

    def test_inner_product_avoids_the_reduction(self):
        # InnerProduct decomposes backward into disjoint output rows —
        # the paper's reduction-free alternative the analyzer must
        # follow through backward_loops helpers.
        report = run_static()
        ip = report.layers["InnerProductLayer"]
        assert ip.inferred_backward == SAMPLE_DISJOINT


class TestRuntimeLint:
    def test_executor_source_is_clean(self):
        assert lint_runtime() == []

    def test_unprotected_merge_flagged(self, tmp_path):
        bad = tmp_path / "bad_executor.py"
        bad.write_text(
            "def outer(self, loop):\n"
            "    def region(ctx):\n"
            "        grads = self.pool.request(ctx.thread_id, sizes)\n"
            "        loop.body(0, 1, grads)\n"
            "        add_into(loop.grad_targets, grads)\n"
            "    self.team.parallel(region)\n"
        )
        findings = lint_runtime(str(bad))
        assert len(findings) == 1
        assert findings[0].rule == "RT001"
        assert findings[0].severity == ERROR

    def test_guarded_merge_accepted(self, tmp_path):
        good = tmp_path / "good_executor.py"
        good.write_text(
            "def outer(self, loop):\n"
            "    def region(ctx):\n"
            "        grads = self.pool.request(ctx.thread_id, sizes)\n"
            "        merge = lambda: add_into(loop.grad_targets, grads)\n"
            "        ctx.ordered(merge)\n"
            "        ctx.critical(lambda: add_into(loop.grad_targets, grads))\n"
            "    self.team.parallel(region)\n"
            "    add_into(loop.grad_targets, combined)  # master-only\n"
        )
        assert lint_runtime(str(good)) == []
