"""Unit tests for BLAS operation accounting."""

import threading

import numpy as np

from repro import blaslib
from repro.blaslib import op_counter


class TestOpCounter:
    def test_counts_gemm_flops(self, rng):
        a = rng.standard_normal((4, 3)).astype(np.float32)
        b = rng.standard_normal((3, 5)).astype(np.float32)
        c = np.zeros((4, 5), dtype=np.float32)
        with op_counter() as counter:
            blaslib.gemm(False, False, 1.0, a, b, 0.0, c)
        assert counter.flops["gemm"] == 2 * 4 * 5 * 3
        assert counter.calls["gemm"] == 1
        assert counter.total_bytes() > 0

    def test_multiple_kinds(self, rng):
        x = rng.standard_normal(10).astype(np.float32)
        y = np.zeros(10, dtype=np.float32)
        with op_counter() as counter:
            blaslib.axpy(1.0, x, y)
            blaslib.dot(x, y)
        assert set(counter.flops) == {"axpy", "dot"}
        assert counter.total_calls() == 2

    def test_nested_counters_fold_into_outer(self, rng):
        x = rng.standard_normal(8).astype(np.float32)
        y = np.zeros(8, dtype=np.float32)
        with op_counter() as outer:
            blaslib.axpy(1.0, x, y)
            with op_counter() as inner:
                blaslib.axpy(1.0, x, y)
            assert inner.calls["axpy"] == 1
        assert outer.calls["axpy"] == 2

    def test_no_counter_no_error(self, rng):
        x = rng.standard_normal(4).astype(np.float32)
        blaslib.scal(2.0, x)  # records nowhere, must not raise

    def test_other_thread_is_not_counted(self, rng):
        """A counter sees only its own thread's calls; a call on a thread
        that never opened one records nowhere and does not raise."""
        x = rng.standard_normal(4).astype(np.float32)
        errors = []

        def worker():
            try:
                blaslib.scal(2.0, x)
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        with op_counter() as counter:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            blaslib.dot(x, x)
        assert errors == []
        assert counter.calls == {"dot": 1}

    def test_merged_with(self):
        from repro.blaslib import OpCounter
        a, b = OpCounter(), OpCounter()
        a.record("gemm", 10, 100)
        b.record("gemm", 5, 50)
        b.record("dot", 2, 8)
        merged = a.merged_with(b)
        assert merged.flops == {"gemm": 15, "dot": 2}
        assert merged.total_bytes() == 158


# ----------------------------------------------------------------------
# The pure-Python oracle stays independent of the kernels it checks
# ----------------------------------------------------------------------
import _oracle_kernels as oracle  # noqa: E402  (tests/ is on sys.path)


def _ones(*shape):
    return np.ones(shape, np.float32)


#: Arguments of one small call per ``oracle.reference_*`` function,
#: in the call signature of the ``blaslib`` kernel it stands for.
REFERENCE_ARGS = {
    "axpy": lambda: (2.0, _ones(3), _ones(3)),
    "axpby": lambda: (2.0, _ones(3), 0.5, _ones(3)),
    "scal": lambda: (2.0, _ones(3)),
    "set_scalar": lambda: (2.0, _ones(3)),
    "copy": lambda: (_ones(3), _ones(3)),
    "dot": lambda: (_ones(3), _ones(3)),
    "asum": lambda: (_ones(3),),
    "nrm2": lambda: (_ones(3),),
    "gemv": lambda: (False, 1.0, _ones(2, 3), _ones(3), 0.0, _ones(2)),
    "ger": lambda: (1.0, _ones(2), _ones(3), _ones(2, 3)),
    "gemm": lambda: (False, False, 1.0, _ones(2, 2, 3), _ones(3, 4), 0.0,
                     _ones(2, 2, 4)),
    "im2col": lambda: (_ones(1, 3, 3), 2, 2, 1, 1, 1, 1),
    "im2col_runs": lambda: (_ones(1, 3, 3), 2, 2, 1, 1, 1, 1),
    "col2im": lambda: (_ones(4, 16), 1, 3, 3, 2, 2, 1, 1, 1, 1),
}


def test_reference_oracle_records_no_op():
    """Every ``oracle.reference_*`` runs without recording a BLAS op, so
    none routes through production ``blaslib``; the same call on the
    production kernel does record, so the counter is live."""
    names = sorted(name[len("reference_"):] for name in dir(oracle)
                   if name.startswith("reference_"))
    assert names == sorted(REFERENCE_ARGS)
    for name in names:
        with op_counter() as counter:
            getattr(oracle, "reference_" + name)(*REFERENCE_ARGS[name]())
        assert counter.total_calls() == 0, name
        with op_counter() as counter:
            getattr(blaslib, name)(*REFERENCE_ARGS[name]())
        assert counter.total_calls() > 0, name
