"""Measurement helpers: the figure harness and the BLAS thread pin.

:mod:`repro.bench.harness` is shared by the ``benchmarks/`` suite: each
benchmark regenerates one of the paper's figures, prints its
rows/series (and saves them under ``benchmarks/out/``) from the machine
models driven by the real networks, and times a real code path with
pytest-benchmark so the functional runtime is exercised too.
:mod:`repro.bench.pinning` pins the BLAS pools to one thread for every
measuring entry point (the ledger's worker processes,
``repro.tools.profile``).

The harness re-exports (``emit``, ``lenet_costs``, ...) load lazily:
importing ``repro.bench`` submodules must not pull numpy, because
:mod:`repro.bench.pinning` has to run *before* numpy loads for the BLAS
thread pin to take effect.
"""

_HARNESS_EXPORTS = ("cifar_costs", "emit", "lenet_costs", "models",
                    "output_path")

__all__ = list(_HARNESS_EXPORTS)


def __getattr__(name):
    if name in _HARNESS_EXPORTS:
        from repro.bench import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
