"""BLAS / NumPy thread pinning for reproducible wall-clock measurement.

Ambient BLAS threading is the single biggest source of variance in a
wall-clock number: OpenBLAS (and MKL, BLIS, Accelerate) each spin up their
own thread pool sized from the environment, so a gemm timed on a laptop
with ``OMP_NUM_THREADS`` unset races the coarse-grain thread team the
runtime itself manages.  Every measuring entry point (the ledger's
worker processes, ``repro.tools.profile``) calls
:func:`pin_blas_threads` *before importing numpy*, pinning the BLAS
pools to one thread so the only parallelism in a measurement is the one
the paper studies.

The knob: an explicitly-set environment variable wins — export
``OPENBLAS_NUM_THREADS=8`` (or any of :data:`BLAS_THREAD_VARS`) before
launching to override the pin; the values in effect are what
:func:`pin_blas_threads` returns.  BLAS pools size themselves when the
library loads, so pinning is only fully effective before numpy's first
import; :func:`pin_blas_threads` reports whether it ran early enough
(``pinned_before_numpy``).

This module deliberately imports nothing heavy — importing it must not
load numpy, or the pin would always come too late.
"""

from __future__ import annotations

import os
import sys
from typing import Dict

#: Environment variables that size a BLAS/SIMD thread pool.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def pin_blas_threads(threads: int = 1) -> Dict[str, object]:
    """Pin every known BLAS thread-pool variable to ``threads``.

    Explicitly-set variables are left alone (the documented override
    knob).  Returns the timer-config fragment recorded in BENCH files:
    the value in effect per variable plus ``pinned_before_numpy`` —
    False means numpy (hence the BLAS pool) was already loaded and the
    pin may not take effect until the next process.
    """
    before_numpy = "numpy" not in sys.modules
    in_effect: Dict[str, object] = {}
    for var in BLAS_THREAD_VARS:
        if var not in os.environ:
            os.environ[var] = str(threads)
        in_effect[var] = os.environ[var]
    in_effect["pinned_before_numpy"] = before_numpy
    return in_effect
