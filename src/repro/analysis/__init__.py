"""Parallel-safety analyzer for the coarse-grain runtime.

Two cooperating passes:

* **static** (:mod:`repro.analysis.footprint`, :mod:`repro.analysis.lint`)
  — AST classification of each layer's chunk-loop write footprint
  (``sample_disjoint`` / ``reduction`` / ``sequential`` / ``unsafe``)
  checked against its :class:`~repro.framework.layer.FootprintDecl`,
  plus runtime-invariant lint (ordered-merge discipline).
* **dynamic** (:mod:`repro.analysis.shadow`, :mod:`repro.analysis.race`)
  — shadow-memory race detection: replay each layer's chunk schedule
  per simulated thread, diff the write sets, and report cross-thread
  overlaps not routed through privatization.

Eight more families certify what is built on that contract, each a
subcommand of ``python -m repro.analysis`` with its own ``--help``:
``netcheck`` (NG: net-graph shapes, lint and static plan), ``detcheck``
(DC: determinism and convergence invariance), ``rescheck`` (RS:
checkpoint/resume and fault recovery), ``plancheck`` (PL: per-layer
auto-parallelization plans), ``fusecheck`` (FU: operator fusion and the
memory arena), ``synccheck`` (SY: locks, barriers and interleavings),
``perfcheck`` (PE: performance lint and roofline) and ``servecheck``
(SV: the serving path under chaos).
:mod:`repro.analysis.codes` names every FP/RT/NG/DC/RS/PL/FU/SY/PE/SV
code in one catalogue.

Entry points: :func:`analyze_layer_class` for one class,
:func:`run_static` / :func:`run_dynamic` / :func:`run_analysis` for
whole nets, each family module's ``run_*`` function for its
certifier, and ``python -m repro.analysis`` for the CLI.
"""

from repro.analysis.footprint import (
    analyze_classes,
    analyze_layer_class,
    builtin_layer_classes,
)
from repro.analysis.codes import CODE_CATALOGUE, catalogue_lines
from repro.analysis.detcheck import (
    DetcheckReport,
    Divergence,
    ModeCertificate,
    Trajectory,
    capture_trajectory,
    certify_mode,
    classify_config,
    first_divergence,
    run_detcheck,
    ulp_distance,
)
from repro.analysis.lint import lint_runtime
from repro.analysis.perfcheck import PerfReport, run_perfcheck
from repro.analysis.perflint import (
    analyze_layer_perf,
    lint_perf,
    lint_sources_perf,
)
from repro.analysis.race import run_analysis, run_dynamic, run_static
from repro.analysis.report import (
    ERROR,
    INFO,
    WARNING,
    AnalysisReport,
    DynamicReport,
    Finding,
    LayerReport,
    Race,
    StaticReport,
)
from repro.analysis.rng_lint import (
    analyze_layer_rng,
    lint_rng,
    lint_sources,
)

__all__ = [
    "CODE_CATALOGUE",
    "ERROR",
    "INFO",
    "WARNING",
    "AnalysisReport",
    "DetcheckReport",
    "Divergence",
    "DynamicReport",
    "Finding",
    "LayerReport",
    "ModeCertificate",
    "PerfReport",
    "Race",
    "StaticReport",
    "Trajectory",
    "analyze_classes",
    "analyze_layer_class",
    "analyze_layer_perf",
    "analyze_layer_rng",
    "builtin_layer_classes",
    "capture_trajectory",
    "catalogue_lines",
    "certify_mode",
    "classify_config",
    "first_divergence",
    "lint_perf",
    "lint_rng",
    "lint_runtime",
    "lint_sources",
    "lint_sources_perf",
    "run_analysis",
    "run_detcheck",
    "run_dynamic",
    "run_perfcheck",
    "run_static",
    "ulp_distance",
]
