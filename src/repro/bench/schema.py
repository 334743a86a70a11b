"""Validating reader for the retired ``repro-bench/1`` envelope.

Nothing in the tree writes this format any more: the tools that did
(the plan/fuse/serve bench CLIs and perfcheck's wall-clock calibration)
are deleted, their committed files with them, and performance numbers
come from ``ledger/run.py`` (``BENCHMARK.json``) only.  What is left is
the envelope check and the one per-entry shape
(``kind: "perf"``) that ``tests/analysis/test_perfcheck.py::
TestBenchSchema`` exercises::

    {
      "format":  "repro-bench/1",
      "kind":    "perf",
      "host":    {platform, machine, processor, python, numpy, cpus},
      "git_rev": "<short rev>" | null,
      "timer":   {iters, warmup, clock, blas},
      "nets":    {<net>: {..., "threads": {"<T>": {scale, layers}}}}
    }

The module stays only because those ten tests are on the tier-1 floor
and one change may retire just a few floor tests; delete it together
with that class (see ROADMAP).  Do not build on it.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Dict, Optional

BENCH_FORMAT = "repro-bench/1"

#: Pre-envelope format strings -> the (deleted) tool that wrote them,
#: recognized only to give a precise error.
_LEGACY_FORMATS = {
    "repro-bench-plan/1": "repro.tools.bench_plan",
    "repro-bench-fuse/1": "repro.tools.bench_fuse",
}

#: kind -> keys every per-(net, T) entry must carry.
_ENTRY_KEYS = {"perf": ("scale", "layers")}

#: Keys every per-layer record must carry.
_PERF_LAYER_KEYS = ("measured_us", "predicted_us", "residual", "noisy")

_HOST_KEYS = ("platform", "machine", "python", "numpy", "cpus")


class BenchSchemaError(ValueError):
    """A BENCH document does not conform to ``repro-bench/1``."""


def host_fingerprint() -> Dict[str, object]:
    """Identify the measuring host (numbers are host-specific)."""
    import platform

    import numpy as np

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": __import__("os").cpu_count(),
    }


def git_rev() -> Optional[str]:
    """Short git revision of the measured tree, or None outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def envelope(kind: str, timer: Dict[str, object],
             nets: Dict[str, object]) -> Dict[str, object]:
    """Assemble a ``repro-bench/1`` document (validated before return)."""
    doc = {
        "format": BENCH_FORMAT,
        "kind": kind,
        "host": host_fingerprint(),
        "git_rev": git_rev(),
        "timer": timer,
        "nets": nets,
    }
    return validate_bench(doc)


def _fail(msg: str) -> None:
    raise BenchSchemaError(msg)


def validate_bench(doc: object) -> Dict[str, object]:
    """Validate a document against ``repro-bench/1``; return it."""
    if not isinstance(doc, dict):
        _fail(f"BENCH document must be a JSON object, got {type(doc).__name__}")
    fmt = doc.get("format")
    if fmt in _LEGACY_FORMATS:
        _fail(
            f"legacy format {fmt!r} (written by the retired "
            f"{_LEGACY_FORMATS[fmt]}): old numbers cannot be wrapped in "
            "an envelope without fabricating the host fingerprint"
        )
    if fmt != BENCH_FORMAT:
        _fail(f"format must be {BENCH_FORMAT!r}, got {fmt!r}")
    kind = doc.get("kind")
    if kind not in _ENTRY_KEYS:
        _fail(f"kind must be one of {sorted(_ENTRY_KEYS)}, got {kind!r}")
    host = doc.get("host")
    if not isinstance(host, dict):
        _fail("host fingerprint missing")
    for key in _HOST_KEYS:
        if key not in host:
            _fail(f"host fingerprint missing key {key!r}")
    if "git_rev" not in doc:
        _fail("git_rev missing (null is fine; absence is not)")
    timer = doc.get("timer")
    if not isinstance(timer, dict):
        _fail("timer config missing")
    for key in ("iters", "warmup", "clock", "blas"):
        if key not in timer:
            _fail(f"timer config missing key {key!r}")
    nets = doc.get("nets")
    if not isinstance(nets, dict) or not nets:
        _fail("nets must be a non-empty object")
    for net, data in nets.items():
        if not isinstance(data, dict):
            _fail(f"nets[{net!r}] must be an object")
        teams = data.get("threads")
        if not isinstance(teams, dict) or not teams:
            _fail(f"nets[{net!r}].threads must be a non-empty object")
        for team, entry in teams.items():
            where = f"nets[{net!r}].threads[{team!r}]"
            try:
                int(team)
            except ValueError:
                _fail(f"{where}: thread count must be an integer string")
            if not isinstance(entry, dict):
                _fail(f"{where} must be an object")
            for key in _ENTRY_KEYS[kind]:
                if key not in entry:
                    _fail(f"{where} missing key {key!r}")
            layers = entry["layers"]
            if not isinstance(layers, dict) or not layers:
                _fail(f"{where}.layers must be a non-empty object")
            for lkey, record in layers.items():
                if not isinstance(record, dict):
                    _fail(f"{where}.layers[{lkey!r}] must be an object")
                for key in _PERF_LAYER_KEYS:
                    if key not in record:
                        _fail(f"{where}.layers[{lkey!r}] missing "
                              f"key {key!r}")
    return doc


def load_bench(path) -> Dict[str, object]:
    """Load and validate one ``repro-bench/1`` file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchSchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return validate_bench(doc)
    except BenchSchemaError as exc:
        raise BenchSchemaError(f"{path}: {exc}") from exc


def dump_bench(doc: Dict[str, object], path) -> None:
    """Validate and write one ``repro-bench/1`` file (stable key order)."""
    validate_bench(doc)
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
