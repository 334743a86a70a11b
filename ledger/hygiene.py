"""Run hygiene: the BLAS pin check and the host stamp.

Imports nothing heavy — both the parent (which never loads numpy) and
the children (which must pin before numpy loads) use it first thing.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, List, Mapping, Optional

ROOT = Path(__file__).resolve().parent.parent


def thread_overrides(environ: Mapping[str, str]) -> List[str]:
    """``*_NUM_THREADS`` / ``*_MAXIMUM_THREADS`` variables set to
    anything but 1: ``pin_blas_threads`` leaves explicit settings alone,
    so any of these would size a BLAS pool the ledger does not control."""
    return sorted(
        f"{name}={value}" for name, value in environ.items()
        if name.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))
        and value.strip() != "1"
    )


def pin_problem(pin: Mapping[str, object]) -> Optional[str]:
    """Why a ``pin_blas_threads()`` result is unfit for measuring, or
    ``None`` when every pool is pinned to one thread before numpy."""
    if not pin.get("pinned_before_numpy"):
        return "numpy was imported before the BLAS pools were pinned"
    loose = sorted(f"{k}={v}" for k, v in pin.items()
                   if k != "pinned_before_numpy" and str(v) != "1")
    if loose:
        return "BLAS thread override in effect: " + ", ".join(loose)
    return None


def git_rev() -> str:
    """``git rev-parse HEAD`` of the checkout, ``unknown`` outside one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _steal_ticks() -> Optional[int]:
    """Cumulative steal time of all CPUs, in clock ticks."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 else None


def host_sample() -> Dict[str, object]:
    """What the host was doing at this instant."""
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = []
    return {"loadavg": [float(x) for x in loadavg],
            "steal_ticks": _steal_ticks()}


def host_static() -> Dict[str, object]:
    return {"git_rev": git_rev(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine()}


def vm_hwm_mb() -> float:
    """Peak resident set of this process (``VmHWM``), in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")
