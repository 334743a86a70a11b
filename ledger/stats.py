"""Order statistics for the ledger.

Pure python on purpose: the parent process of a ledger run never loads
numpy (the BLAS pin has to precede numpy in every *child*, and the
parent stays a few megabytes of interpreter that cannot perturb the
measured children).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

#: A tail percentile is reportable only when at least this many samples
#: lie beyond it (choosing-metrics guide, section 1).
TEN_BEYOND = 10

#: Percentiles every latency summary carries, by metric suffix.
SUMMARY_PERCENTILES = {"p10": 10.0, "p50": 50.0, "p95": 95.0, "p99": 99.0}


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile, linear interpolation between closest ranks
    (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within [0, 100], got {q}")
    data = sorted(values)
    position = (len(data) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def supported(count: int, q: float) -> bool:
    """Ten-samples-beyond rule for a tail percentile ``q`` (> 50): true
    when at least :data:`TEN_BEYOND` of ``count`` samples lie above it.

    The floor percentile (p10) is exempt: interference only ever adds
    time, so the low end of a latency sample is bounded by the program's
    own cost and needs no such guard.
    """
    return count * (100.0 - q) / 100.0 >= TEN_BEYOND


def summarize(lat_ms: Sequence[float]) -> Dict[str, float]:
    """p10/p50/p95/p99 of a pooled latency sample plus its size.

    Percentiles are computed whether or not the sample supports them;
    ``supported()`` tells the caller which ones to flag.
    """
    out = {name: percentile(lat_ms, q)
           for name, q in SUMMARY_PERCENTILES.items()}
    out["n"] = len(lat_ms)
    return out


def iqr_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the run-to-run spread the benchmark contract checks."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(mid) if mid else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative when it
    is better), honouring the metric's direction."""
    if first == 0:
        return 0.0
    delta = (second - first) / abs(first)
    return delta if better == "lower" else -delta


def alternating_sets(runs: Sequence[float]) -> List[List[float]]:
    """Split a run sequence into the two interleaved sets an A/A check
    compares (even-indexed runs against odd-indexed runs), so slow host
    drift lands on both."""
    return [list(runs[0::2]), list(runs[1::2])]
