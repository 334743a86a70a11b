"""Coarse-grain CPU time model (the OpenMP bars of the paper's figures).

For each layer pass and thread count ``T`` the model composes:

* **compute** — arithmetic time ``flops / (op_rate x effective_cores)``
  where ``op_rate`` is the BLAS gemm rate scaled by a per-layer-type
  efficiency (scalar pooling compares are far from gemm throughput), and
  ``effective_cores`` discounts second-socket cores by the NUMA compute
  penalty (all operands live on node 0 — the paper's "sequential memory
  allocation" limiter); static-schedule imbalance multiplies in as
  ``ceil(space/T) / (space/T)``.
* **memory** — a two-level roofline: per-thread working sets that fit in
  cache stream at per-core cache bandwidth (scales with ``T`` — the
  paper's ReLU reaching 13x), larger sets are bound by node-0 DRAM plus
  QPI for remote threads (the paper's inner-product plateau).
* **dispatch** — per-segment call overhead, divided over threads (the
  granularity limiter for deep small layers).
* **locality** — re-fetch of the input when the producer's data-thread
  distribution differs from this layer's, growing with ``T`` and paid
  over QPI beyond one socket (data->conv1, pool2->ip1, norm1->conv2).
* **reduction** — serialized ordered merge of privatized coefficient
  gradients (backward of layers with a true reduction).
* **fork/join** — fixed parallel-region overhead.

``layer_time(cost, 1)`` is the serial baseline (no parallel overheads).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.simulator.cost_model import LayerCost, producer_dist
from repro.simulator.params import CPUParams, XEON_E5_2667V2


def _dist_mismatch(producer: str, consumer: str) -> bool:
    """Whether the producer's data-thread distribution forces re-fetches.

    Under a static schedule, "sample", "sample-channel" and "element"
    splits all hand a thread (roughly) the same contiguous slice of the
    blob, so they are mutually compatible; only a *serial* producer (the
    data layer) leaves the whole footprint on one core's caches/node —
    the paper's data->conv1 effect.
    """
    return producer == "serial" and consumer != "serial"


class CPUModel:
    """Evaluate coarse-grain layer/network times on the modelled CPU."""

    def __init__(self, params: CPUParams = XEON_E5_2667V2) -> None:
        self.params = params

    # ------------------------------------------------------------------
    # building blocks
    # ------------------------------------------------------------------
    def op_rate(self, layer_type: str) -> float:
        """Usable arithmetic throughput of one core for ``layer_type``."""
        p = self.params
        eff = p.op_efficiency.get(layer_type, p.default_op_efficiency)
        return p.core_flops_per_us * eff

    def effective_cores(self, threads: int) -> float:
        """Compute capacity in node-0-equivalent cores."""
        p = self.params
        local = min(threads, p.cores_per_node)
        remote = max(0, threads - p.cores_per_node)
        return local + remote * (1.0 - p.numa_compute_penalty)

    def dram_bandwidth(self, threads: int) -> float:
        """DRAM bandwidth reachable when all data sits on node 0 (B/us)."""
        p = self.params
        local = min(threads, p.cores_per_node)
        share = 0.0
        for extra in range(local):
            share += 1.0 / (1.0 + p.bw_saturation * extra)
        local_bw = p.node_bw_bytes_per_us * min(
            share * p.single_core_bw_share, 1.0
        )
        remote = max(0, threads - p.cores_per_node)
        remote_bw = p.qpi_bw_bytes_per_us * min(remote / 4.0, 1.0)
        return local_bw + remote_bw

    def memory_time(self, nbytes: float, threads: int) -> float:
        """Two-level memory roofline for ``nbytes`` of traffic."""
        p = self.params
        if nbytes <= 0:
            return 0.0
        per_thread = nbytes / threads
        if per_thread <= p.cache_resident_bytes:
            return nbytes / (p.cache_bw_bytes_per_us * threads)
        return nbytes / self.dram_bandwidth(threads)

    def _imbalance(self, space: int, threads: int) -> float:
        """Static-schedule slowdown factor: busiest thread / ideal."""
        if space <= 0:
            return 1.0
        threads = min(threads, space)
        ideal = space / threads
        busiest = math.ceil(space / threads)
        return busiest / ideal

    # ------------------------------------------------------------------
    # per-layer time
    # ------------------------------------------------------------------
    def layer_time(
        self,
        cost: LayerCost,
        threads: int,
        producer: Optional[str] = None,
    ) -> float:
        """Modelled time (us) of one layer pass at ``threads`` threads:
        :meth:`plan_layer_time` with no plan knob turned."""
        return self.plan_layer_time(cost, threads, producer=producer)

    # ------------------------------------------------------------------
    # per-candidate pricing (the plancheck planner's cost oracle)
    # ------------------------------------------------------------------
    def reduction_time(
        self,
        mode: str,
        threads: int,
        nbytes: float,
        block_count: Optional[int] = None,
    ) -> float:
        """Gradient-merge time (us) for one reduction mode.

        * ``ordered`` / ``atomic`` — every thread's private buffer is
          added to the shared blob serially: ``T`` merges (what
          :meth:`layer_time` charges).
        * ``tree`` — pairwise combination by the master: ``T - 1``
          merges total.
        * ``blockwise`` — one private buffer per *block*, merged in
          block order: ``block_count`` merges.  This is the price of
          bitwise thread-count invariance — it does not shrink as
          threads grow, which is exactly why the planner often prefers
          running small reduction layers single-threaded instead.
        """
        if nbytes <= 0 or threads <= 1:
            return 0.0
        p = self.params
        if mode == "tree":
            merges = threads - 1
        elif mode == "blockwise":
            merges = block_count if block_count else threads
        else:  # ordered / atomic
            merges = threads
        return merges * nbytes / p.merge_bw_bytes_per_us

    def plan_layer_time(
        self,
        cost: LayerCost,
        threads: int,
        *,
        team_threads: Optional[int] = None,
        space: Optional[int] = None,
        reduction_mode: Optional[str] = None,
        block_count: Optional[int] = None,
        producer: Optional[str] = None,
        producer_threads: Optional[int] = None,
    ) -> float:
        """Modelled time (us) of one layer pass under a *plan candidate*.

        The one timing formula.  :meth:`layer_time` is its default call:
        with no knob turned (same threads as the team, ``ordered``
        reduction, no space override, producer at the same width) the
        layer runs uniformly at ``threads``.

        ``threads``
            Threads this layer actually uses.  ``1`` means the layer
            runs inline on the master with **no parallel region**: no
            fork/join, no imbalance, no merge, no locality re-fetch —
            the serial baseline.  A ``serial`` cost (data layers) runs
            that way at any width, at the single-stream bandwidth.
        ``space``
            Distributable unit count after granularity folding (a
            coalesce-depth choice shrinks the schedulable space, which
            changes imbalance and the usable thread count).
        ``reduction_mode`` / ``block_count``
            Priced via :meth:`reduction_time`.
        ``producer_threads``
            Thread width of the producing layer.  A width mismatch
            re-fetches the fraction of the input that lands on a
            different thread's slice: ``miss * (1 - min/max)`` of the
            input bytes — an inline (1-thread) producer degenerates to
            the serial-producer penalty.
        """
        p = self.params
        if threads <= 0:
            raise ValueError(f"threads must be positive, got {threads}")
        serial_compute = cost.flops / self.op_rate(cost.type)
        serial_dispatch = cost.segments * p.dispatch_us
        if cost.serial or threads == 1:
            serial_mem = (
                cost.bytes / p.serial_bw_bytes_per_us if cost.serial
                else self.memory_time(cost.bytes, 1)
            )
            return max(serial_compute, serial_mem) + serial_dispatch

        dist_space = cost.space if space is None else space
        used = min(threads, max(dist_space, 1))
        imbalance = self._imbalance(dist_space, threads)
        cores = min(self.effective_cores(threads), used)
        compute = serial_compute / cores * imbalance
        mem = self.memory_time(cost.bytes, used)
        dispatch = serial_dispatch / used * imbalance

        miss_frac = 0.0
        if producer is not None and _dist_mismatch(producer, cost.dist):
            miss_frac = p.locality_miss * (1.0 - 1.0 / threads)
        elif (
            producer_threads is not None
            and producer_threads != threads
            and cost.dist != "serial"
        ):
            narrow, wide = sorted((max(producer_threads, 1), threads))
            miss_frac = p.locality_miss * (1.0 - narrow / wide)
        locality = 0.0
        if miss_frac and cost.input_bytes:
            moved = cost.input_bytes * miss_frac
            if threads > p.cores_per_node:
                locality = moved / p.qpi_bw_bytes_per_us
            else:
                locality = moved / self.dram_bandwidth(threads)

        reduction = 0.0
        if cost.reduction_bytes:
            reduction = self.reduction_time(
                reduction_mode or "ordered", threads,
                cost.reduction_bytes, block_count,
            )

        # Fork/join is a property of the parallel region, which always
        # spans the whole team even when the plan caps this layer's
        # worker count below it.
        region = max(team_threads or threads, threads)
        fork_join = p.fork_join_us * (1.0 + math.log2(region))
        return max(compute, mem) + dispatch + locality + reduction + fork_join

    # ------------------------------------------------------------------
    # whole-network evaluation
    # ------------------------------------------------------------------
    def layer_times(
        self, costs: Sequence[LayerCost], threads: int
    ) -> Dict[str, float]:
        """Time of every layer pass, keyed ``"<layer>.fwd"`` / ``".bwd"``."""
        costs = list(costs)
        out: Dict[str, float] = {}
        for index, cost in enumerate(costs):
            out[cost.key] = self.layer_time(
                cost, threads, producer_dist(costs, index)
            )
        return out

    def iteration_time(self, costs: Sequence[LayerCost], threads: int) -> float:
        """Total time of one training iteration (all passes summed —
        the passes themselves are inherently sequential)."""
        return sum(self.layer_times(costs, threads).values())

    def speedup(self, costs: Sequence[LayerCost], threads: int) -> float:
        return self.iteration_time(costs, 1) / self.iteration_time(costs, threads)

    def layer_speedups(
        self, costs: Sequence[LayerCost], threads: int
    ) -> Dict[str, float]:
        base = self.layer_times(costs, 1)
        now = self.layer_times(costs, threads)
        return {key: base[key] / now[key] for key in base}

    def speedup_curve(
        self, costs: Sequence[LayerCost], thread_counts: Sequence[int]
    ) -> List[float]:
        return [self.speedup(costs, t) for t in thread_counts]
