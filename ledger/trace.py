"""Spans recorded from outside the program.

The benchmark owns the tracing: :func:`install_train` and
:func:`install_serve` shadow public methods *on instances* (a solver,
its net, its executor and team, every layer, the serve engine) with
wrappers that append one span per call to an in-memory list.  Nothing
under ``src/`` is edited or subclassed, and an untraced run never
executes a line of this module.

A span is ``(id, name, start, end, parent, op, thread)``: ``parent`` is
the id of the span that caused it (or ``None``), ``op`` the operation —
one training iteration or one served batch — every span of that
operation shares, ``thread`` the ``threading.get_ident()`` of the thread
that ran it.  Times are ``time.perf_counter()`` seconds.
"""

from __future__ import annotations

import itertools
import statistics
import threading
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.blaslib import op_counter

Span = Tuple[int, str, float, float, Optional[int], int, int]

#: Layer type -> metric group.  Types outside the map land in "other".
LAYER_GROUPS = {
    "Convolution": "conv",
    "Pooling": "pool",
    "LRN": "lrn",
    "InnerProduct": "ip",
    "ReLU": "neuron",
    "Sigmoid": "neuron",
    "TanH": "neuron",
    "Dropout": "neuron",
    "SoftmaxWithLoss": "loss",
    "EuclideanLoss": "loss",
}
GROUPS = ("conv", "pool", "lrn", "ip", "neuron", "loss", "other")


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(op, OpCounter)`` per traced chunk; appended from any thread.
        self.blas: List[Tuple[int, object]] = []
        #: span name -> (group, pass) for chunk spans.
        self.chunk_kind: Dict[str, Tuple[str, str]] = {}
        #: Serving: the request ids each batch carried, by operation id.
        self.batch_ids: List[Tuple[str, ...]] = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        #: Region open on the master thread; worker-thread chunks have an
        #: empty stack of their own and take it as their parent.
        self._region: Optional[int] = None

    # -- span plumbing -------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, *, counted: bool = False,
             region: bool = False, new_op: bool = False) -> Callable:
        """``fn`` wrapped to record one span named ``name`` per call.

        ``counted`` opens a BLAS ``op_counter`` around the call (chunk
        spans); ``region`` marks the span as the parent of chunks that
        run on other threads; ``new_op`` starts a new operation id.
        """
        rec = self
        ids = self._ids
        spans = self.spans

        def traced(*args, **kwargs):
            sid = next(ids)
            stack = rec._stack()
            parent = stack[-1] if stack else rec._region
            stack.append(sid)
            if new_op:
                rec.op += 1
            if region:
                outer_region, rec._region = rec._region, sid
            op = rec.op
            start = perf_counter()
            try:
                if counted:
                    with op_counter() as tally:
                        result = fn(*args, **kwargs)
                    rec.blas.append((op, tally))
                    return result
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if region:
                    rec._region = outer_region
                stack.pop()
                spans.append((sid, name, start, end, parent, op,
                              threading.get_ident()))

        return traced

    def _wrap_loops(self, backward_loops: Callable, name: str) -> Callable:
        """``Layer.backward_loops`` wrapped so every returned
        ``LoopSpec.body`` records a chunk span."""

        def traced_loops(*args, **kwargs):
            loops = backward_loops(*args, **kwargs)
            for loop in loops:
                loop.body = self.wrap(loop.body, name, counted=True)
            return loops

        return traced_loops


def _install_net(rec: Recorder, net, executor) -> None:
    """Shadow what both training and serving go through: the executor's
    passes, the team's regions, every layer's chunks, the data read."""
    executor.forward = rec.wrap(executor.forward, "executor.forward")
    executor.backward = rec.wrap(executor.backward, "executor.backward")
    team = executor.team
    team.parallel_for = rec.wrap(team.parallel_for, "team.region",
                                 region=True)
    for layer in net.layers:
        group = LAYER_GROUPS.get(layer.type, "other")
        fwd, bwd = f"{layer.name}.fwd", f"{layer.name}.bwd"
        rec.chunk_kind[fwd] = (group, "fwd")
        rec.chunk_kind[bwd] = (group, "bwd")
        layer.forward_chunk = rec.wrap(layer.forward_chunk, fwd,
                                       counted=True)
        layer.backward_loops = rec._wrap_loops(layer.backward_loops, bwd)
        source = getattr(layer, "source", None)
        if source is not None:
            source.next_batch = rec.wrap(source.next_batch,
                                         "data.next_batch")


def install_train(rec: Recorder, solver) -> Callable[[int], float]:
    """Shadow the public methods one training iteration goes through;
    returns the traced ``step`` the slice loop calls instead of
    ``solver.step`` (one call = one operation)."""
    _install_net(rec, solver.net, solver.executor)
    solver.apply_update = rec.wrap(solver.apply_update, "solver.update")
    solver.net.clear_param_diffs = rec.wrap(solver.net.clear_param_diffs,
                                            "net.clear_diffs")
    return rec.wrap(solver.step, "op", new_op=True)


def install_serve(rec: Recorder, engine) -> None:
    """Shadow the engine's batch entry point and everything under it;
    every ``run_batch`` call is one operation.  ``rec.batch_ids[op]``
    keeps the request ids each batch carried."""
    _install_net(rec, engine.net, engine.executor)
    run_batch = rec.wrap(engine.run_batch, "op", new_op=True)

    def traced_batch(samples, request_ids=None):
        rec.batch_ids.append(tuple(request_ids or ()))
        return run_batch(samples, request_ids)

    engine.run_batch = traced_batch


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def covered(intervals: Iterable[Tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time per span id: its duration minus the part of that
    interval its child spans cover (children may overlap one another
    when they ran on different threads)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, _name, start, end, parent, _op, _tid in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, ()), start, end)
        for sid, _name, start, end, _parent, _op, _tid in spans
    }


def per_op(rec: Recorder) -> List[Dict[str, float]]:
    """One dict per traced operation (training iteration or served
    batch): milliseconds by part and exact counts; README.md has the
    glossary."""
    selfs = self_times(rec.spans)
    by_op: Dict[int, List[Span]] = {}
    for span in rec.spans:
        by_op.setdefault(span[5], []).append(span)
    blas_by_op: Dict[int, List[object]] = {}
    for op, tally in rec.blas:
        blas_by_op.setdefault(op, []).append(tally)

    rows = []
    for op in sorted(k for k in by_op if k >= 0):
        row: Dict[str, float] = {
            f"framework.{g}.{p}_ms": 0.0
            for g in GROUPS for p in ("fwd", "bwd")
        }
        row.update({
            "framework.solver.update_ms": 0.0,
            "framework.net.clear_diffs_ms": 0.0,
            "data.next_batch_ms": 0.0,
            "core.team.regions": 0, "core.chunks": 0,
            "core.team.region_overhead_ms": 0.0,
            "core.executor.glue_ms": 0.0,
            "_imbalance_ms": 0.0, "_executor_ms": 0.0,
        })
        busy: Dict[int, Dict[int, float]] = {}  # region -> thread -> s
        regions: Dict[int, float] = {}
        for sid, name, start, end, parent, _op, tid in by_op[op]:
            kind = rec.chunk_kind.get(name)
            if kind is not None:
                row[f"framework.{kind[0]}.{kind[1]}_ms"] += selfs[sid] * 1e3
                row["core.chunks"] += 1
                per_thread = busy.setdefault(parent, {})
                per_thread[tid] = per_thread.get(tid, 0.0) + (end - start)
            elif name == "team.region":
                regions[sid] = end - start
            elif name == "solver.update":
                row["framework.solver.update_ms"] += selfs[sid] * 1e3
            elif name == "net.clear_diffs":
                row["framework.net.clear_diffs_ms"] += selfs[sid] * 1e3
            elif name == "data.next_batch":
                row["data.next_batch_ms"] += selfs[sid] * 1e3
            elif name in ("executor.forward", "executor.backward"):
                row["core.executor.glue_ms"] += selfs[sid] * 1e3
                row["_executor_ms"] += (end - start) * 1e3
            elif name == "op":
                row["_op_ms"] = (end - start) * 1e3
                row["_start"], row["_end"] = start, end
        row["core.team.regions"] = len(regions)
        for sid, wall in regions.items():
            threads = busy.get(sid, {})
            busiest = max(threads.values(), default=0.0)
            row["core.team.region_overhead_ms"] += (wall - busiest) * 1e3
            if len(threads) > 1:
                row["_imbalance_ms"] += (
                    busiest - min(threads.values())) * 1e3
        calls = {"gemm": 0, "im2col": 0, "col2im": 0}
        gemm_flops = 0
        nbytes = 0
        for tally in blas_by_op.get(op, ()):
            for kind in calls:
                calls[kind] += tally.calls.get(kind, 0)
            gemm_flops += tally.flops.get("gemm", 0)
            nbytes += tally.total_bytes()
        row["blaslib.gemm.calls"] = calls["gemm"]
        row["blaslib.im2col.calls"] = calls["im2col"]
        row["blaslib.col2im.calls"] = calls["col2im"]
        row["blaslib.gemm.gflop"] = gemm_flops / 1e9
        row["blaslib.bytes_mb"] = nbytes / 1e6
        rows.append(row)
    return rows


def median_row(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-operation medians of every metric column (``_``-prefixed
    columns are bookkeeping, not metrics)."""
    return {key: statistics.median(row[key] for row in rows)
            for key in rows[0] if not key.startswith("_")}


def parts_ms(metrics: Dict[str, float]) -> float:
    """Sum of the millisecond columns: the parts that add up to the
    operation, the rest being ``unattributed_ms``."""
    return sum(v for k, v in metrics.items() if k.endswith("_ms"))


def spans_as_json(rec: Recorder) -> List[list]:
    """Spans with times rebased to the first one and thread ids mapped
    to small integers, ready for ``json.dump``."""
    if not rec.spans:
        return []
    origin = min(span[2] for span in rec.spans)
    threads: Dict[int, int] = {}
    out = []
    for sid, name, start, end, parent, op, tid in rec.spans:
        out.append([sid, name, start - origin, end - origin, parent, op,
                    threads.setdefault(tid, len(threads))])
    return out
