"""Graph-compiler benchmark (``BENCH_fuse.json``).

For each zoo net and team size, runs the same training iterations three
ways through :class:`~repro.core.ParallelExecutor`:

* **uniform** — the unfused net under the executor-wide uniform
  strategy (the pre-planner baseline);
* **planned** — the unfused net under the per-layer
  :class:`~repro.core.ExecutionPlan` that plancheck searches out of the
  cost model (the PR-6 configuration);
* **fused** — the graph compiler's output: the fused spec, the plan
  searched *for the fused spec*, and the static memory arena applied.

All three use the blockwise reduction base mode, so each run is bitwise
invariant and the final parameter gradients must agree exactly across
configurations; ``bitwise_match`` records that.  Alongside wall-clock,
the report carries the arena's activation-memory accounting
(individually-allocated bytes vs arena bytes) and the scratch pool's
steady-state allocation count over the timed iterations — zero misses
means the im2col buffers never hit the allocator after warmup.

Example::

    python -m repro.tools.bench_fuse --iters 5 --out BENCH_fuse.json
    python -m repro.tools.bench_fuse --nets lenet --threads 8 --json

The committed ``BENCH_fuse.json`` at the repo root is the output of the
default invocation on the CI container, in the ``repro-bench/1``
envelope (see :mod:`repro.bench.schema`).  BLAS thread pools are pinned
to 1 before numpy loads (see :mod:`repro.bench.pinning`); export one of
the ``*_NUM_THREADS`` variables to override.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench.pinning import pin_blas_threads

#: Must run before the numpy-importing repro imports below, or the BLAS
#: pools have already sized themselves from the ambient environment.
_BLAS_PIN = pin_blas_threads()

import numpy as np  # noqa: E402

from repro.analysis.plancheck import plan_spec  # noqa: E402
from repro.bench.schema import dump_bench, envelope  # noqa: E402
from repro.compiler.arena import apply_arena, plan_arena  # noqa: E402
from repro.compiler.fuse import fuse_spec  # noqa: E402
from repro.compiler.scratch import pool_stats, reset_pool_stats  # noqa: E402
from repro.core import ParallelExecutor  # noqa: E402
from repro.framework.net import Net  # noqa: E402
from repro.zoo import build_net, zoo_spec  # noqa: E402

DEFAULT_NETS = ("lenet", "cifar10", "mlp")
DEFAULT_THREADS = (1, 2, 8)


def _grad_state(net):
    """Concatenated parameter-gradient bytes after the last iteration.

    Fusion preserves the learnable-parameter order (middle blobs append
    directly after their primary's), so the concatenation is comparable
    across the unfused and fused configurations.
    """
    parts = []
    for layer in net.layers:
        for blob in layer.blobs:
            parts.append(np.ascontiguousarray(blob.diff).tobytes())
    return b"".join(parts)


def timed_run(spec, threads, iters, warmup, plan, arena=False):
    """Wall-clock us/iter for ``iters`` fwd+bwd passes of a fresh net
    built from ``spec``, plus its final parameter-gradient bytes and the
    steady-state scratch-pool misses (bench_plan times through here too)."""
    net = Net(spec, phase="TRAIN")
    if arena:
        apply_arena(net)
    executor = ParallelExecutor(
        num_threads=threads, reduction="blockwise", plan=plan
    )
    try:
        for _ in range(warmup):
            net.clear_param_diffs()
            executor.forward(net)
            executor.backward(net)
        reset_pool_stats()
        start = time.perf_counter()
        for _ in range(iters):
            net.clear_param_diffs()
            executor.forward(net)
            executor.backward(net)
        elapsed = time.perf_counter() - start
        misses = pool_stats()["misses"]
        grads = _grad_state(net)
    finally:
        executor.close()
    return elapsed * 1e6 / max(iters, 1), grads, misses


def bench_net(name, threads, iters, warmup, log=lambda msg: None):
    """Benchmark one net at every team size; returns a JSON-ready dict."""
    fused_spec, fusion = fuse_spec(zoo_spec(name))

    # Activation-memory accounting is team-size independent.
    unfused_bytes = plan_arena(build_net(name)).baseline_bytes
    arena_report = plan_arena(Net(fused_spec, phase="TRAIN"))

    per_team = {}
    batch = None
    for team in threads:
        base_report = plan_spec(zoo_spec(name), net_name=name, threads=team)
        fuse_report = plan_spec(fused_spec, net_name=name, threads=team)
        batch = fuse_report.plan.batch if fuse_report.plan else batch

        uniform_us, uniform_grads, uniform_misses = timed_run(
            zoo_spec(name), team, iters, warmup, plan=None)
        planned_us, planned_grads, planned_misses = timed_run(
            zoo_spec(name), team, iters, warmup, plan=base_report.plan)
        fused_us, fused_grads, fused_misses = timed_run(
            fuse_spec(zoo_spec(name))[0], team, iters, warmup,
            plan=fuse_report.plan, arena=True)

        entry = {
            "uniform_us_per_iter": round(uniform_us, 1),
            "planned_us_per_iter": round(planned_us, 1),
            "fused_us_per_iter": round(fused_us, 1),
            "speedup_vs_uniform": round(uniform_us / fused_us, 3),
            "speedup_vs_planned": round(planned_us / fused_us, 3),
            "predicted_fused_us": round(fuse_report.predicted_us, 1),
            "predicted_planned_us": round(base_report.predicted_us, 1),
            "bitwise_match": (uniform_grads == planned_grads
                              and uniform_grads == fused_grads),
            "scratch_misses": {
                "uniform": uniform_misses,
                "planned": planned_misses,
                "fused": fused_misses,
            },
        }
        per_team[str(team)] = entry
        log(f"  {name} T={team}: uniform {uniform_us:8.1f}us, "
            f"planned {planned_us:8.1f}us, fused {fused_us:8.1f}us "
            f"({entry['speedup_vs_uniform']:.2f}x vs uniform, "
            f"{entry['speedup_vs_planned']:.2f}x vs planned, "
            f"bitwise={'ok' if entry['bitwise_match'] else 'MISMATCH'}, "
            f"misses={fused_misses})")
    return {
        "batch": batch,
        "iters": iters,
        "warmup": warmup,
        "fused_chains": [
            f"{d.primary}<-{'+'.join(d.absorbed)}" for d in fusion.fused
        ],
        "inplace_rewrites": len(fusion.rewrites),
        "activation_bytes_unfused": unfused_bytes,
        "activation_bytes_fused": arena_report.baseline_bytes,
        "activation_bytes_arena": arena_report.arena_bytes,
        "threads": per_team,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.tools.bench_fuse")
    parser.add_argument("--nets", default=",".join(DEFAULT_NETS),
                        help="comma-separated zoo nets "
                             f"(default {','.join(DEFAULT_NETS)})")
    parser.add_argument("--threads", default=",".join(
                            str(t) for t in DEFAULT_THREADS),
                        help="comma-separated team sizes (default 1,2,8)")
    parser.add_argument("--iters", type=int, default=5,
                        help="timed iterations per configuration")
    parser.add_argument("--warmup", type=int, default=1,
                        help="untimed warmup iterations (default 1)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON report here")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON report to stdout")
    args = parser.parse_args(argv)

    nets = [n for n in args.nets.split(",") if n]
    threads = [int(t) for t in args.threads.split(",") if t]

    per_net = {}
    for name in nets:
        print(f"benchmarking {name} (iters={args.iters}, "
              f"warmup={args.warmup}) ...")
        per_net[name] = bench_net(
            name, threads, args.iters, args.warmup, log=print
        )
    result = envelope(
        kind="fuse",
        timer={"iters": args.iters, "warmup": args.warmup,
               "clock": "perf_counter", "blas": _BLAS_PIN},
        nets=per_net,
    )

    mismatches = [
        (name, team)
        for name, data in result["nets"].items()
        for team, entry in data["threads"].items()
        if not entry["bitwise_match"]
    ]
    if args.out:
        dump_bench(result, args.out)
        print(f"report written to {args.out}")
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    if mismatches:
        print(f"bitwise mismatch in {mismatches}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
