"""Planned-vs-uniform wall-clock benchmark (``BENCH_plan.json``).

For each zoo net and team size, runs the same training iterations twice
through :class:`~repro.core.ParallelExecutor` — once with the uniform
executor-wide strategy and once with the per-layer
:class:`~repro.core.ExecutionPlan` that ``repro.analysis plancheck``
searches out of the cost model — and records the measured wall-clock
per iteration next to the model's predictions.  Both configurations
use the blockwise reduction base mode, so the planned and uniform runs
are each bitwise invariant and the final parameter gradients must
match exactly; the benchmark checks that too (``bitwise_match``).

Example::

    python -m repro.tools.bench_plan --iters 5 --out BENCH_plan.json
    python -m repro.tools.bench_plan --nets lenet --threads 8 --json

The committed ``BENCH_plan.json`` at the repo root is the output of
the default invocation on the CI container, in the ``repro-bench/1``
envelope (see :mod:`repro.bench.schema`).  BLAS thread pools are pinned
to 1 before numpy loads (see :mod:`repro.bench.pinning`); export one of
the ``*_NUM_THREADS`` variables to override.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.pinning import pin_blas_threads

#: Must run before the numpy-importing repro imports below, or the BLAS
#: pools have already sized themselves from the ambient environment.
_BLAS_PIN = pin_blas_threads()

from repro.analysis.plancheck import plan_spec  # noqa: E402
from repro.bench.schema import dump_bench, envelope  # noqa: E402
from repro.tools.bench_fuse import timed_run  # noqa: E402
from repro.zoo import zoo_spec  # noqa: E402

DEFAULT_NETS = ("lenet", "cifar10", "mlp")
DEFAULT_THREADS = (1, 2, 8)


def bench_net(name, threads, iters, warmup, log=lambda msg: None):
    """Benchmark one net at every team size; returns a JSON-ready dict."""
    per_team = {}
    for team in threads:
        report = plan_spec(zoo_spec(name), net_name=name, threads=team)
        plan = report.plan
        # plan=None is the uniform configuration; timed_run's executor is
        # blockwise either way so both runs sit at the same claimed tier.
        uniform_us, uniform_grads, _ = timed_run(
            zoo_spec(name), team, iters, warmup, plan=None)
        planned_us, planned_grads, _ = timed_run(
            zoo_spec(name), team, iters, warmup, plan=plan)
        entry = {
            "uniform_us_per_iter": round(uniform_us, 1),
            "planned_us_per_iter": round(planned_us, 1),
            "speedup": round(uniform_us / planned_us, 3),
            "predicted_uniform_us": round(report.uniform_us, 1),
            "predicted_planned_us": round(report.predicted_us, 1),
            "predicted_speedup": round(report.predicted_speedup, 3),
            "bitwise_match": uniform_grads == planned_grads,
            "plan": {
                lp.layer: f"t={lp.threads} g={lp.granularity}"
                          + (f" {lp.reduction}" if lp.reduction else "")
                for lp in sorted(plan.layers.values(),
                                 key=lambda lp: lp.layer)
            },
        }
        per_team[str(team)] = entry
        log(f"  {name} T={team}: uniform {uniform_us:8.1f}us/iter, "
            f"planned {planned_us:8.1f}us/iter "
            f"({entry['speedup']:.2f}x measured, "
            f"{entry['predicted_speedup']:.2f}x predicted, "
            f"bitwise={'ok' if entry['bitwise_match'] else 'MISMATCH'})")
    return {
        "batch": plan.batch,
        "iters": iters,
        "warmup": warmup,
        "threads": per_team,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.tools.bench_plan")
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
        kind="plan",
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
