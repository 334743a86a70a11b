"""Per-layer profiling from the command line.

Runs a few real traced iterations of a zoo network (measured wall time,
Figure 4/7 style) and prints the simulated testbed scaling figures for
comparison.

Example::

    python -m repro.tools.profile --net lenet --threads 2 --iters 3

BLAS thread pools are pinned to 1 before numpy loads (see
:mod:`repro.bench.pinning`) so the measured breakdown reflects only the
coarse-grain thread team; export one of the ``*_NUM_THREADS`` variables
to override.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.pinning import pin_blas_threads
from repro.tools import at_least

#: Must run before the numpy-importing repro imports below.
_BLAS_PIN = pin_blas_threads()

from repro.core import ParallelExecutor, TracingExecutor  # noqa: E402
from repro.framework.solvers.base import SequentialExecutor  # noqa: E402
from repro.simulator import CPUModel, net_costs  # noqa: E402
from repro.simulator.report import (  # noqa: E402
    format_table,
    layer_scalability_table,
)
from repro.zoo import build_net  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.tools.profile")
    parser.add_argument("--net", choices=("lenet", "cifar10"),
                        default="lenet")
    parser.add_argument("--threads", type=at_least(1), default=1)
    parser.add_argument("--iters", type=at_least(1), default=3)
    args = parser.parse_args(argv)

    net = build_net(args.net)
    if args.threads > 1:
        inner = ParallelExecutor(num_threads=args.threads)
    else:
        inner = SequentialExecutor()
    tracer = TracingExecutor(inner)

    print(f"tracing {args.iters} real iterations of {args.net} "
          f"({args.threads} thread(s)) ...")
    for _ in range(args.iters):
        net.clear_param_diffs()
        tracer.forward(net)
        tracer.backward(net)
    if isinstance(inner, ParallelExecutor):
        inner.close()

    print("\nmeasured per-layer breakdown (this machine):")
    print(tracer.trace.table())

    print("\nmodelled per-layer scalability on the paper's 16-core Xeon:")
    costs = net_costs(net)
    keys, rows = layer_scalability_table(costs, CPUModel(), (2, 4, 8, 16))
    print(format_table(
        ["threads"] + keys,
        [[f"{t}T"] + row for t, row in zip((2, 4, 8, 16), rows)],
        width=11,
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
