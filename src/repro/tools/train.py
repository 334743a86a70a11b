"""Train a network from the command line.

Examples::

    python -m repro.tools.train --net lenet --iters 60 --threads 4
    python -m repro.tools.train --net cifar10 --reduction ordered \\
        --schedule static,2 --snapshot weights.npz
    python -m repro.tools.train --prototxt my_net.prototxt --iters 20

Per-layer execution plans (from ``repro.analysis plancheck``)::

    python -m repro.analysis plancheck --net lenet --threads 8 \\
        --emit-plan lenet.plan.json
    python -m repro.tools.train --net lenet --threads 8 \\
        --reduction blockwise --plan lenet.plan.json

A plan overrides the executor-wide thread/schedule/reduction choice per
layer; it is validated against the live net before training (PL101+
drift findings abort on error).

Fault tolerance::

    python -m repro.tools.train --net lenet --iters 100 \\
        --checkpoint ck.rckp --checkpoint-every 20
    python -m repro.tools.train --net lenet --iters 100 \\
        --checkpoint ck.rckp --checkpoint-every 20 --resume ck.rckp
    python -m repro.tools.train --net cifar10 --guard rollback

Checkpoints are crash-consistent (atomic write, CRC-32 verified) and
capture the complete trajectory state, so a resumed run is bitwise
identical to the uninterrupted one; ``--guard`` arms the per-iteration
NaN/Inf sentinels.
"""

from __future__ import annotations

import argparse
import sys

from repro.core import ParallelExecutor
from repro.core.reduction import REDUCTION_MODES
from repro.core.scheduling import make_schedule
from repro.data import register_default_sources
from repro.framework.net import Net
from repro.framework.prototxt import parse_prototxt
from repro.framework.solvers import SolverParams, create_solver
from repro.resilience import (
    GUARD_POLICIES,
    CheckpointError,
    HealthGuard,
    NumericFault,
)
from repro.tools import at_least, positive_float
from repro.zoo import build_solver


def _schedule_arg(text: str) -> str:
    """``--schedule`` as given, once :func:`make_schedule` accepts it."""
    try:
        make_schedule(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.train",
        description="Coarse-grain parallel DNN training (PPoPP'16 repro)",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--net", choices=("lenet", "cifar10"),
                        help="zoo network")
    source.add_argument("--prototxt", help="path to a network prototxt")
    parser.add_argument("--iters", type=at_least(1), default=50,
                        help="training iterations (default 50)")
    parser.add_argument("--threads", type=at_least(1), default=1,
                        help="coarse-grain thread count (default 1)")
    parser.add_argument("--reduction", choices=REDUCTION_MODES,
                        default="ordered",
                        help="gradient merge mode (default ordered)")
    parser.add_argument("--schedule", default="static", type=_schedule_arg,
                        help="loop schedule, e.g. static, static,4, "
                             "dynamic,2 (default static)")
    parser.add_argument("--plan", default=None, metavar="PATH",
                        help="per-layer ExecutionPlan JSON (from "
                             "'repro.analysis plancheck --emit-plan'); "
                             "overrides threads/schedule/reduction per "
                             "layer, validated against the net before "
                             "training")
    parser.add_argument("--solver", default="SGD",
                        choices=("SGD", "AdaGrad", "Nesterov"))
    parser.add_argument("--lr", type=positive_float, default=None,
                        help="override base learning rate")
    parser.add_argument("--display", type=at_least(0), default=10,
                        help="print loss every N iterations (0: never)")
    parser.add_argument("--snapshot", default=None,
                        help="save trained weights to this .npz path")
    parser.add_argument("--test", action="store_true",
                        help="evaluate test accuracy after training "
                             "(zoo nets only)")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="full-state checkpoint file (atomic, "
                             "CRC-32-checksummed; also written on a "
                             "numeric-guard halt)")
    parser.add_argument("--checkpoint-every", type=at_least(0), default=0,
                        metavar="N",
                        help="write --checkpoint every N iterations "
                             "(requires --checkpoint)")
    parser.add_argument("--resume", default=None, metavar="PATH",
                        help="restore a --checkpoint file before training; "
                             "the resumed trajectory bitwise-matches the "
                             "uninterrupted run")
    parser.add_argument("--guard", choices=GUARD_POLICIES, default=None,
                        help="arm the per-iteration NaN/Inf health guard "
                             "with this recovery policy")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.checkpoint_every and not args.checkpoint:
        parser.error("--checkpoint-every requires --checkpoint PATH")

    plan = None
    if args.plan:
        from repro.core import ExecutionPlan

        try:
            plan = ExecutionPlan.load(args.plan)
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"cannot load plan {args.plan!r}: {exc}")

    executor = None
    if args.threads > 1 or plan is not None:
        executor = ParallelExecutor(
            num_threads=args.threads,
            reduction=args.reduction,
            schedule=make_schedule(args.schedule),
            plan=plan,
        )

    if args.net:
        solver = build_solver(args.net, max_iter=args.iters,
                              with_test_net=args.test, executor=executor)
        if args.lr is not None:
            solver.params.base_lr = args.lr
        if args.solver != "SGD":
            params = solver.params
            params.type = args.solver
            if args.solver == "AdaGrad":
                params.momentum = 0.0
            solver = create_solver(params, solver.net,
                                   test_net=solver.test_net)
            if executor is not None:
                solver.executor = executor
            if solver.test_net is not None:
                solver.share_test_net_params()
    else:
        register_default_sources()
        with open(args.prototxt) as handle:
            spec = parse_prototxt(handle.read())
        net = Net(spec, phase="TRAIN")
        params = SolverParams(type=args.solver,
                              base_lr=(args.lr if args.lr is not None
                                       else 0.01),
                              momentum=0.0 if args.solver == "AdaGrad"
                              else 0.9,
                              max_iter=args.iters)
        solver = create_solver(params, net)
        if executor is not None:
            solver.executor = executor

    if plan is not None:
        from repro.core import plan_drift

        drift = plan_drift(plan, solver.net, args.threads)
        for code, layer, message in drift:
            stream = sys.stdout if code == "PL104" else sys.stderr
            print(f"plan drift {code} [{layer}]: {message}", file=stream)
        errors = [d for d in drift if d[0] != "PL104"]
        if errors:
            raise SystemExit(
                f"plan {args.plan!r} does not match the live net "
                f"({len(errors)} error(s)); re-emit it with "
                f"'python -m repro.analysis plancheck --emit-plan'"
            )

    solver.params.display = args.display
    solver.set_display(print)
    if args.guard:
        solver.guard = HealthGuard(policy=args.guard)
    if args.resume:
        try:
            solver.load_state(args.resume)
        except CheckpointError as exc:
            raise SystemExit(f"cannot resume: {exc}")
        print(f"resumed from {args.resume} at iteration {solver.iteration}")

    print(f"training {args.net or args.prototxt}: {args.iters} iterations, "
          f"{args.threads} thread(s), {args.reduction} reduction, "
          f"{args.schedule} schedule, {args.solver}"
          + (f", plan {args.plan}" if args.plan else ""))
    final_loss = solver.loss_history[-1] if solver.loss_history else 0.0
    try:
        while solver.iteration < args.iters:
            if args.checkpoint_every:
                span = args.checkpoint_every - (
                    solver.iteration % args.checkpoint_every
                )
                span = min(span, args.iters - solver.iteration)
            else:
                span = args.iters - solver.iteration
            final_loss = solver.step(span)
            if args.checkpoint_every:
                solver.save_state(args.checkpoint)
                print(f"checkpoint written to {args.checkpoint} at "
                      f"iteration {solver.iteration}")
    except NumericFault as exc:
        # The guard restored the last healthy state before raising, so
        # the checkpoint written here is clean and resumable.
        print(f"training halted: {exc.event}")
        if args.checkpoint:
            solver.save_state(args.checkpoint)
            print(f"healthy state checkpointed to {args.checkpoint} at "
                  f"iteration {solver.iteration}")
        if executor is not None:
            executor.close()
        return 2
    print(f"final loss: {final_loss:.6f}")

    if args.test and solver.test_net is not None:
        print(f"test accuracy: {solver.test():.3f}")
    if args.snapshot:
        solver.net.save(args.snapshot)
        print(f"weights saved to {args.snapshot}")
    if executor is not None:
        executor.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
