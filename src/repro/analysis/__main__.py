"""CLI for the analyzer families: ``python -m repro.analysis [MODE] ...``.

One table (:data:`FAMILIES`) maps each mode to its module, flags,
validator and ``run_*`` call; :func:`main` is the only driver.  With no
MODE the parallel-safety analysis runs.  ``--help`` (in any mode) prints
that family's own module docstring and flags.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import repro.analysis as safety
from repro.analysis import (
    detcheck, fusecheck, netcheck, perfcheck, plancheck, rescheck,
    servecheck, synccheck,
)
from repro.analysis.codes import catalogue_lines, drift_lines
from repro.core.reduction import BITWISE_INVARIANT, REDUCTION_MODES, TIER_ORDER
from repro.data import register_default_sources
from repro.framework.net import Net
from repro.framework.prototxt import parse_prototxt
from repro.zoo.build import ZOO_NETS, UnknownNet, build_net, zoo_spec


class _InputError(Exception):
    """A file the user named holds something the mode cannot use."""


def _parse_threads(text: str) -> List[int]:
    try:
        threads = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--threads wants a comma-separated list of ints, got {text!r}"
        )
    if not threads or any(t < 1 for t in threads):
        raise argparse.ArgumentTypeError(
            f"thread counts must be >= 1, got {text!r}"
        )
    return threads


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------
#: Flags more than one family takes, declared once.  A family lists the
#: ones it accepts and may override a default (or, for --mode, whether
#: the flag repeats).
_SHARED: Dict[str, dict] = {
    "net": dict(
        action="append", default=[], metavar="NAME",
        help="zoo network (repeatable; without it the mode's default "
             "nets run)"),
    "prototxt": dict(
        action="append", default=[], metavar="FILE",
        help="user prototxt (repeatable)"),
    "mode": dict(
        metavar="MODE", choices=list(REDUCTION_MODES),
        help="reduction mode (default: %(default)s)"),
    "threads": dict(
        type=_parse_threads, default=[1, 2, 8], metavar="N,N,...",
        help="thread counts / team sizes (default: 1,2,8)"),
    "iters": dict(
        type=int, metavar="N",
        help="iterations per run (default: %(default)s)"),
    "batch": dict(
        type=int, default=None, metavar="N",
        help="batch size to analyze at (default: %(default)s; None "
             "keeps each net's own)"),
    "claim": dict(
        choices=sorted(TIER_ORDER), default=None,
        help="invariance tier the configuration claims (default: "
             "%(default)s)"),
    "static_only": dict(
        action="store_true", help="skip the dynamic pass"),
    "certify": dict(
        action="store_true",
        help="also replay each zoo net and certify it bitwise"),
    "certify_iters": dict(
        type=int, default=2, metavar="N",
        help="training iterations per certification replay (default: 2)"),
    "certify_batch": dict(
        type=int, default=4, metavar="N",
        help="batch size for the certification replays (default: 4)"),
}
_REPEATED = dict(
    action="append", default=[],
    help="reduction mode to certify (repeatable; default: blockwise, "
         "ordered, tree — atomic is opt-in, its tier promises nothing a "
         "gate could enforce)")
_CERTIFY = dict(certify={}, certify_iters={}, certify_batch={})

#: Smallest accepted value per integer flag, whichever mode declares it.
_MINIMUM = {"batch": 1, "iters": 1, "certify_iters": 1, "certify_batch": 1,
            "preemptions": 0, "max_runs": 1, "requests": 3}
#: Flags naming a file the mode writes; checked before the work starts.
_OUTPUTS = ("emit_plan", "trace", "trace_out")


class Family(NamedTuple):
    #: the family's module; its docstring is the mode's --help text.
    module: object
    #: shared flag -> overrides of its :data:`_SHARED` declaration.
    flags: Dict[str, dict]
    #: ``args -> report | [report, ...] | exit code`` (an int when the
    #: mode already printed its own output).
    run: Callable
    #: ``(option, add_argument kwargs)`` for flags only this family has.
    extras: Tuple[Tuple[str, dict], ...] = ()
    #: ``(parser, args)``: cross-flag rules beyond :data:`_MINIMUM`.
    validate: Optional[Callable] = None


def _nets(args, default=ZOO_NETS, validate: bool = False) -> list:
    """``--net`` names, then each ``--prototxt`` as a ``(path, NetSpec)``
    pair; ``default`` (every zoo net) when neither flag was given."""
    register_default_sources()
    nets = list(args.net)
    for path in args.prototxt:
        with open(path) as fh:
            text = fh.read()
        try:
            nets.append((path, parse_prototxt(text, validate=validate)))
        except ValueError as exc:
            raise _InputError(f"{path}: {exc}")
    return nets or list(default)


# ---------------------------------------------------------------------------
# one run callable per family
# ---------------------------------------------------------------------------
def _run_safety(args):
    nets = []
    if not args.static_only:
        for net in _nets(args, default=["lenet"], validate=True):
            if isinstance(net, str):
                nets.append((net, partial(build_net, net, batch=args.batch)))
            else:
                path, spec = net
                nets.append((path, lambda spec=spec: Net(
                    copy.deepcopy(spec), phase="TRAIN")))
    return safety.run_analysis(nets=nets, threads=args.threads)


def _run_netcheck(args):
    phases = ["TRAIN", "TEST"] if args.phase == "both" else [args.phase]
    reports = []
    for net in _nets(args):
        label, spec = (net, zoo_spec(net)) if isinstance(net, str) else net
        for phase in phases:
            report = netcheck.check_spec(
                spec, phase=phase, threads=args.threads, batch=args.batch)
            report.net = report.net or label
            reports.append(report)
    return reports


def _run_detcheck(args):
    return detcheck.run_detcheck(
        nets=args.net or ("lenet", "cifar10", "mlp"),
        modes=args.mode or detcheck.DEFAULT_MODES,
        threads=args.threads, iters=args.iters, batch=args.batch,
        claim=args.claim, static_only=args.static_only,
    )


def _run_rescheck(args):
    return rescheck.run_rescheck(
        nets=args.net or ("lenet", "cifar10", "mlp"),
        modes=args.mode or rescheck.DEFAULT_MODES,
        threads=args.threads, iters=args.iters, batch=args.batch,
        static_only=args.static_only, skip_faults=args.skip_faults,
    )


def _validate_plancheck(parser, args) -> None:
    if args.emit_plan and (len(args.net) + len(args.prototxt) != 1
                           or len(args.threads) != 1):
        parser.error("--emit-plan requires exactly one net and one "
                     "team size (--threads N)")


def _run_plancheck(args):
    report = plancheck.run_plancheck(
        _nets(args), threads=args.threads, batch=args.batch,
        claim=args.claim, certify=args.certify,
        certify_iters=args.certify_iters, certify_batch=args.certify_batch,
    )
    if args.emit_plan:
        only = report.reports[0]
        if only.plan is None:
            print(f"cannot emit plan: planning {only.net!r} failed",
                  file=sys.stderr)
            return 1
        only.plan.save(args.emit_plan)
        print(f"plan written to {args.emit_plan}")
    return report


def _run_fusecheck(args):
    return fusecheck.run_fusecheck(
        _nets(args), threads=args.threads, batch=args.batch,
        certify=args.certify, certify_iters=args.certify_iters,
        certify_batch=args.certify_batch,
    )


def _replay(args) -> int:
    try:
        with open(args.replay, encoding="utf-8") as fh:
            payload = json.load(fh)
        runs = [synccheck.replay_trace(trace)
                for trace in payload.get("traces", [payload])]
    except (ValueError, LookupError, AttributeError, TypeError) as exc:
        raise _InputError(f"{args.replay}: not a replayable trace file "
                          f"({exc!r})")
    ok = all(faithful for faithful, _ in runs)
    if args.as_json:
        print(json.dumps({"ok": ok, "replays": [
            {"trace": i, "faithful": faithful, "status": record.status,
             "steps": len(record.schedule)}
            for i, (faithful, record) in enumerate(runs)]}, indent=2))
    else:
        for i, (faithful, record) in enumerate(runs):
            print(f"trace {i}: {record.status} after "
                  f"{len(record.schedule)} steps, replay "
                  f"{'faithful' if faithful else 'BROKEN'}")
    return 0 if ok or not args.gate else 1


def _run_synccheck(args):
    if args.replay:
        return _replay(args)
    report = synccheck.run_synccheck(
        nets=args.net or list(synccheck.DEFAULT_NETS),
        threads=args.threads, mode=args.mode, batch=args.batch,
        iters=args.iters, preemptions=args.preemptions,
        max_runs=args.max_runs, static_only=args.static_only,
        certify=not args.skip_certify,
    )
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump({"traces": report.traces}, fh, indent=2)
    return report


def _run_perfcheck(args):
    return perfcheck.run_perfcheck(
        nets=args.net or perfcheck.DEFAULT_NETS, threads=args.threads,
        log=lambda msg: print(msg, file=sys.stderr),
    )


def _run_servecheck(args):
    return servecheck.run_servecheck(
        nets=args.net or servecheck.DEFAULT_NETS,
        threads=args.threads, requests=args.requests, seed=args.seed,
        static_only=args.static_only, trace_out=args.trace_out,
    )


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------
FAMILIES: Dict[str, Family] = {
    "": Family(
        safety,
        dict(net={}, prototxt={}, threads={}, batch=dict(default=4),
             static_only={}),
        _run_safety),
    "netcheck": Family(
        netcheck,
        dict(net={}, prototxt={}, threads={}, batch={}),
        _run_netcheck,
        extras=(("--phase", dict(
            choices=["TRAIN", "TEST", "both"], default="both",
            help="phase graph(s) to check (default: both)")),)),
    "detcheck": Family(
        detcheck,
        dict(net={}, mode=_REPEATED,
             threads=dict(default=list(detcheck.DEFAULT_THREADS)),
             iters=dict(default=2), batch=dict(default=4), claim={},
             static_only={}),
        _run_detcheck),
    "rescheck": Family(
        rescheck,
        dict(net={}, mode=_REPEATED,
             threads=dict(default=list(rescheck.DEFAULT_THREADS)),
             iters=dict(default=2), batch=dict(default=4), static_only={}),
        _run_rescheck,
        extras=(("--skip-faults", dict(
            action="store_true",
            help="certify checkpoint/resume but skip the fault-injection "
                 "harness")),)),
    "plancheck": Family(
        plancheck,
        dict(net={}, prototxt={}, threads={}, batch={},
             claim=dict(default=BITWISE_INVARIANT), **_CERTIFY),
        _run_plancheck,
        extras=(("--emit-plan", dict(
            default=None, metavar="PATH",
            help="write the serialized ExecutionPlan to PATH (requires "
                 "exactly one net and one team size)")),),
        validate=_validate_plancheck),
    "fusecheck": Family(
        fusecheck,
        dict(net={}, prototxt={}, threads={}, batch={}, **_CERTIFY),
        _run_fusecheck),
    "synccheck": Family(
        synccheck,
        dict(net={}, threads={},
             mode=dict(default=synccheck.DEFAULT_MODE),
             batch=dict(default=4), iters=dict(default=1), static_only={}),
        _run_synccheck,
        extras=(
            ("--preemptions", dict(
                type=int, default=2, metavar="N",
                help="CHESS preemption bound (default: 2)")),
            ("--max-runs", dict(
                type=int, default=synccheck.DEFAULT_MAX_RUNS, metavar="N",
                help="schedule budget per configuration; exceeding it is "
                     "the SY104 warning (default: %(default)s)")),
            ("--skip-certify", dict(
                action="store_true",
                help="skip the seeded-defect certification "
                     "(SY201/SY202)")),
            ("--trace", dict(
                metavar="FILE", default=None,
                help="write every dynamic verdict's replayable schedule "
                     "trace to FILE as JSON")),
            ("--replay", dict(
                metavar="FILE", default=None,
                help="re-execute the schedule traces in FILE "
                     "deterministically and report faithfulness (no "
                     "exploration)")),
        )),
    "perfcheck": Family(
        perfcheck,
        dict(net={}, threads=dict(default=list(perfcheck.DEFAULT_THREADS))),
        _run_perfcheck),
    "servecheck": Family(
        servecheck,
        dict(net={}, threads=dict(default=list(servecheck.DEFAULT_THREADS)),
             static_only={}),
        _run_servecheck,
        extras=(
            ("--requests", dict(
                type=int, default=servecheck.DEFAULT_REQUESTS, metavar="N",
                help="trace length per replay (default: %(default)s; the "
                     "chaos storm adds more)")),
            ("--seed", dict(
                type=int, default=0, metavar="N",
                help="trace seed (default: 0)")),
            ("--trace-out", dict(
                default=None, metavar="FILE",
                help="save the generated request trace as repro-trace/1 "
                     "JSON")),
        )),
}


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------
def _build_parser(mode: str) -> argparse.ArgumentParser:
    family = FAMILIES[mode]
    others = ", ".join(name for name in FAMILIES if name and name != mode)
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.analysis {mode}".rstrip(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description=family.module.__doc__,
        epilog=f"other modes (each has its own --help):\n  {others}\n"
               "in any mode:\n"
               "  --list-codes   print the finding-code catalogue\n"
               "  --check-codes  fail when the catalogue and the analyzer "
               "sources disagree\n                 about which codes exist",
    )
    declared = [("--" + key.replace("_", "-"), {**_SHARED[key], **overrides})
                for key, overrides in family.flags.items()]
    for option, kwargs in [*declared, *family.extras]:
        parser.add_argument(option, **kwargs)
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the full machine-readable report as JSON")
    parser.add_argument(
        "--gate", action="store_true",
        help="exit nonzero on any ERROR finding")
    return parser


def _validate(parser, args, family: Family) -> None:
    for dest, minimum in _MINIMUM.items():
        value = getattr(args, dest, None)
        if value is not None and value < minimum:
            parser.error(f"--{dest.replace('_', '-')} must be >= "
                         f"{minimum}, got {value}")
    for dest in _OUTPUTS:
        path = getattr(args, dest, None)
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            parser.error(f"--{dest.replace('_', '-')}: cannot write "
                         f"{path!r}, its directory does not exist")
    if family.validate is not None:
        family.validate(parser, args)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if "--list-codes" in argv:
        print("\n".join(catalogue_lines()))
        return 0
    if "--check-codes" in argv:
        drift = drift_lines()
        print("\n".join(
            drift or ["codes: catalogue and analyzer sources agree"]))
        return 1 if drift else 0

    mode = argv[0] if argv and argv[0] in FAMILIES else ""
    family = FAMILIES[mode]
    parser = _build_parser(mode)
    args = parser.parse_args(argv[1:] if mode else argv)
    _validate(parser, args, family)
    try:
        for name in args.net:
            if name not in ZOO_NETS:
                raise UnknownNet(name)
        out = family.run(args)
    except (UnknownNet, _InputError, OSError) as exc:
        parser.error(str(exc))
    if isinstance(out, int):
        return out

    reports = out if isinstance(out, list) else [out]
    if args.as_json:
        docs = [report.to_json() for report in reports]
        print(json.dumps(docs if isinstance(out, list) else docs[0],
                         indent=2))
    else:
        for report in reports:
            for line in report.summary_lines():
                print(line)
    return 1 if args.gate and not all(r.ok for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
