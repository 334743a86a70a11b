"""The performance ledger: one command, every metric, checked outputs.

    python ledger/run.py                  all four workloads, slices
                                          interleaved round-robin
    python ledger/run.py --trace          the separate traced run that
                                          yields the per-layer numbers
    python ledger/run.py --aa 6           A/A: N runs of one commit, two
                                          alternating sets, gate on bounds
    python ledger/run.py --workload W --seed N --seconds S --trace 0|1
                                          one workload (the benchmark
                                          driver's form); the last stdout
                                          line is the result object

Each workload runs in its own child process (``worker.py``); this parent
never loads numpy, tells one child at a time to run a slice, and pools
the per-operation latencies the children send back.  README.md has the
design and the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
# The script directory would shadow the stdlib's ``trace`` module with
# ledger/trace.py; import the ledger as a package instead.
sys.path[0:1] = [str(ROOT)]

from ledger import hygiene, stats  # noqa: E402

LEDGER = ROOT / "ledger"
OUT = LEDGER / "out"
WORKER = LEDGER / "worker.py"

SLICES = 8
SETUPS = 3
DEFAULT_SECONDS = 40.0
DEFAULT_TRACE_SECONDS = 10.0
#: Slice-p50 max/min above this prints a warning (host shifted regime).
REGIME_RATIO = 1.25


def load_spec() -> dict:
    with (ROOT / "BENCHMARK.json").open() as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
class ChildError(RuntimeError):
    pass


class Child:
    """One ``worker.py`` process and the pipe protocol to it."""

    def __init__(self, workload: Optional[str], seed: int) -> None:
        self.workload = workload
        self._buffer = b""
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER),
             json.dumps({"workload": workload, "seed": seed})],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
            cwd=ROOT,
        )

    def read(self, timeout: float) -> dict:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [],
                                                   remaining)[0]:
                raise ChildError(
                    f"{self.workload}: no reply within {timeout:.0f} s")
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise ChildError(
                    f"{self.workload}: child exited with code "
                    f"{self.proc.wait()} before replying")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        message = json.loads(line)
        if "error" in message:
            raise ChildError(f"{self.workload}: {message['error']}")
        return message

    def wait_ready(self) -> dict:
        """Block until set-up and warm-up are done; ``setup_s`` runs
        from process spawn to this instant, measured here."""
        message = self.read(timeout=150.0)
        self.setup_s = time.perf_counter() - self.spawned_at
        return message

    def call(self, cmd: str, timeout: float, **fields) -> dict:
        self.proc.stdin.write(
            json.dumps({"cmd": cmd, **fields}).encode() + b"\n")
        return self.read(timeout)

    def close(self) -> None:
        """Ask the child to exit, kill it if it will not, and wait."""
        if self.proc.poll() is None:
            try:
                self.call("exit", timeout=5.0)
            except (ChildError, OSError):
                self.proc.kill()
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def measure(workloads: Sequence[str], seed: int, seconds: float,
            trace: bool, slices: int = SLICES,
            setups: int = SETUPS) -> dict:
    """One ledger run over ``workloads``; returns the full record."""
    if not (ROOT / "src" / "repro").is_dir():
        raise ChildError(f"no program to measure: {ROOT / 'src' / 'repro'} "
                         "is missing")
    problems = hygiene.thread_overrides(os.environ)
    if problems:
        raise ChildError("refusing to measure with a BLAS thread override "
                         "set: " + ", ".join(problems))
    if trace:
        setups = 1  # a traced run reports no setup_s; do not pay for it
    record: Dict[str, object] = {
        "host": hygiene.host_static(), "seed": seed, "seconds": seconds,
        "trace": trace, "slices": slices,
        "host_start": hygiene.host_sample(), "workloads": {},
    }
    children: Dict[str, Child] = {}
    try:
        # Unmeasured: pull numpy + repro into the page cache so the
        # first workload's setup_s is not an order effect.
        warmer = Child(None, seed)
        try:
            warmer.wait_ready()
        finally:
            warmer.close()

        for name in workloads:
            entry = record["workloads"][name] = {"setup_s_runs": []}
            for attempt in range(setups):
                if attempt:
                    children[name].close()
                child = children[name] = Child(name, seed)
                ready = child.wait_ready()
                entry["setup_s_runs"].append(child.setup_s)
                if attempt == 0:
                    first = ready
                elif ready["warm"] != first["warm"]:
                    raise ChildError(
                        f"{name}: set-up is not deterministic across "
                        f"processes: {first['warm']} vs {ready['warm']}")
            entry["warm"] = ready["warm"]
            record["numpy"] = ready["numpy"]
            record["blas_pin"] = ready["pin"]
            print(f"# {name}: set up in "
                + ", ".join(f"{s:.2f}" for s in entry["setup_s_runs"])
                + " s", flush=True)

        if trace:
            _traced_phases(children, record, seconds)
        else:
            _timed_phases(children, record, seconds, slices)

        for name, child in children.items():
            entry = record["workloads"][name]
            entry["verify"] = child.call("verify", timeout=150.0)
            failed = sorted(k for k, ok in entry["verify"]["checks"].items()
                            if not ok)
            entry["correct"] = not failed
            if failed:
                print(f"# {name}: VERIFY FAILED: {', '.join(failed)}")
    finally:
        for child in children.values():
            child.close()
    record["host_end"] = hygiene.host_sample()
    for name, entry in record["workloads"].items():
        _aggregate(name, entry)
    return record


def _run_slice(child: Child, entry: dict, seconds: float, index: int,
               traced: bool) -> None:
    out = child.call("slice", timeout=seconds + 90.0, seconds=seconds,
                     index=index)
    out["traced"] = traced
    entry.setdefault("slices", []).append(out)


def _timed_phases(children: Dict[str, Child], record: dict,
                  seconds: float, slices: int) -> None:
    """``slices`` slices per workload, round-robin across workloads, so
    every workload samples the whole run and a burst of host
    interference lands on all of them."""
    for index in range(slices):
        for name, child in children.items():
            _run_slice(child, record["workloads"][name], seconds / slices,
                       index, traced=False)


def _traced_phases(children: Dict[str, Child], record: dict,
                   seconds: float) -> None:
    """Per workload: a quarter of the time untraced (the overhead
    baseline), half traced (two slices), and — training only, inside
    ``report`` — a quarter for the T=2 pass."""
    quarter = seconds / 4.0
    for index in range(3):
        for name, child in children.items():
            if index == 1:
                child.call("trace", timeout=30.0)
            _run_slice(child, record["workloads"][name], quarter, index,
                       traced=index > 0)
    OUT.mkdir(exist_ok=True)
    for name, child in children.items():
        entry = record["workloads"][name]
        untraced = entry["slices"][0]["lat_ms"]
        report = child.call(
            "report", timeout=quarter + 150.0, seconds_t2=quarter,
            untraced_p10=stats.percentile(untraced, 10),
            path=str(OUT / f"trace_{name}.json"))
        entry["per_layer"] = report.pop("metrics")
        entry["trace_detail"] = report


def _aggregate(name: str, entry: dict) -> None:
    """Reduce the workload's slices to its end-to-end metrics.

    Every timing metric is the *best slice's*: each percentile is the
    lowest any untraced slice reached, throughput the highest.  A slice
    is one repetition; host interference only ever adds time, and on
    this host it arrives in bursts of seconds, so the best of eight
    repetitions repeats where the pooled sample does not (README.md,
    "Why best slice").  The pooled values stay in ``diagnostic``.
    """
    slices = entry["slices"]
    timed = [s for s in slices if not s["traced"] and s["lat_ms"]]
    per_slice = [stats.summarize(s["lat_ms"]) for s in timed]
    pooled = stats.summarize([ms for s in timed for ms in s["lat_ms"]])
    entry["attempted"] = sum(s["attempted"] for s in slices)
    entry["failed"] = sum(s["failed"] for s in slices)
    entry["failures"] = {}
    for piece in slices:
        for kind, count in piece.get("failures", {}).items():
            entry["failures"][kind] = entry["failures"].get(kind, 0) + count
    entry["end_to_end"] = {
        "lat_ms_p10": min(s["p10"] for s in per_slice),
        "lat_ms_p50": min(s["p50"] for s in per_slice),
        "samples_per_s": max(s["samples"] / s["wall_s"] for s in timed),
        "peak_rss_mb": timed[-1]["vm_hwm_mb"],
        "setup_s": statistics.median(entry["setup_s_runs"]),
    }
    p50s = [s["p50"] for s in per_slice]
    entry["diagnostic"] = {
        "ops": pooled["n"],
        "lat_ms_p95": min(s["p95"] for s in per_slice),
        "pooled_lat_ms": {k: pooled[k] for k in ("p10", "p50", "p95", "p99")},
        "pooled_samples_per_s": (sum(s["samples"] for s in timed)
                                 / sum(s["wall_s"] for s in timed)),
        "p95_supported": all(stats.supported(s["n"], 95) for s in per_slice),
        "slice_p50_ms": p50s,
    }
    if max(p50s) / min(p50s) > REGIME_RATIO:
        print(f"# WARNING {name}: slice p50 ranged {min(p50s):.3f}-"
            f"{max(p50s):.3f} ms (x{max(p50s) / min(p50s):.2f}): the host "
            "shifted regime mid-run")


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def _units(spec: dict) -> Dict[str, str]:
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def _reported(record: dict, entry: dict, spec: dict) -> Dict[str, float]:
    """The metrics this kind of run reports for one workload: every
    end-to-end metric, or (traced) every per-layer metric, 0 where the
    workload does not touch the layer."""
    if record["trace"]:
        return {m["name"]: entry["per_layer"].get(m["name"], 0.0)
                for m in spec["per_layer"]}
    return entry["end_to_end"]


def print_record(record: dict, spec: dict) -> None:
    units = _units(spec)
    host = record["host"]
    print(f"# ledger rev={host['git_rev']} nproc={host['nproc']} "
        f"python={host['python']} numpy={record.get('numpy')} "
        f"seed={record['seed']} seconds={record['seconds']:g} "
        f"trace={int(record['trace'])}")
    for edge in ("host_start", "host_end"):
        print(f"# {edge}: loadavg={record[edge]['loadavg']} "
            f"steal_ticks={record[edge]['steal_ticks']}")
    for name, entry in record["workloads"].items():
        for key, value in _reported(record, entry, spec).items():
            print(f"{name:22s} {key:34s} {value:14.6g} {units[key]}")
        if not record["trace"]:
            diagnostic = entry["diagnostic"]
            note = ("" if diagnostic["p95_supported"] else
                    "  (slices under 200 ops: fewer than ten samples beyond)")
            print(f"{name:22s} {'lat_ms_p95 (diagnostic)':34s} "
                f"{diagnostic['lat_ms_p95']:14.6g} ms{note}")
            pooled = diagnostic["pooled_lat_ms"]
            print(f"{name:22s} pooled over {entry['diagnostic']['ops']} ops "
                "(diagnostic): "
                + " ".join(f"{k} {v:.6g}" for k, v in pooled.items())
                + " ms, "
                f"{entry['diagnostic']['pooled_samples_per_s']:.6g} 1/s")
        detail = entry.get("trace_detail", {}).get("t2_detail")
        if detail:
            print(f"{name:22s} T=2 pass: p50 {detail['p50_ms']:.3f} ms "
                f"(p25 {detail['p25_ms']:.3f}, p75 {detail['p75_ms']:.3f}, "
                f"{detail['ops']} ops) vs traced T=1 p50 "
                f"{detail['t1_traced_p50_ms']:.3f} ms")
        extra = {k: v for k, v in entry["verify"].items() if k != "checks"}
        print(f"{name:22s} attempted {entry['attempted']} failed "
            f"{entry['failed']} {entry['failures'] or ''} correct "
            f"{entry['correct']} {extra}")


def write_outputs(record: dict) -> None:
    """``out/ledger.json`` (everything but raw latencies) and
    ``out/raw_<workload>.json`` (per-slice operation latencies, so a
    disputed run can be re-analysed without re-running)."""
    OUT.mkdir(exist_ok=True)
    slim = {**record, "workloads": {}}
    for name, entry in record["workloads"].items():
        raw = {"workload": name, "seed": record["seed"],
               "slices": [{"index": i, "traced": s["traced"],
                           "wall_s": s["wall_s"], "lat_ms": s["lat_ms"]}
                          for i, s in enumerate(entry["slices"])]}
        with (OUT / f"raw_{name}.json").open("w") as handle:
            json.dump(raw, handle)
        slim["workloads"][name] = {**entry, "slices": [
            {k: v for k, v in piece.items()
             if k not in ("lat_ms", "gen_late_ms")}
            for piece in entry["slices"]]}
    with (OUT / "ledger.json").open("w") as handle:
        json.dump(slim, handle, indent=1)


def result_line(record: dict, spec: dict) -> str:
    """The benchmark contract's result object for a one-workload run."""
    (entry,) = record["workloads"].values()
    values = _reported(record, entry, spec)
    units = _units(spec)
    return json.dumps({
        "correct": entry["correct"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in values.items()},
    })


# ----------------------------------------------------------------------
# A/A
# ----------------------------------------------------------------------
def run_aa(runs: int, workloads: Sequence[str], seed: int, seconds: float,
           spec: dict) -> int:
    """``runs`` runs of this one commit, split into two alternating
    sets; fails when any gated metric's set medians differ by more than
    its bound.  Writes ``ledger/AA.json``."""
    records = []
    for index in range(runs):
        print(f"# A/A run {index + 1}/{runs}", flush=True)
        record = measure(workloads, seed + index, seconds, trace=False)
        print_record(record, spec)
        records.append(record)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    status = 0
    for name in workloads:
        for key, metric in bounds.items():
            values = [r["workloads"][name]["end_to_end"][key]
                      for r in records]
            first, second = stats.alternating_sets(values)
            apart = abs(stats.worse_by(statistics.median(first),
                                       statistics.median(second),
                                       metric["better"]))
            ok = apart <= metric["bound"]
            status |= not ok
            rows.append({"workload": name, "metric": key, "runs": values,
                         "set_medians": [statistics.median(first),
                                         statistics.median(second)],
                         "apart": apart, "iqr_spread": stats.iqr_spread(values),
                         "bound": metric["bound"], "ok": ok})
            print(f"{name:22s} {key:14s} medians "
                  f"{statistics.median(first):12.6g} {statistics.median(second):12.6g} "
                  f"apart {apart * 100:5.2f} %  spread "
                  f"{stats.iqr_spread(values) * 100:5.2f} %  bound "
                  f"{metric['bound'] * 100:.0f} %  "
                  f"{'ok' if ok else 'EXCEEDED'}")
    correct = all(e["correct"]
                  for r in records for e in r["workloads"].values())
    with (LEDGER / "AA.json").open("w") as handle:
        json.dump({"host": records[0]["host"], "runs": runs,
                   "seconds": seconds, "first_seed": seed,
                   "workloads": list(workloads), "correct": correct,
                   "host_samples": [[r["host_start"], r["host_end"]]
                                    for r in records],
                   "rows": rows}, handle, indent=1)
    print(f"# A/A {'passed' if not status and correct else 'FAILED'}; "
          f"wrote {LEDGER / 'AA.json'}")
    return int(status or not correct)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="ledger/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run this workload alone and end with the "
                             "benchmark contract's result line")
    parser.add_argument("--seed", type=int, default=0,
                        help="arrival schedule and request samples")
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload (default "
                             f"{DEFAULT_SECONDS:g}, traced "
                             f"{DEFAULT_TRACE_SECONDS:g})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="the traced run: per-layer metrics")
    parser.add_argument("--aa", type=int, metavar="N",
                        help="A/A check over N >= 6 runs; writes AA.json")
    parser.add_argument("--smoke", action="store_true",
                        help="one 1-s slice per workload, one set-up")
    args = parser.parse_args(argv)

    workloads = [args.workload] if args.workload else names
    seconds = args.seconds or (DEFAULT_TRACE_SECONDS if args.trace
                               else DEFAULT_SECONDS)
    if seconds <= 0:
        parser.error(f"--seconds must be positive, got {seconds}")
    try:
        if args.aa is not None:
            if args.aa < 6:
                parser.error(f"--aa needs at least 6 runs, got {args.aa}")
            return run_aa(args.aa, workloads, args.seed, seconds, spec)
        if args.smoke:
            record = measure(workloads, args.seed,
                             4.0 if args.trace else 1.0, bool(args.trace),
                             slices=1, setups=1)
        else:
            record = measure(workloads, args.seed, seconds,
                             bool(args.trace))
    except ChildError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2
    print_record(record, spec)
    write_outputs(record)
    # A failed operation (a shed or late request, a non-finite loss) is
    # counted and printed; only a failed output check fails the run.
    ok = all(e["correct"] for e in record["workloads"].values())
    if args.workload:
        print(result_line(record, spec))
    else:
        print(f"# ledger {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
