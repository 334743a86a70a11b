"""Child process of a ledger run: one workload, driven over a pipe.

``run.py`` starts ``python worker.py '<json config>'`` per workload and
talks JSON lines over the child's stdin/stdout: the child announces
``ready`` once set-up and warm-up are done, then executes one command
per line (``slice``, ``trace``, ``verify``, ``report``, ``exit``) and
answers each with one line.  Between commands the child blocks on the
pipe and uses no CPU.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _serve(config: dict, reply) -> int:
    # The script directory would shadow the stdlib's ``trace`` module
    # with ledger/trace.py; import the ledger as a package instead.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    from ledger import hygiene
    from repro.bench.pinning import pin_blas_threads

    pin = pin_blas_threads()
    problem = hygiene.pin_problem(pin)
    if problem is not None:
        reply({"error": f"refusing to measure: {problem}"})
        return 2

    import numpy

    from ledger.workloads import make_workload

    if config["workload"] is None:  # page-cache warmer: imports only
        reply({"event": "ready"})
        return 0
    workload = make_workload(config["workload"], config["seed"])
    warm = workload.setup()
    reply({"event": "ready", "pin": pin, "numpy": numpy.__version__,
           "warm": warm})

    for line in sys.stdin:
        command = json.loads(line)
        kind = command["cmd"]
        if kind == "slice":
            gc.collect()
            out = workload.run_slice(command["seconds"], command["index"])
            out["vm_hwm_mb"] = hygiene.vm_hwm_mb()
            reply(out)
        elif kind == "trace":
            workload.start_trace()
            reply({})
        elif kind == "verify":
            reply(workload.verify())
        elif kind == "report":
            out = workload.trace_report(command["seconds_t2"],
                                        command["untraced_p10"])
            spans = {key: out.pop(key) for key in ("spans", "t2_spans")
                     if key in out}
            path = Path(command["path"])
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w") as handle:
                json.dump({"workload": config["workload"],
                           "span_fields": ["id", "name", "start_s", "end_s",
                                           "parent", "op", "thread"],
                           **spans}, handle)
            reply(out)
        elif kind == "exit":
            reply({})
            return 0
        else:
            reply({"error": f"unknown command {kind!r}"})
            return 2
    return 0


def main(argv) -> int:
    # Everything the program itself prints goes to stderr; the real
    # stdout carries protocol lines only.
    pipe = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    def reply(message: dict) -> None:
        pipe.write(json.dumps(message) + "\n")
        pipe.flush()

    try:
        return _serve(json.loads(argv[1]), reply)
    except Exception:
        reply({"error": traceback.format_exc()})
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
