"""The analyzer documents, pinned byte for byte against a snapshot.

``static_reports.json`` holds the stdout of every static entry point of
the CLI on the mlp net — the code catalogue, the parallel-safety static
pass, the static halves of detcheck, rescheck and servecheck, synccheck
(the sync lint) and perfcheck (lint + roofline, no clock) — of the four
trajectory replays on mlp: detcheck's mode certificates, rescheck's
resume and fault certification, and plancheck's and fusecheck's
``--certify`` — of the parallel-safety shadow replay on mlp and of the
serving chaos replay.  Every mode
replays bitwise on mlp, so these documents hold no ULP figures.  A
refactor of the lints or certifiers underneath must
reproduce each document exactly; a deliberate change to a report
regenerates the snapshot with ``PYTHONPATH=src python
tests/analysis/test_static_reports.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.analysis.__main__ import main

SNAPSHOT_PATH = Path(__file__).with_name("static_reports.json")
STATIC = ["--net", "mlp", "--static-only", "--json"]
COMMANDS = {
    "list-codes": ["--list-codes"],
    "parallel-safety": STATIC,
    "detcheck": ["detcheck", *STATIC],
    "rescheck": ["rescheck", *STATIC],
    "synccheck": ["synccheck", "--json"],
    "servecheck": ["servecheck", *STATIC],
    "perfcheck": ["perfcheck", "--net", "mlp", "--json"],
    "detcheck-replay": ["detcheck", "--net", "mlp", "--threads", "2",
                        "--iters", "1", "--json"],
    "rescheck-replay": ["rescheck", "--net", "mlp", "--threads", "2",
                        "--json"],
    "plancheck-certify": ["plancheck", "--net", "mlp", "--threads", "2",
                          "--certify", "--json"],
    "fusecheck-certify": ["fusecheck", "--net", "mlp", "--threads", "2",
                          "--certify", "--json"],
    "parallel-safety-replay": ["--net", "mlp", "--threads", "1,2", "--json"],
    "servecheck-replay": ["servecheck", "--net", "mlp", "--threads", "2",
                          "--requests", "24", "--json"],
}


def run(argv) -> str:
    """stdout of ``python -m repro.analysis ARGV`` (exit code must be 0)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == 0, err.getvalue()
    return out.getvalue()


@pytest.fixture(autouse=True)
def builtin_layers_only(monkeypatch):
    """Other test modules register deliberately racy layers at import;
    the documents describe the built-in package alone."""
    from repro.framework.layer import _REGISTRY

    for key, cls in list(_REGISTRY.items()):
        if not cls.__module__.startswith("repro.framework.layers"):
            monkeypatch.delitem(_REGISTRY, key)


def test_snapshot_covers_every_command():
    assert sorted(json.loads(SNAPSHOT_PATH.read_text())) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_snapshot(name):
    expected = json.loads(SNAPSHOT_PATH.read_text())[name]
    assert run(COMMANDS[name]) == expected


if __name__ == "__main__":
    SNAPSHOT_PATH.write_text(json.dumps(
        {name: run(argv) for name, argv in COMMANDS.items()}, indent=1,
        sort_keys=True,
    ) + "\n")
    print(f"wrote {SNAPSHOT_PATH}")
