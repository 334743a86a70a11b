"""The analyzer CLI's argparse surface, pinned against a snapshot, plus
the behaviour every mode shares: ``--help``, the two code-catalogue
flags, and bad input ending in a one-line ``error:`` and exit 2.

``cli_surface.json`` was generated at the last commit that still had one
hand-written ``*_main`` per family (``PYTHONPATH=src python
tests/analysis/test_cli_surface.py`` rewrites it from whatever is
checked out); the table-driven ``main()`` must rebuild the same flags —
option strings, dest, type, default, choices, action kind — in every
mode.  The one sanctioned difference: ``synccheck --mode`` gained
``choices`` when the shared ``--mode`` declaration replaced its private
one.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.analysis.__main__ import main

SNAPSHOT_PATH = Path(__file__).with_name("cli_surface.json")
#: "" is flag mode (the parallel-safety analysis, no subcommand).
MODES = ("", "netcheck", "detcheck", "rescheck", "plancheck", "fusecheck",
         "synccheck", "perfcheck", "servecheck")


class _Captured(Exception):
    pass


def _parser_for(mode: str) -> argparse.ArgumentParser:
    """The parser ``main`` builds for ``mode``, caught at parse_args."""
    box = {}

    def capture(self, args=None, namespace=None):
        box["parser"] = self
        raise _Captured

    original = argparse.ArgumentParser.parse_args
    argparse.ArgumentParser.parse_args = capture
    try:
        main([mode] if mode else [])
    except _Captured:
        pass
    finally:
        argparse.ArgumentParser.parse_args = original
    return box["parser"]


def surface(mode: str) -> dict:
    parser = _parser_for(mode)
    actions = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        actions.append({
            "options": list(action.option_strings),
            "dest": action.dest,
            "kind": type(action).__name__,
            "type": getattr(action.type, "__name__", None),
            "default": action.default,
            "choices": (None if action.choices is None
                        else list(action.choices)),
            "nargs": action.nargs,
            "metavar": action.metavar,
            "required": action.required,
        })
    actions.sort(key=lambda a: a["options"])
    # Round-trip so tuples compare equal to the lists JSON stored.
    return json.loads(json.dumps({"prog": parser.prog, "actions": actions}))


def _snapshot() -> dict:
    return json.loads(SNAPSHOT_PATH.read_text())


def test_snapshot_covers_every_mode():
    assert sorted(_snapshot()) == sorted(MODES)


def pinned_surface(mode: str) -> dict:
    """:func:`surface` with synccheck's ``--mode`` choices, which follow
    ``REDUCTION_MODES`` rather than the snapshot, checked and blanked."""
    got = surface(mode)
    if mode == "synccheck":
        from repro.core.reduction import REDUCTION_MODES

        for action in got["actions"]:
            if action["dest"] == "mode":
                assert action["choices"] == list(REDUCTION_MODES)
                action["choices"] = None
    return got


@pytest.mark.parametrize("mode", MODES)
def test_parser_matches_snapshot(mode):
    expected = _snapshot()[mode]
    got = pinned_surface(mode)
    assert got["prog"] == expected["prog"]
    assert ([a["options"] for a in got["actions"]]
            == [a["options"] for a in expected["actions"]])
    for have, want in zip(got["actions"], expected["actions"]):
        assert have == want


@pytest.mark.parametrize("mode", MODES)
def test_help_exits_zero(mode, capsys):
    with pytest.raises(SystemExit) as info:
        main(([mode] if mode else []) + ["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "--gate" in out and "--json" in out


@pytest.mark.parametrize("mode", MODES)
def test_code_flags_work_in_every_mode(mode, capsys):
    prefix = [mode] if mode else []
    assert main(prefix + ["--check-codes"]) == 0
    assert "agree" in capsys.readouterr().out
    assert main(prefix + ["--list-codes"]) == 0
    listing = capsys.readouterr().out
    assert main(["--list-codes"]) == 0
    assert listing == capsys.readouterr().out
    for family in ("FP", "RT", "NG", "DC", "RS", "PL", "FU", "SY", "PE", "SV"):
        assert f"  {family}0" in listing or f"  {family}1" in listing


BAD_INPUT = [
    ["--net", "nope"],
    ["perfcheck", "--net", "nope"],
    ["servecheck", "--net", "nope"],
    ["detcheck", "--net", "nope", "--static-only"],
    ["netcheck", "--prototxt", "/nonexistent.prototxt"],
    ["netcheck", "--prototxt", "{garbage}"],
    ["synccheck", "--replay", "/nonexistent.json"],
    ["synccheck", "--replay", "{garbage}"],
    ["synccheck", "--mode", "bogus"],
    ["plancheck", "--net", "mlp", "--threads", "2",
     "--emit-plan", "/no_dir/plan.json"],
    ["synccheck", "--static-only", "--trace", "/no_dir/traces.json"],
    ["servecheck", "--static-only", "--trace-out", "/no_dir/trace.json"],
    # perfcheck's retired timing flags are unknown flags like any other.
    ["perfcheck", "--net", "nope", "--static-only"],
    ["perfcheck", "--bench-out", "/no_dir/BENCH_perf.json"],
]


@pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
def test_bad_input_is_a_one_line_error(argv, tmp_path, capsys):
    garbage = tmp_path / "garbage"
    garbage.write_text("layer { name: ][")
    argv = [str(garbage) if tok == "{garbage}" else tok for tok in argv]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert ": error: " in last


def test_hostile_geometry_is_findings_and_exit_one(tmp_path, capsys):
    """A prototxt that parses but cannot be shaped is a report, not a
    usage error and not a traceback: coded findings, exit 1 under
    ``--gate``."""
    path = tmp_path / "stride0.prototxt"
    path.write_text(
        'layer { name: "in" type: "Input" top: "x" '
        'input_param { shape { dim: 4 dim: 3 dim: 8 dim: 8 } } }\n'
        'layer { name: "pool" type: "Pooling" bottom: "x" top: "y" '
        'pooling_param { kernel_size: 2 stride: 0 } }\n')
    assert main(["netcheck", "--prototxt", str(path), "--gate"]) == 1
    captured = capsys.readouterr()
    assert "[NG001/error] pool:" in captured.out
    assert "Traceback" not in captured.out + captured.err


if __name__ == "__main__":
    SNAPSHOT_PATH.write_text(json.dumps(
        {mode: pinned_surface(mode) for mode in MODES}, indent=1,
        sort_keys=True,
    ) + "\n")
    print(f"wrote {SNAPSHOT_PATH}")
