"""Tests for synccheck: the static sync lint and its CLI document."""

import json

import pytest

from repro.analysis.codes import CODE_CATALOGUE, check_code_drift
from repro.analysis.synclint import lint_sync
from repro.resilience.faults import FaultPlan
from test_catch_matrix_sync import SEEDED_DEFECTS

_BAD_MODULE = '''
import threading

A = threading.Lock()
B = threading.Lock()
COND = threading.Condition()
BAR = threading.Barrier(2)
SHARED = []


def double():
    with A:
        with A:
            pass


def held_across_barrier():
    with A:
        BAR.wait()


def bare_wait():
    with COND:
        if not SHARED:
            COND.wait()


def unguarded_write():
    SHARED.append(1)
'''


# ---------------------------------------------------------------------------
# static lint
# ---------------------------------------------------------------------------
class TestSyncLint:
    def test_all_rules_fire_on_fixture(self, tmp_path):
        # SY001 and SY005 fire on the seeded defects of the catch
        # matrix's sync column, the other four on _BAD_MODULE.
        bad = tmp_path / "bad.py"
        bad.write_text(_BAD_MODULE)
        seeded = tmp_path / "seeded_defects.py"
        seeded.write_text(SEEDED_DEFECTS)
        rules = {f.rule for f in lint_sync([bad, seeded])}
        assert rules == {"SY001", "SY002", "SY003", "SY004",
                         "SY005", "SY006"}

    def test_held_constructs_cover_module_functions(self, tmp_path):
        # ordered(fn) holds the turn over a module function's body too
        # (the cycle closes at even's call of merge); a barrier inside
        # critical(...) holds the lock across it.
        mod = tmp_path / "held.py"
        mod.write_text(
            "def merge():\n"
            "    CTX.critical(lambda: None)\n"
            "def even(ctx):\n"
            "    ctx.ordered(merge)\n"
            "def odd(ctx):\n"
            "    ctx.critical(lambda: ctx.ordered(lambda: None))\n"
            "def stuck(ctx):\n"
            "    ctx.critical(lambda: ctx.barrier())\n"
        )
        found = {(f.rule, f.layer) for f in lint_sync([mod])}
        assert found == {("SY001", "held.even"), ("SY002", "held.stuck")}

    def test_clean_module_is_clean(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text(
            "import threading\n"
            "LOCK = threading.Lock()\n"
            "STATE = {}\n"
            "def guarded():\n"
            "    with LOCK:\n"
            "        STATE['k'] = 1\n"
        )
        assert lint_sync([good]) == []

    def test_runtime_corpus_is_lint_clean(self):
        findings = lint_sync()
        assert findings == [], [
            f"{f.rule} {f.layer}: {f.message}" for f in findings
        ]

    def test_exempt_shutdown_branch_not_divergence(self, tmp_path):
        mod = tmp_path / "loop.py"
        mod.write_text(
            "import threading\n"
            "BAR = threading.Barrier(2)\n"
            "_shutdown = False\n"
            "def worker_loop():\n"
            "    BAR.wait()\n"
            "    if _shutdown:\n"
            "        return\n"
            "    BAR.wait()\n"
        )
        assert [f.rule for f in lint_sync([mod])] == []


# ---------------------------------------------------------------------------
# fault vocabulary
# ---------------------------------------------------------------------------
class TestCertification:
    def test_fault_plan_still_rejects_junk(self):
        with pytest.raises(TypeError):
            FaultPlan(object())


# ---------------------------------------------------------------------------
# codes + CLI
# ---------------------------------------------------------------------------
class TestCodesAndCli:
    def test_sy_codes_registered(self):
        sy = {c for c in CODE_CATALOGUE if c.startswith("SY")}
        assert sy == {"SY001", "SY002", "SY003", "SY004", "SY005",
                      "SY006"}
        assert all(CODE_CATALOGUE[c][0] == "synccheck" for c in sy)

    def test_no_code_drift(self):
        unregistered, unreferenced = check_code_drift()
        assert unregistered == []
        assert unreferenced == []

    def test_cli_static_only_json(self, capsys):
        from repro.analysis.__main__ import main

        rc = main(["synccheck", "--json", "--gate"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload == {"ok": True, "findings": []}

    def test_cli_check_codes(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["--check-codes"]) == 0
        assert "agree" in capsys.readouterr().out
