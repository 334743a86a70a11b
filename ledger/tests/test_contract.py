"""BENCHMARK.json against the benchmark contract's limits, and the
program against BENCHMARK.json."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_units_and_counts_are_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["ledger"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def _run(*args, env=None):
    return subprocess.run(
        [sys.executable, str(ROOT / "ledger" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, env=env, cwd=ROOT)


def test_smoke_run_emits_every_end_to_end_name_quickly():
    started = time.monotonic()
    done = _run("--smoke")
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30.0, f"smoke run took {elapsed:.1f} s"
    lines = [line.split() for line in done.stdout.splitlines()
             if line and not line.startswith("#")]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for workload in SPEC["workloads"]:
        seen = {parts[1]: parts for parts in lines
                if parts[0] == workload["name"]}
        for name, unit in units.items():
            assert name in seen, (workload["name"], name)
            assert float(seen[name][2]) > 0 and seen[name][3] == unit
        assert "attempted" in seen and seen["attempted"][4] == "0"
    assert done.stdout.rstrip().endswith("# ledger OK")


@pytest.mark.parametrize("workload", ["train_mlp_t1", "serve_lenet_sat"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_form_ends_with_the_result_object(workload, trace):
    done = _run("--smoke", "--workload", workload, "--seed", "5",
                "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.rstrip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for metric in section:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if trace == "1":
        out = ROOT / "ledger" / "out" / f"trace_{workload}.json"
        spans = json.loads(out.read_text())["spans"]
        assert spans and len(spans[0]) == 7


def test_refuses_to_measure_with_a_blas_thread_override():
    env = dict(os.environ, OMP_NUM_THREADS="4")
    done = _run("--smoke", "--workload", "train_mlp_t1", env=env)
    assert done.returncode == 2
    assert "OMP_NUM_THREADS=4" in done.stderr
    assert not done.stdout.strip()
