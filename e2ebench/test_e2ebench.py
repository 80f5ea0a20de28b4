"""Self-tests of the end-to-end benchmark.

Run from the repository root (they are not part of the tier-1 suite)::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import steadiness  # noqa: E402

run._import_system()

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Counts that must repeat exactly for one seed and a fixed cycle count.
REPEATING = ("planner.plans_probed", "planner.plans_reused", "store.refreshes",
             "engine.table_builds", "planner.error_vs_opt")


def _counts(result: dict) -> dict:
    counts = {key: result["metrics"][key]["value"] for key in REPEATING}
    counts["attempted"] = result["attempted"]
    return counts


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_one_seed(workload):
    first = run.run(workload, seed=7, cycles=2, trace=True, setups=1)
    second = run.run(workload, seed=7, cycles=2, trace=True, setups=1)
    assert first["failed"] == 0 and second["failed"] == 0
    assert _counts(first) == _counts(second)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_runs_without_failures(workload):
    result = run.run(workload, seed=8, cycles=2, setups=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(result["metrics"][name]["value"] > 0 for name in names)


def test_command_prints_result_as_last_line():
    command = SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "3",
                                 "--seconds", "1", "--trace", "0"]
    completed = subprocess.run(command, cwd=run.ROOT, capture_output=True,
                               text=True, timeout=180, check=True)
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in SPEC["end_to_end"]:
        assert f"{metric['name']} = " in completed.stdout
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert completed.stderr == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    command = SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
    completed = subprocess.run(command, cwd=tmp_path, capture_output=True,
                               text=True, timeout=180)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_blocks_agree_only_within_the_bound_both_ways():
    steady = steadiness.summarize([1.0, 1.0, 1.0, 1.0])
    faster = steadiness.worse_by(10.0, 7.0, "lower")
    slower = steadiness.worse_by(10.0, 13.0, "lower")
    assert faster == pytest.approx(-0.3) and slower == pytest.approx(0.3)
    assert not steadiness.agree(steady, steady, faster, 0.25)
    assert not steadiness.agree(steady, steady, slower, 0.25)
    assert steadiness.agree(steady, steady, -0.2, 0.25)
    noisy = steadiness.summarize([1.0, 1.0, 2.0, 2.0])
    assert not steadiness.agree(steady, noisy, 0.0, 0.25)
