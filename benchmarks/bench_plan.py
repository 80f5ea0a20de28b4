"""Benchmark: EXT-plan — overhead of error-budget auto-family selection.

The planner's pitch is that stating a budget instead of hand-picking a
family costs almost nothing: cheap merging-tier probes run first and the
expensive exact-DP/poly tiers are pruned the moment a probe satisfies the
budget.  This file measures that claim on two 3-family budgets over a
step signal:

* **probe-win** — a loose error budget the first merging probe already
  meets.  The planner must do little more than build the winner itself:
  the gate (``test_planner_overhead_within_3x``) asserts total planning
  time <= 3x a solo build of the winning ``(family, k)``.
* **escalation** — an error budget no merging-tier probe can meet, so
  the planner escalates to the exact DP.  The DP build dominates, so
  planning lands near 1x its solo cost; the same 3x gate applies.

Each run also records its measurements into ``BENCH_plan.json`` at the
repo root, with the core count it ran on and every gate marked as run
and passed or failed — the performance-trajectory file: committing the
refreshed numbers alongside planner changes turns the git history of
that file into the perf record.

Run directly (``python benchmarks/bench_plan.py``) for the table, or via
pytest (the CI bench-smoke job runs it with ``--benchmark-disable``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serve.builders import build_synopsis
from repro.serve.planner import BuildBudget, plan_build

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_PATH = REPO_ROOT / "BENCH_plan.json"

N = 16_384
DP_N = 1_024  # the DP is O(n^2 k): keep the escalation scenario sized
FAMILIES = ("merging", "exact_dp", "poly")  # the 3-family budget
K_GRID = (4, 8, 16)
REPEATS = 3
OVERHEAD_GATE = 3.0


def _step_signal() -> np.ndarray:
    """A 7-level step signal: the k=4 merging probe (2k+1=9 pieces)
    already fits it, so a loose error budget is settled immediately."""
    rng = np.random.default_rng(11)
    edges = np.sort(rng.choice(np.arange(1, N), size=6, replace=False))
    levels = rng.uniform(0.5, 5.0, 7)
    values = np.repeat(levels, np.diff(np.concatenate(([0], edges, [N]))))
    return np.abs(values + rng.normal(0.0, 0.05, N))


def _ramp_signal() -> np.ndarray:
    """A noiseless ramp: every k-piece histogram pays discretization
    error, and the DP's optimal k pieces strictly beat merging's fewer
    feasible pieces once a byte cap bites."""
    return np.linspace(0.1, 5.0, DP_N)


def _scenarios() -> dict:
    """(signal, budget) per scenario, budgets derived from real builds so
    they sit where intended whatever the platform's arithmetic."""
    steps = _step_signal()
    ramp = _ramp_signal()
    probe = build_synopsis(steps, "merging", max(K_GRID))
    # A byte cap that admits the DP at k=16 (2k numbers = 256 bytes) but
    # rejects merging at k >= 8 (2(2k+1) numbers = 272+ bytes); the error
    # bound then sits between the DP's error and merging@4's, so only
    # the DP is feasible and the planner must escalate.
    dp = build_synopsis(ramp, "exact_dp", max(K_GRID))
    merging_small = build_synopsis(ramp, "merging", min(K_GRID))
    assert dp.error < merging_small.error
    return {
        # Satisfied by the first merging probe: pruning must kick in.
        "probe-win": (steps, BuildBudget(max_error=probe.error * 4.0)),
        "escalation": (
            ramp,
            BuildBudget(
                max_bytes=260.0,
                max_error=float(np.sqrt(dp.error * merging_small.error)),
            ),
        ),
    }


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _run_scenario(name: str, data: np.ndarray, budget: BuildBudget) -> dict:
    plan = plan_build(data, budget, families=FAMILIES, k_grid=K_GRID)
    planning = _best_of(
        lambda: plan_build(data, budget, families=FAMILIES, k_grid=K_GRID)
    )
    chosen = plan.chosen
    winner_build = _best_of(
        lambda: build_synopsis(data, chosen.family, chosen.k, **chosen.options)
    )
    return {
        "scenario": name,
        "n": int(data.size),
        "families": list(FAMILIES),
        "k_grid": list(K_GRID),
        "budget": {"max_bytes": budget.max_bytes, "max_error": budget.max_error},
        "chosen": chosen.label(),
        "candidates": len(plan.candidates),
        "built": plan.built_count(),
        "planning_ms": planning * 1e3,
        "winner_build_ms": winner_build * 1e3,
        "overhead_x": planning / winner_build,
    }


def _gates(rows: list) -> list:
    """Every gate of the file, marked as run and as passed or failed."""
    gates = [
        {
            "gate": f"{row['scenario']}: planning <= {OVERHEAD_GATE}x winner build",
            "ran": True,
            "passed": row["overhead_x"] <= OVERHEAD_GATE,
        }
        for row in rows
    ]
    scenarios = {row["scenario"]: row for row in rows}
    probe, escalation = scenarios["probe-win"], scenarios["escalation"]
    gates.append(
        {
            "gate": "probe-win: a merging probe wins, expensive tiers pruned",
            "ran": True,
            "passed": probe["chosen"].startswith("merging")
            and probe["built"] < probe["candidates"],
        }
    )
    gates.append(
        {
            "gate": "escalation: reaches the exact DP",
            "ran": True,
            "passed": escalation["chosen"].startswith("exact_dp"),
        }
    )
    return gates


def _record(rows: list) -> None:
    """Refresh the perf-trajectory file with this run's measurements."""
    payload = {
        "benchmark": "bench_plan",
        "cpus": os.cpu_count(),
        "gates": _gates(rows),
        "runs": rows,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=1) + "\n")


def run_comparison(verbose: bool = True) -> list:
    rows = [
        _run_scenario(name, data, budget)
        for name, (data, budget) in _scenarios().items()
    ]
    _record(rows)
    if verbose:
        for row in rows:
            print(
                f"\n{row['scenario']}: chose {row['chosen']} "
                f"({row['built']} of {row['candidates']} candidates built)\n"
                f"  planning {row['planning_ms']:8.2f}ms   winner solo "
                f"{row['winner_build_ms']:8.2f}ms   overhead "
                f"{row['overhead_x']:.2f}x"
            )
    return rows


@pytest.fixture(scope="module")
def comparison_rows():
    return run_comparison()


def test_planner_overhead_within_3x(comparison_rows):
    """Acceptance gate: on a 3-family budget, total planning time stays
    within 3x of building just the winning family."""
    for row in comparison_rows:
        assert row["overhead_x"] <= OVERHEAD_GATE, (
            f"{row['scenario']}: planning {row['planning_ms']:.1f}ms is "
            f"{row['overhead_x']:.2f}x the winner's "
            f"{row['winner_build_ms']:.1f}ms solo build"
        )


def test_probe_win_prunes_expensive_tiers(comparison_rows):
    """The loose budget must be settled by probes alone — the expensive
    exact-DP/poly candidates are pruned, not built."""
    row = next(r for r in comparison_rows if r["scenario"] == "probe-win")
    assert row["chosen"].startswith("merging")
    assert row["built"] < row["candidates"]


def test_escalation_reaches_the_dp(comparison_rows):
    row = next(r for r in comparison_rows if r["scenario"] == "escalation")
    assert row["chosen"].startswith("exact_dp")


def test_results_file_written(comparison_rows):
    payload = json.loads(RESULTS_PATH.read_text())
    assert payload["benchmark"] == "bench_plan"
    assert payload["cpus"] == os.cpu_count()
    assert all(gate["ran"] for gate in payload["gates"])
    assert {r["scenario"] for r in payload["runs"]} == {
        "probe-win",
        "escalation",
    }


if __name__ == "__main__":
    run_comparison()
