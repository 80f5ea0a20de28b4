"""Benchmark: EXT-core — Algorithm 1 at the paper's linear time.

Theorem 3.4 and Corollary 3.1 put ``merging`` (Algorithm 1) and its
``fastmerging`` variant at ``O(s)`` time.  This file times both end to
end from a dense array, over the doubling ladder n = 2^14 .. 2^20, on two
inputs: a dense random walk (s = n) and the same walk kept at 2% of its
positions (s ~ n / 50).  Every time is the minimum of ``REPEATS`` runs,
reported in ns per point of the universe, and split into the four steps
of a build, run one after another and timed one by one:

* ``sparse`` — ``SparseFunction.from_dense`` plus the ``PrefixSums``
  table;
* ``partition`` — ``initial_partition``, the window construction of I_0;
* ``rounds`` — the merge rounds from I_0 down to the piece budget;
* ``flatten`` — ``flatten`` over the final partition.

The gates, both on the end-to-end ns/point:

* ``test_linear_time`` — ns/point at 2^20 is at most 1.5x ns/point at
  2^14, for both algorithms on both inputs.  With the sort- and
  hash-based initial partition that the window construction replaced,
  the dense walk measured 2.9x (``merging``) and 3.6x (``fastmerging``).
* ``test_fastmerging_beats_merging`` — ``fastmerging`` is faster than
  ``merging`` at every rung from 2^16 up, on both inputs.

Every run refreshes ``BENCH_core.json`` at the repo root with the ladder,
the split, the core count and each gate's outcome.  Run the file directly
(``python benchmarks/bench_core.py``) for the table, or via pytest (the
CI bench-smoke job runs it with ``--benchmark-disable``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.fastmerging import _group_rounds, construct_fast_histogram_partition
from repro.core.histogram import flatten
from repro.core.intervals import Partition, initial_partition
from repro.core.merging import (
    _pair_rounds,
    construct_histogram_partition,
    keep_count,
    target_pieces,
)
from repro.core.prefix import PrefixSums
from repro.core.sparse import SparseFunction

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_PATH = REPO_ROOT / "BENCH_core.json"

K = 8
DELTA = 1000.0  # the paper's Section 5 settings, as the serving builders use
GAMMA = 1.0
SIZES = (1 << 14, 1 << 16, 1 << 18, 1 << 20)
DENSITIES = {"dense": 1.0, "sparse_2pct": 0.02}
# (end-to-end build, its merge rounds alone)
ALGORITHMS = {
    "merging": (construct_histogram_partition, _pair_rounds),
    "fastmerging": (construct_fast_histogram_partition, _group_rounds),
}
REPEATS = 5
LINEAR_GATE = 1.5
STEPS = ("sparse", "partition", "rounds", "flatten")


def _signal(n: int, density: float) -> np.ndarray:
    rng = np.random.default_rng(7)
    walk = np.cumsum(rng.normal(size=n))
    if density < 1.0:
        walk[rng.random(n) >= density] = 0.0
    return walk


def _best_of(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _split(values: np.ndarray, rounds) -> dict:
    """The build's steps in order, each timed; the fastest run is kept."""
    n = values.size
    target, spare = target_pieces(K, DELTA, GAMMA), keep_count(K, DELTA)
    best = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        sparse = SparseFunction.from_dense(values)
        prefix = PrefixSums(sparse)
        t1 = time.perf_counter()
        part = initial_partition(sparse)
        t2 = time.perf_counter()
        rights, _ = rounds(part.rights, prefix, target, spare)
        t3 = time.perf_counter()
        flatten(sparse, Partition(n, rights), prefix=prefix)
        t4 = time.perf_counter()
        steps = (t1 - t0, t2 - t1, t3 - t2, t4 - t3)
        if best is None or sum(steps) < sum(best):
            best = steps
    return {step: t / n * 1e9 for step, t in zip(STEPS, best)}


def _time_rung(values: np.ndarray) -> dict:
    """Both algorithms on one input: end-to-end ns/point and its split."""
    rows = {}
    for name, (build, rounds) in ALGORITHMS.items():
        result = build(values, K, delta=DELTA, gamma=GAMMA)
        total = _best_of(lambda: build(values, K, delta=DELTA, gamma=GAMMA))
        rows[name] = {
            "ns_per_point": total / values.size * 1e9,
            "split_ns_per_point": _split(values, rounds),
            "rounds": result.rounds,
            "pieces": result.num_pieces,
        }
    return rows


def run_ladder() -> dict:
    """``{input: {algorithm: {str(n): row}}}`` over the whole ladder."""
    runs = {
        label: {name: {} for name in ALGORITHMS} for label in DENSITIES
    }
    print(
        f"\nAlgorithm 1, k={K}, delta={DELTA:g}, gamma={GAMMA:g}, "
        f"cpus={os.cpu_count()}"
    )
    print(f"{'input':>12} {'n':>8} {'algorithm':>12} {'ns/pt':>8}  split")
    for label, density in DENSITIES.items():
        for n in SIZES:
            for name, row in _time_rung(_signal(n, density)).items():
                runs[label][name][str(n)] = row
                split = " ".join(
                    f"{step}={value:.1f}"
                    for step, value in row["split_ns_per_point"].items()
                )
                print(
                    f"{label:>12} {n:>8} {name:>12} "
                    f"{row['ns_per_point']:8.1f}  {split}"
                )
    return runs


def linear_time_ratios(runs: dict) -> dict:
    """ns/point at the top rung over the bottom rung, per input/algorithm."""
    lo, hi = str(SIZES[0]), str(SIZES[-1])
    return {
        f"{label}/{name}": rungs[hi]["ns_per_point"] / rungs[lo]["ns_per_point"]
        for label, algorithms in runs.items()
        for name, rungs in algorithms.items()
    }


def fastmerging_lags(runs: dict) -> list:
    """The rungs from 2^16 up where fastmerging is not faster than merging."""
    return [
        f"{label}@{n}"
        for label, algorithms in runs.items()
        for n in SIZES[1:]
        if algorithms["fastmerging"][str(n)]["ns_per_point"]
        >= algorithms["merging"][str(n)]["ns_per_point"]
    ]


def _record(runs: dict) -> None:
    """Refresh the perf-trajectory file with this run's measurements."""
    ratios = linear_time_ratios(runs)
    payload = {
        "benchmark": "bench_core",
        "workload": (
            f"merging and fastmerging (k={K}, delta={DELTA:g}, "
            f"gamma={GAMMA:g}) from "
            f"a dense array, n = 2^14..2^20; inputs: a random walk "
            f"({', '.join(f'{label}={d:g}' for label, d in DENSITIES.items())} "
            f"of positions nonzero); minimum of {REPEATS} runs"
        ),
        "cpus": os.cpu_count(),
        "gates": [
            {
                "gate": (
                    f"ns/point at 2^20 <= {LINEAR_GATE}x ns/point at 2^14, "
                    f"both algorithms, both inputs"
                ),
                "ran": True,
                "passed": max(ratios.values()) <= LINEAR_GATE,
            },
            {
                "gate": "fastmerging faster than merging at every rung from 2^16 up",
                "ran": True,
                "passed": not fastmerging_lags(runs),
            },
        ],
        "linear_time_ratio": ratios,
        "ns_per_point": runs,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=1) + "\n")


@pytest.fixture(scope="module")
def ladder():
    # One timing pass shared by every gate, like bench_shard/bench_window.
    runs = run_ladder()
    _record(runs)
    return runs


def test_linear_time(ladder):
    """Theorem 3.4: the cost per point does not grow with n."""
    ratios = linear_time_ratios(ladder)
    worst = max(ratios, key=ratios.get)
    assert ratios[worst] <= LINEAR_GATE, (
        f"{worst}: ns/point at 2^20 is {ratios[worst]:.2f}x ns/point at 2^14"
    )


def test_fastmerging_beats_merging(ladder):
    """Section 5: the group-merge schedule is faster than pair merging."""
    assert not fastmerging_lags(ladder), (
        f"fastmerging not faster than merging at {fastmerging_lags(ladder)}"
    )


def test_results_file_written(ladder):
    payload = json.loads(RESULTS_PATH.read_text())
    assert payload["benchmark"] == "bench_core"
    assert payload["cpus"] == os.cpu_count()
    assert all(gate["ran"] for gate in payload["gates"])
    for algorithms in payload["ns_per_point"].values():
        for rungs in algorithms.values():
            assert set(rungs) == {str(n) for n in SIZES}
            for row in rungs.values():
                assert set(row["split_ns_per_point"]) == set(STEPS)


if __name__ == "__main__":
    _record(run_ladder())
