"""Benchmark: EXT-window — streaming ingest throughput and windowed ingest.

PR 5 replaced ``StreamingHistogramLearner.extend``'s per-unique-position
Python dict loop (~44 ms per 200k-sample batch at ~180k support) with
vectorized accumulation: a dense ``np.bincount`` + vector add for
moderate universes, a sorted-merge of ``np.unique`` output for huge ones.
This file regression-gates that win and the sliding-window learner built
on top of it:

* ``test_vectorized_extend_at_least_5x_dict_loop`` — the acceptance
  gate: the vectorized ``extend`` must beat a faithful reimplementation
  of the old dict loop by >= 5x on a 200k-sample batch over a 2M
  universe (~190k live support).  Typical: ~12x (bincount path).
* ``test_sparse_path_beats_dict_loop`` — the sorted-merge fallback (the
  path huge universes take) must still beat the dict loop outright.
* ``test_windowed_ingest_at_least_2x_dict_loop`` — the windowed learner
  does strictly more work per batch (epoch ring + Misra–Gries sketch +
  window aggregate), and must still ingest >= 2x faster than the old
  unwindowed dict loop.  Typical: ~3.5x.

Each run records its measurements into ``BENCH_window.json`` at the repo
root, with the core count it ran on and every gate marked as run and
passed or failed — the performance-trajectory file for the ingest path.

Run directly (``python benchmarks/bench_window.py``) for the table, or
via pytest (the CI bench-smoke job runs it with ``--benchmark-disable``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import StreamingHistogramLearner, WindowedStreamLearner

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_PATH = REPO_ROOT / "BENCH_window.json"

UNIVERSE = 1 << 21  # ~190k distinct positions per 200k-sample batch
BATCH = 200_000
WINDOW = 4 * BATCH
REPEATS = 5
VECTORIZED_GATE = 5.0
SPARSE_GATE = 1.0
WINDOWED_GATE = 2.0


def _batches():
    rng = np.random.default_rng(7)
    warm = rng.integers(0, UNIVERSE, BATCH)
    batch = rng.integers(0, UNIVERSE, BATCH)
    return warm, batch


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _dict_loop_extend(counts: dict, arr: np.ndarray) -> None:
    """The old StreamingHistogramLearner.extend accumulation, verbatim."""
    positions, batch_counts = np.unique(arr, return_counts=True)
    for pos, cnt in zip(positions.tolist(), batch_counts.tolist()):
        counts[pos] = counts.get(pos, 0) + cnt


def _time_dict_loop(warm, batch) -> float:
    counts: dict = {}
    _dict_loop_extend(counts, warm)
    # Subtract the dict-copy cost: the old implementation mutated one
    # long-lived dict, so the copy that makes repeats independent is
    # measurement scaffolding, not part of the baseline.
    copy_cost = _best_of(lambda: dict(counts))
    return _best_of(lambda: _dict_loop_extend(dict(counts), batch)) - copy_cost


def _time_learner_extend(learner, warm, batch) -> float:
    """Best-of timing of ``extend(batch)`` from the same warm state."""
    learner.extend(warm)
    agg = learner._agg
    positions, counts = agg.arrays()
    snapshot = (
        positions.copy(),
        counts.copy(),
        None if agg._dense is None else agg._dense.copy(),
        learner._total,
    )

    def restore():
        agg._positions = snapshot[0].copy()
        agg._counts = snapshot[1].copy()
        agg._dense = None if snapshot[2] is None else snapshot[2].copy()
        agg._dirty = False
        learner._total = snapshot[3]
        learner._empirical = None

    restore_cost = _best_of(restore)

    def run():
        restore()
        learner.extend(batch)

    return _best_of(run) - restore_cost


def _time_windowed_extend(warm, batch) -> float:
    """Steady-state windowed ingest: the ring is full, expiry is live."""
    learner = WindowedStreamLearner(
        n=UNIVERSE, k=64, window_size=WINDOW, sketch_eps=0.01
    )
    learner.extend(warm)
    for _ in range(WINDOW // BATCH):  # fill the window so expiry kicks in
        learner.extend(batch)
    return _best_of(lambda: learner.extend(batch))


def run_comparison(verbose: bool = True) -> dict:
    warm, batch = _batches()
    dict_time = _time_dict_loop(warm, batch)

    dense_learner = StreamingHistogramLearner(n=UNIVERSE, k=64)
    assert dense_learner._agg.use_dense
    dense_time = _time_learner_extend(dense_learner, warm, batch)

    sparse_learner = StreamingHistogramLearner(n=UNIVERSE, k=64)
    sparse_learner._agg.use_dense = False  # pin the huge-universe fallback
    sparse_time = _time_learner_extend(sparse_learner, warm, batch)

    windowed_time = _time_windowed_extend(warm, batch)

    rows = {
        "universe": UNIVERSE,
        "batch": BATCH,
        "window": WINDOW,
        "dict_loop_ms": dict_time * 1e3,
        "vectorized_ms": dense_time * 1e3,
        "vectorized_x": dict_time / dense_time,
        "sparse_merge_ms": sparse_time * 1e3,
        "sparse_merge_x": dict_time / sparse_time,
        "windowed_ms": windowed_time * 1e3,
        "windowed_x": dict_time / windowed_time,
        "samples_per_sec_vectorized": BATCH / dense_time,
        "samples_per_sec_windowed": BATCH / windowed_time,
    }
    gates = [
        {
            "gate": f"{leg} >= {gate}x dict loop",
            "ran": True,
            "passed": rows[f"{key}_x"] >= gate,
        }
        for leg, key, gate in (
            ("vectorized_extend", "vectorized", VECTORIZED_GATE),
            ("sparse_merge", "sparse_merge", SPARSE_GATE),
            ("windowed_ingest", "windowed", WINDOWED_GATE),
        )
    ]
    payload = {
        "benchmark": "bench_window",
        "cpus": os.cpu_count(),
        "gates": gates,
        "run": rows,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    if verbose:
        print(
            f"\ningest of one {BATCH:,}-sample batch, universe {UNIVERSE:,} "
            f"(~190k live support):"
        )
        print(f"  dict loop (old):     {rows['dict_loop_ms']:8.2f}ms")
        print(
            f"  vectorized extend:   {rows['vectorized_ms']:8.2f}ms  "
            f"{rows['vectorized_x']:5.1f}x  "
            f"({rows['samples_per_sec_vectorized']:,.0f} samples/s)"
        )
        print(
            f"  sparse-merge path:   {rows['sparse_merge_ms']:8.2f}ms  "
            f"{rows['sparse_merge_x']:5.1f}x"
        )
        print(
            f"  windowed ingest:     {rows['windowed_ms']:8.2f}ms  "
            f"{rows['windowed_x']:5.1f}x  "
            f"({rows['samples_per_sec_windowed']:,.0f} samples/s, "
            f"window {WINDOW:,})"
        )
    return rows


@pytest.fixture(scope="module")
def comparison_rows():
    # One timing pass shared by every gate, like bench_shard/bench_plan.
    return run_comparison()


def test_vectorized_extend_at_least_5x_dict_loop(comparison_rows):
    """Acceptance gate: vectorized extend >= 5x the old dict loop on a
    200k-sample batch."""
    assert comparison_rows["vectorized_x"] >= VECTORIZED_GATE, (
        f"vectorized extend only {comparison_rows['vectorized_x']:.2f}x the "
        f"dict loop ({comparison_rows['vectorized_ms']:.2f}ms vs "
        f"{comparison_rows['dict_loop_ms']:.2f}ms)"
    )


def test_sparse_path_beats_dict_loop(comparison_rows):
    """The huge-universe sorted-merge fallback must not regress below the
    loop it replaced."""
    assert comparison_rows["sparse_merge_x"] >= SPARSE_GATE, (
        f"sparse merge path {comparison_rows['sparse_merge_x']:.2f}x the "
        f"dict loop — slower than the code it replaced"
    )


def test_windowed_ingest_at_least_2x_dict_loop(comparison_rows):
    """Windowed ingest (ring + sketches + expiry) must stay >= 2x the old
    unwindowed dict loop."""
    assert comparison_rows["windowed_x"] >= WINDOWED_GATE, (
        f"windowed ingest only {comparison_rows['windowed_x']:.2f}x the "
        f"dict loop ({comparison_rows['windowed_ms']:.2f}ms vs "
        f"{comparison_rows['dict_loop_ms']:.2f}ms)"
    )


def test_results_file_written(comparison_rows):
    payload = json.loads(RESULTS_PATH.read_text())
    assert payload["benchmark"] == "bench_window"
    assert payload["cpus"] == os.cpu_count()
    assert payload["run"]["vectorized_x"] == comparison_rows["vectorized_x"]
    assert all(gate["ran"] for gate in payload["gates"])


if __name__ == "__main__":
    run_comparison()
