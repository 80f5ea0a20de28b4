"""Benchmark: EXT-scaling — the quadratic cost of the exact DP.

Times the exact V-optimal DP across a doubling ladder of input sizes.
Comparing consecutive rows of the emitted table shows ~4x growth per
doubling; it is benched only at small sizes to keep the suite fast (the
full-size DP cost is covered by bench_table1).  The linear-time ladders
of ``merging`` and ``fastmerging`` (Theorem 3.4, Corollary 3.1) live in
bench_core.py, with their gates.
"""

from __future__ import annotations

import pytest

from repro.baselines.exact_dp import v_optimal_histogram
from repro.datasets import make_dow_dataset

K = 20
DP_SIZES = (256, 512, 1024, 2048)


@pytest.fixture(scope="module")
def series():
    return make_dow_dataset(n=16384, seed=7)


@pytest.mark.parametrize("n", DP_SIZES)
def test_exactdp_scaling(benchmark, series, n):
    values = series[:n]
    result = benchmark(lambda: v_optimal_histogram(values, K))
    benchmark.extra_info["n"] = n
    benchmark.extra_info["error"] = result.error
