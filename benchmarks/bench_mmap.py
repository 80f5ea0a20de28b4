"""Benchmark: EXT-mmap — cold-start cost of the schema-4 store layout.

The mmap layout's pitch is that a cold entry is ready the moment its
segment is mapped: hydration resolves offset specs to zero-copy views,
so the first query after process start pays O(1) setup instead of the
npz layout's full deflate round-trip over every payload array.  This
file measures that claim head-to-head — the *same* store saved both
ways, then hydrated cold.  The library writes only the mmap layout, so
the npz copy comes from ``_save_npz_store`` here, which writes the
schema-3 layout older saves wrote; both copies load through the
library's readers:

* **one entry cold** — ``load_store(lazy=True)`` followed by a single
  entry hydration, best of several fresh loads.  This is the serving
  path's first-query latency component.
* **whole store cold** — hydrate every entry of a fresh lazy load, the
  worst-case warmup a restarted server pays.  The per-layout
  ``store_hydrate_seconds`` sums (the obs histogram the serving stack
  already exports) are recorded alongside the wall-clock numbers, so
  the benchmark's measurements line up with production dashboards.

``test_mmap_cold_hydrate_10x_faster`` is the regression gate: the mmap
layout must hydrate the cold single entry >= 10x faster than npz (the
observed gap is ~20x; decompression is single-threaded CPU work, so the
gate holds on one core).  Every run refreshes ``BENCH_mmap.json`` at
the repo root.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import uuid
from pathlib import Path

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve import persistence
from repro.serve.mmap_store import flatten_payload
from repro.serve.persistence import load_store, save_store
from repro.serve.store import SynopsisStore

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_PATH = REPO_ROOT / "BENCH_mmap.json"

NUM_ENTRIES = 8
UNIVERSE = 131_072
PROBE_NAME = "series-03"
REPEATS = 5
HYDRATE_GATE = 10.0
LAYOUTS = ("npz", "mmap")


def _build_store() -> SynopsisStore:
    rng = np.random.default_rng(3)
    store = SynopsisStore()
    for i in range(NUM_ENTRIES):
        # "exact" payloads are O(n): big enough that codec cost, not
        # Python overhead, dominates hydration.
        values = np.abs(rng.normal(1.0, 0.5, UNIVERSE)) + 1e-6
        store.register(f"series-{i:02d}", values, family="exact", k=1)
    return store


def _save_npz_store(store: SynopsisStore, path: Path) -> None:
    """Write ``store`` in the legacy schema-3 npz layout: one compressed
    payload per entry plus a manifest of the entry records."""
    path.mkdir()
    store_uid = uuid.uuid4().hex
    records = []
    for index, name in enumerate(store.names()):
        entry = store[name]
        payload_name = f"entry-{index:04d}.npz"
        skeleton, arrays = flatten_payload(
            persistence._entry_payload(entry, store_uid)
        )
        np.savez_compressed(
            path / payload_name,
            **arrays,
            __skeleton__=np.asarray(json.dumps(skeleton)),
        )
        # The entries are unplanned, so the segment plan table the
        # current writer passes stays empty and no record refers to it.
        records.append(
            persistence._manifest_entry(
                entry, payload_name, persistence._PlanTable()
            )
        )
    manifest = {
        "format": persistence.STORE_FORMAT,
        "schema": 3,
        "store_uid": store_uid,
        "entries": records,
        "last_versions": dict(store._last_versions),
    }
    (path / persistence.MANIFEST_NAME).write_text(json.dumps(manifest))


SAVERS = {"npz": _save_npz_store, "mmap": save_store}


def _hydrate_seconds(store) -> float:
    """The store's own ``store_hydrate_seconds`` histogram sum."""
    registry = getattr(store, "registry", None) or MetricsRegistry()
    for name, _, metric in registry.collect():
        if name == "store_hydrate_seconds":
            return float(metric.sum)
    return 0.0


def _measure_layout(store: SynopsisStore, layout: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / layout
        start = time.perf_counter()
        SAVERS[layout](store, path)
        save_s = time.perf_counter() - start

        disk_bytes = sum(f.stat().st_size for f in path.iterdir())

        one_cold = float("inf")
        for _ in range(REPEATS):
            cold = load_store(path, lazy=True)
            start = time.perf_counter()
            cold[PROBE_NAME].hydrate()
            one_cold = min(one_cold, time.perf_counter() - start)

        cold = load_store(path, lazy=True)
        start = time.perf_counter()
        for name in cold.names():
            cold[name].hydrate()
        all_cold = time.perf_counter() - start
        hydrate_metric = _hydrate_seconds(cold)

    return {
        "layout": layout,
        "save_ms": save_s * 1e3,
        "disk_bytes": disk_bytes,
        "one_entry_cold_hydrate_ms": one_cold * 1e3,
        "whole_store_cold_hydrate_ms": all_cold * 1e3,
        "store_hydrate_seconds": hydrate_metric,
    }


def run_comparison(verbose: bool = True) -> dict:
    store = _build_store()
    rows = {layout: _measure_layout(store, layout) for layout in LAYOUTS}
    speedup = (
        rows["npz"]["one_entry_cold_hydrate_ms"]
        / rows["mmap"]["one_entry_cold_hydrate_ms"]
    )
    payload = {
        "benchmark": "bench_mmap",
        "workload": (
            f"{NUM_ENTRIES} exact entries (n={UNIVERSE}), cold hydration"
        ),
        "cpus": os.cpu_count(),
        "gate": f"mmap one-entry cold hydrate >= {HYDRATE_GATE}x faster",
        "runs": list(rows.values()),
        "cold_hydrate_speedup_x": speedup,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    if verbose:
        print(
            f"\ncold hydration, {NUM_ENTRIES} entries x n={UNIVERSE}, "
            f"cpus={os.cpu_count()}"
        )
        for row in rows.values():
            print(
                f"{row['layout']:>4}: save {row['save_ms']:8.1f}ms  "
                f"one-entry cold {row['one_entry_cold_hydrate_ms']:8.3f}ms  "
                f"whole-store cold {row['whole_store_cold_hydrate_ms']:8.1f}ms  "
                f"({row['disk_bytes'] / 1e6:.1f} MB on disk, "
                f"hydrate metric {row['store_hydrate_seconds'] * 1e3:.1f}ms)"
            )
        print(f"mmap cold-hydrate speedup: {speedup:.1f}x")
    return payload


@pytest.fixture(scope="module")
def comparison():
    return run_comparison()


def test_mmap_cold_hydrate_10x_faster(comparison):
    """Acceptance gate: a cold schema-4 entry hydrates >= 10x faster than
    the same entry from the npz layout."""
    assert comparison["cold_hydrate_speedup_x"] >= HYDRATE_GATE, (
        f"mmap cold hydrate only "
        f"{comparison['cold_hydrate_speedup_x']:.1f}x faster than npz"
    )


def test_hydrate_metric_tracks_wall_clock(comparison):
    """The exported store_hydrate_seconds histogram must account for the
    whole-store hydration pass in both layouts (dashboards tell the same
    story as the benchmark)."""
    for row in comparison["runs"]:
        assert row["store_hydrate_seconds"] > 0.0, row["layout"]
        assert (
            row["store_hydrate_seconds"] * 1e3
            <= row["whole_store_cold_hydrate_ms"] * 1.5
        )


def test_results_file_written(comparison):
    payload = json.loads(RESULTS_PATH.read_text())
    assert payload["benchmark"] == "bench_mmap"
    assert {row["layout"] for row in payload["runs"]} == set(LAYOUTS)


if __name__ == "__main__":
    run_comparison()
