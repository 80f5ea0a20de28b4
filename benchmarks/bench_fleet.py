"""Benchmark: EXT-fleet — bulk registration, residency and group queries.

Fleet-scale serving stands on three claims, and this file measures each:

* **bulk registration amortizes planning.**  ``register_many`` probes a
  budget-compliant plan on one representative of the cohort and rides it
  across every similar member, while a per-entry ``register_auto`` loop
  re-runs the full candidate search per series.  The comparison times
  both paths over the same cohort (default 10k series of 48 points; set
  ``REPRO_BENCH_FLEET`` to shrink for smoke runs) and records the
  ``plans_reused_total`` / ``plans_probed_total`` counter deltas so the
  speedup can be attributed to plan reuse, not noise.  The bulk store is
  then saved and lazily loaded back, timing both, and the JSON manifest
  bytes per series are recorded: the members share one plan, which each
  segment writes once.
* **a residency budget holds under a skewed read mix.**  A saved store
  is lazily reloaded, capped with ``ResidencyManager``, and driven with
  a Zipf-skewed query mix.  After every answer the resident-bytes gauge
  must sit at or below the budget, no query may fail, and cold entries
  must actually have been evicted (the budget is a fraction of the
  hydrated total, so enforcement has to do real work).
* **a cohort's group query is one stacked evaluation.**  A 250-member
  cohort (n = 48, 2 shards, so larger than the engines' 32-table
  caches) answers warm ``group_range_sum`` over 8 ranges and
  ``group_top_k(4)`` through the router's cached cohort table; the
  baseline is the member-order reference loop over the members' own
  ``PrefixTable`` objects, whose answers must be equal byte for byte.

``test_register_many_amortizes_planning`` is the regression gate: on a
cohort of >= 10k series, ``register_many`` must beat the per-entry loop
by >= 3x (smaller smoke cohorts skip the ratio assert but still check
plan reuse happened).  ``test_manifest_holds_the_cohort_plan_once``
gates the manifest at <= 1,500 bytes per series, deterministic and run
in smoke mode too (a plan copied into every member's record is ~10 KB
per series).  ``test_residency_budget_respected`` gates the
second claim, and ``test_group_queries_beat_member_loop`` the third:
each kind >= 5x the reference loop.  The group cohort's size does not
follow ``REPRO_BENCH_FLEET``, so that gate runs in smoke mode too.
Every run refreshes ``BENCH_fleet.json`` at the repo root, with each
gate marked as run or skipped and as passed or failed.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro import (
    BuildBudget,
    QueryEngine,
    ResidencyManager,
    ShardRouter,
    SynopsisStore,
)
from repro.obs import get_default_registry
from repro.core.integral import PrefixStack
from repro.serve.persistence import load_store, save_store

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_PATH = REPO_ROOT / "BENCH_fleet.json"

FLEET_SIZE = int(os.environ.get("REPRO_BENCH_FLEET", "10000"))
UNIVERSE = 48
REGISTER_GATE = 3.0
GATE_FLOOR = 10_000  # the speedup gate only applies at full fleet size
MANIFEST_GATE_BYTES = 1500  # JSON manifest bytes per series, any size

RES_ENTRIES = 64
RES_UNIVERSE = 2048
RES_QUERIES = 400
RES_BUDGET_ENTRIES = 10  # budget ~= this many resident entries

# The group leg's cohort is fixed in every mode (not REPRO_BENCH_FLEET).
GROUP_MEMBERS = 250
GROUP_SHARDS = 2
GROUP_RANGES = 8
GROUP_TOP_M = 4
GROUP_REPEATS = 25
GROUP_GATE = 5.0


def _fleet(count: int) -> list:
    """``count`` similar series: one shape, per-member scale jitter."""
    rng = np.random.default_rng(7)
    base = np.abs(rng.normal(2.0, 0.4, UNIVERSE)) + 0.01
    return [
        (f"u{i}", base * rng.uniform(0.8, 1.25)) for i in range(count)
    ]


def _measure_register(count: int) -> dict:
    pairs = _fleet(count)
    budget = BuildBudget(max_bytes=400)
    registry = get_default_registry()
    probed = registry.counter("plans_probed_total")
    reused = registry.counter("plans_reused_total")

    loop_store = SynopsisStore()
    start = time.perf_counter()
    for name, values in pairs:
        loop_store.register_auto(name, values, budget)
    loop_s = time.perf_counter() - start

    bulk_store = SynopsisStore()
    probed0, reused0 = probed.value, reused.value
    start = time.perf_counter()
    bulk_store.register_many(pairs, budget, cohort="fleet")
    bulk_s = time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fleet"
        start = time.perf_counter()
        save_store(bulk_store, path)
        save_s = time.perf_counter() - start
        start = time.perf_counter()
        load_store(path, lazy=True)
        load_s = time.perf_counter() - start
        manifest_bytes = sum(f.stat().st_size for f in path.glob("*.json"))

    return {
        "fleet_size": count,
        "loop_register_s": loop_s,
        "bulk_register_s": bulk_s,
        "speedup_x": loop_s / bulk_s,
        "plans_probed": probed.value - probed0,
        "plans_reused": reused.value - reused0,
        "bulk_save_s": save_s,
        "bulk_load_s": load_s,
        "manifest_bytes_per_series": manifest_bytes / count,
    }


def _measure_residency() -> dict:
    rng = np.random.default_rng(11)
    store = SynopsisStore()
    for i in range(RES_ENTRIES):
        # "exact" payloads are O(n): entries big enough that the budget
        # genuinely forces evictions.
        values = np.abs(rng.normal(1.0, 0.5, RES_UNIVERSE)) + 1e-6
        store.register(f"series-{i:03d}", values, family="exact", k=1)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fleet"
        save_store(store, path)
        cold = load_store(path, lazy=True)

        names = list(cold.names())
        entry_bytes = max(
            int(cold[name].describe()["stored_numbers"]) * 8 for name in names
        )
        budget = RES_BUDGET_ENTRIES * entry_bytes
        manager = ResidencyManager(budget)
        manager.watch(cold)
        manager.enforce()

        engine = QueryEngine(cold)
        # Zipf-skewed mix: a hot head stays resident, the long tail
        # churns through the budget.
        picks = (rng.zipf(1.3, RES_QUERIES) - 1) % len(names)
        failures = 0
        max_resident = 0
        start = time.perf_counter()
        for pick in picks:
            name = names[int(pick)]
            try:
                engine.range_sum(name, 4, RES_UNIVERSE - 4)
            except Exception:
                failures += 1
            max_resident = max(
                max_resident, cold.residency()["resident_bytes"]
            )
        elapsed = time.perf_counter() - start
        row = cold.residency()
        described = manager.describe()

    return {
        "entries": RES_ENTRIES,
        "universe": RES_UNIVERSE,
        "queries": RES_QUERIES,
        "max_resident_bytes": budget,
        "peak_resident_bytes": max_resident,
        "final_resident_bytes": row["resident_bytes"],
        "cold_entries": row["cold"],
        "evictions": described["evictions"],
        "failed_answers": failures,
        "queries_per_s": RES_QUERIES / elapsed,
    }


def _member_order_sum(tables: list, a, b):
    """The reference group range sum: each member's own range sum, added
    in member order."""
    total = tables[0].range_sum(a, b)
    for table in tables[1:]:
        total = total + table.range_sum(a, b)
    return total


def _member_order_top_k(tables: list, m: int) -> list:
    """The reference group top-k over the members' merged partition."""
    lefts = np.unique(np.concatenate([table.prefix.lefts for table in tables]))
    rights = np.append(lefts[1:] - 1, tables[0].n - 1)
    masses = _member_order_sum(tables, lefts, rights)
    order = np.argsort(-masses, kind="stable")[:m]
    return [(int(lefts[u]), int(rights[u]), float(masses[u])) for u in order]


def _median_ms(call, repeats: int = GROUP_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


def _measure_group() -> dict:
    rng = np.random.default_rng(13)
    base = np.abs(rng.normal(2.0, 0.4, UNIVERSE)) + 0.01
    pairs = [
        (
            f"g{j:03d}",
            base * rng.uniform(0.8, 1.25) * rng.lognormal(0.0, 0.05, UNIVERSE),
        )
        for j in range(GROUP_MEMBERS)
    ]
    router = ShardRouter(num_shards=GROUP_SHARDS)
    router.register_many(pairs, BuildBudget(max_bytes=400), cohort="cohort")
    names = list(router.cohort_members("cohort"))
    tables = [router.table_versioned(name)[1] for name in names]
    x = rng.integers(0, UNIVERSE, GROUP_RANGES)
    y = rng.integers(0, UNIVERSE, GROUP_RANGES)
    a, b = np.minimum(x, y), np.maximum(x, y)

    # The first query stacks the cohort table; every timed call is warm.
    start = time.perf_counter()
    value, _ = router.group_range_sum("cohort", a, b)
    build_ms = (time.perf_counter() - start) * 1e3
    top, _ = router.group_top_k("cohort", GROUP_TOP_M)
    equal = (
        value.tobytes() == _member_order_sum(tables, a, b).tobytes()
        and top == _member_order_top_k(tables, GROUP_TOP_M)
    )
    legs = {}
    for kind, grouped, reference in (
        (
            "group_range_sum",
            lambda: router.group_range_sum("cohort", a, b),
            lambda: _member_order_sum(tables, a, b),
        ),
        (
            "group_top_k",
            lambda: router.group_top_k("cohort", GROUP_TOP_M),
            lambda: _member_order_top_k(tables, GROUP_TOP_M),
        ),
    ):
        loop_ms = _median_ms(reference)
        router_ms = _median_ms(grouped)
        legs[kind] = {
            "loop_ms": loop_ms,
            "router_ms": router_ms,
            "speedup_x": loop_ms / router_ms,
        }
    return {
        "members": GROUP_MEMBERS,
        "universe": UNIVERSE,
        "shards": GROUP_SHARDS,
        "ranges": GROUP_RANGES,
        "top_m": GROUP_TOP_M,
        "answers_equal": equal,
        "first_query_ms": build_ms,
        "table_bytes_per_member": _stack_bytes(tables) / GROUP_MEMBERS,
        "legs": legs,
    }


def _stack_bytes(tables) -> int:
    """Bytes held by the arrays of the members' stacked table (the stack
    a ``CohortTable`` holds)."""
    stack = PrefixStack([table.prefix for table in tables])
    arrays = (stack.ns, stack.offsets, stack.keys, stack.lefts, stack.lengths)
    return sum(array.nbytes for array in arrays + (stack.base, stack._coeffs))


def _gates(register: dict, residency: dict, group: dict) -> list:
    """Every gate of the file, marked as run or skipped, passed or failed."""
    full = register["fleet_size"] >= GATE_FLOOR
    gates = [
        {
            "gate": (
                f"register_many >= {REGISTER_GATE}x faster than per-entry "
                f"loop at >= {GATE_FLOOR} series"
            ),
            "ran": full,
            "passed": full and register["speedup_x"] >= REGISTER_GATE,
        },
        {
            "gate": (
                f"bulk store manifest <= {MANIFEST_GATE_BYTES} bytes per series"
            ),
            "ran": True,
            "passed": register["manifest_bytes_per_series"] <= MANIFEST_GATE_BYTES,
        },
        {
            "gate": "resident bytes <= budget with zero failed answers",
            "ran": True,
            "passed": residency["failed_answers"] == 0
            and residency["peak_resident_bytes"] <= residency["max_resident_bytes"],
        },
    ]
    for kind, leg in group["legs"].items():
        gates.append(
            {
                "gate": (
                    f"warm {kind} on a {GROUP_MEMBERS}-member cohort >= "
                    f"{GROUP_GATE}x the member-order loop, equal answers"
                ),
                "ran": True,
                "passed": group["answers_equal"] and leg["speedup_x"] >= GROUP_GATE,
            }
        )
    return gates


def run_comparison(verbose: bool = True) -> dict:
    register = _measure_register(FLEET_SIZE)
    residency = _measure_residency()
    group = _measure_group()
    payload = {
        "benchmark": "bench_fleet",
        "workload": (
            f"{FLEET_SIZE} similar series (n={UNIVERSE}) bulk-registered; "
            f"{RES_ENTRIES} exact entries (n={RES_UNIVERSE}) under a "
            f"{RES_BUDGET_ENTRIES}-entry residency budget; warm group "
            f"queries over a {GROUP_MEMBERS}-member cohort on "
            f"{GROUP_SHARDS} shards"
        ),
        "cpus": os.cpu_count(),
        "gates": _gates(register, residency, group),
        "register": register,
        "residency": residency,
        "group": group,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    if verbose:
        print(
            f"\nbulk registration, {register['fleet_size']} series: "
            f"loop {register['loop_register_s']:.2f}s  "
            f"bulk {register['bulk_register_s']:.2f}s  "
            f"({register['speedup_x']:.1f}x, "
            f"{register['plans_reused']} reused / "
            f"{register['plans_probed']} probed); "
            f"save {register['bulk_save_s']:.2f}s  "
            f"load {register['bulk_load_s']:.2f}s  "
            f"manifest {register['manifest_bytes_per_series']:.0f} B/series"
        )
        print(
            f"residency, {residency['entries']} entries under "
            f"{residency['max_resident_bytes']} B: peak "
            f"{residency['peak_resident_bytes']} B, "
            f"{residency['evictions']} evictions, "
            f"{residency['failed_answers']} failures, "
            f"{residency['queries_per_s']:.0f} q/s"
        )
        for kind, leg in group["legs"].items():
            print(
                f"{kind}, {group['members']} members: loop "
                f"{leg['loop_ms']:.2f} ms  router {leg['router_ms']:.3f} ms "
                f"({leg['speedup_x']:.1f}x, equal={group['answers_equal']})"
            )
    return payload


@pytest.fixture(scope="module")
def comparison():
    return run_comparison()


def test_register_many_amortizes_planning(comparison):
    """Acceptance gate: bulk registration >= 3x over the per-entry loop
    on a full-size cohort, with the bulk path reusing (not re-probing)
    the cohort plan for nearly every member."""
    register = comparison["register"]
    assert register["plans_reused"] >= register["fleet_size"] * 0.9
    assert register["plans_probed"] <= register["fleet_size"] * 0.1
    if register["fleet_size"] < GATE_FLOOR:
        pytest.skip(
            f"speedup gate needs >= {GATE_FLOOR} series, "
            f"ran {register['fleet_size']}"
        )
    assert register["speedup_x"] >= REGISTER_GATE, (
        f"register_many only {register['speedup_x']:.1f}x faster"
    )


def test_manifest_holds_the_cohort_plan_once(comparison):
    """Acceptance gate: the bulk store's JSON manifests stay under 1,500
    bytes per series, so no member carries its own copy of the plan."""
    register = comparison["register"]
    assert register["manifest_bytes_per_series"] <= MANIFEST_GATE_BYTES, (
        f"{register['manifest_bytes_per_series']:.0f} manifest bytes per series"
    )


def test_residency_budget_respected(comparison):
    """Acceptance gate: under a Zipf-skewed mix the resident-bytes gauge
    never exceeds the budget, every query answers, and the budget forced
    real evictions."""
    residency = comparison["residency"]
    assert residency["failed_answers"] == 0
    assert residency["peak_resident_bytes"] <= residency["max_resident_bytes"]
    assert residency["evictions"] > 0
    assert residency["cold_entries"] > 0


def test_group_queries_beat_member_loop(comparison):
    """Acceptance gate: warm group queries through the router's cached
    cohort table answer exactly what the member-order loop over the
    members' tables answers, each kind >= 5x faster."""
    group = comparison["group"]
    assert group["answers_equal"]
    for kind, leg in group["legs"].items():
        assert leg["speedup_x"] >= GROUP_GATE, (
            f"{kind} only {leg['speedup_x']:.1f}x the member-order loop"
        )


def test_results_file_written(comparison):
    payload = json.loads(RESULTS_PATH.read_text())
    assert payload["benchmark"] == "bench_fleet"
    assert payload["register"]["fleet_size"] == FLEET_SIZE
    assert set(payload["group"]["legs"]) == {"group_range_sum", "group_top_k"}
    assert all(gate["ran"] for gate in payload["gates"][1:])


if __name__ == "__main__":
    run_comparison()
