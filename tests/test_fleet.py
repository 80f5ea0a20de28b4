"""Fleet-scale serving: bulk cohort registration, group-by queries, and
tiered residency under a memory budget.

The load-bearing properties:

* ``register_many`` is *bit-identical* to the per-entry ``register_auto``
  loop (plan, payload, version) — amortizing one plan over a cohort must
  never change what gets built (Hypothesis, plain and sharded).
* Group-by answers are *exact*: equal to the member-wise sum/merge for
  every pair of synopsis families, carrying per-member snapshot versions.
* A ``ResidencyManager`` budget bounds resident payload bytes while every
  answer stays correct — cooled entries re-hydrate transparently.
* Cohort definitions persist (schema bump) while cohort-less stores keep
  stamping the previous schema so older readers still load them.
"""

from __future__ import annotations

import io
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import positive_dense_arrays
from repro import (
    BuildBudget,
    QueryEngine,
    ResidencyManager,
    ShardRouter,
    SynopsisStore,
)
from repro.__main__ import main
from repro.obs import get_default_registry
from repro.serve import (
    SYNOPSIS_FAMILIES,
    AsyncServingFrontend,
    QueryRequest,
    duplicate_entry_message,
    synopsis_to_dict,
)
from repro.serve.persistence import (
    MMAP_SCHEMA_VERSION,
    SHARDED_SCHEMA_VERSION,
    STORE_SCHEMA_VERSION,
    load_store,
    read_manifest,
    read_sharded_manifest,
    save_sharded,
)
from repro.serve.cli import serve_main

# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #


def fleet_signals(count, n=48, seed=0):
    """Similar-but-distinct positive series, one per cohort member."""
    rng = np.random.default_rng(seed)
    base = np.abs(rng.normal(2.0, 0.4, n)) + 0.01
    return [
        (
            f"u{i}",
            base * rng.uniform(0.8, 1.25) + np.abs(rng.normal(0.0, 0.05, n)),
        )
        for i in range(count)
    ]


def plan_fingerprint(plan):
    """A plan's decision record minus wall-clock timing fields."""

    def scrub(obj):
        if isinstance(obj, dict):
            return {
                key: scrub(value)
                for key, value in obj.items()
                if key not in ("build_ms", "build_seconds")
            }
        if isinstance(obj, list):
            return [scrub(value) for value in obj]
        return obj

    return scrub(plan.to_dict())


def assert_payload_equal(a, b):
    """Two synopses serialize to bitwise-equal payloads."""

    def compare(da, db, path=""):
        assert type(da) is type(db), path
        if isinstance(da, dict):
            assert da.keys() == db.keys(), path
            for key in da:
                compare(da[key], db[key], f"{path}.{key}")
        elif isinstance(da, np.ndarray):
            np.testing.assert_array_equal(da, db, err_msg=path)
        else:
            assert da == db, path

    compare(synopsis_to_dict(a), synopsis_to_dict(b))


# --------------------------------------------------------------------- #
# Bulk registration parity
# --------------------------------------------------------------------- #


class TestRegisterManyParity:
    @given(
        positive_dense_arrays(min_size=16, max_size=40),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_bit_identical_to_per_entry_loop(self, values, count):
        # Identical member series: the amortized plan's reuse path must
        # reproduce exactly what per-entry probing builds — same plan
        # record (member metrics spliced in), same payload, same version.
        budget = BuildBudget(max_bytes=256)
        named = [(f"d{i}", values) for i in range(count)]

        loop_store = SynopsisStore()
        for name, data in named:
            loop_store.register_auto(name, data, budget)
        bulk_store = SynopsisStore()
        bulk_store.register_many(named, budget, cohort="all")

        for name, _ in named:
            one, many = loop_store[name], bulk_store[name]
            assert one.version == many.version
            assert plan_fingerprint(one.plan) == plan_fingerprint(many.plan)
            assert_payload_equal(one.result.synopsis, many.result.synopsis)
        assert bulk_store.cohorts() == {"all": tuple(n for n, _ in named)}

    @given(
        positive_dense_arrays(min_size=16, max_size=40),
        st.integers(min_value=3, max_value=5),
    )
    @settings(max_examples=6, deadline=None)
    def test_sharded_parity(self, values, count):
        budget = BuildBudget(max_bytes=256)
        named = [(f"d{i}", values) for i in range(count)]

        loop_router = ShardRouter(num_shards=2)
        for name, data in named:
            loop_router.register_auto(name, data, budget)
        bulk_router = ShardRouter(num_shards=2)
        bulk_router.register_many(named, budget, cohort="all")

        for name, _ in named:
            assert loop_router.shard_map.shard_of(
                name
            ) == bulk_router.shard_map.shard_of(name)
            one = loop_router._shard_for_registered(name).store[name]
            many = bulk_router._shard_for_registered(name).store[name]
            assert one.version == many.version
            assert plan_fingerprint(one.plan) == plan_fingerprint(many.plan)
            assert_payload_equal(one.result.synopsis, many.result.synopsis)

    def test_single_map_version_bump(self):
        router = ShardRouter(num_shards=3)
        before = router.shard_map.version
        router.register_many(fleet_signals(12), BuildBudget(max_bytes=400))
        assert router.shard_map.version == before + 1

    def test_plan_reuse_and_escalation_counters(self):
        registry = get_default_registry()
        probed = registry.counter("plans_probed_total")
        reused = registry.counter("plans_reused_total")
        probed0, reused0 = probed.value, reused.value

        # The flat representative compresses losslessly under the byte
        # cap, but the noisy member's exact synopsis is data-dependent
        # and blows past it, forcing a private escalation probe.
        flat = np.full(64, 3.0)
        rng = np.random.default_rng(3)
        noise = np.abs(rng.normal(2.0, 1.0, 64)) + 0.01
        store = SynopsisStore()
        store.register_many(
            [("flat0", flat), ("flat1", flat), ("noise", noise)],
            BuildBudget(max_bytes=300),
            families=("exact", "merging"),
        )
        # Representative probed in full, the identical member rode the
        # plan, the violator escalated to its own probe.
        assert probed.value - probed0 == 2
        assert reused.value - reused0 == 1
        assert store["flat1"].result.family == "exact"
        assert store["noise"].result.family == "merging"
        assert store["noise"].result.stored_numbers * 8 <= 300


# --------------------------------------------------------------------- #
# Group-by exactness
# --------------------------------------------------------------------- #

FAMILY_PAIRS = list(itertools.combinations(sorted(SYNOPSIS_FAMILIES), 2))


class TestGroupQueries:
    @pytest.mark.parametrize(
        "fam_a,fam_b", FAMILY_PAIRS, ids=[f"{a}+{b}" for a, b in FAMILY_PAIRS]
    )
    def test_group_equals_member_wise_every_family_pair(self, fam_a, fam_b):
        n = 48
        rng = np.random.default_rng(11)
        va = np.abs(rng.normal(2.0, 0.5, n)) + 0.01
        vb = np.abs(rng.normal(3.0, 0.7, n)) + 0.01
        store = SynopsisStore()
        store.register("a", va, family=fam_a, k=4)
        store.register("b", vb, family=fam_b, k=4)
        engine = QueryEngine(store)

        a = np.asarray([0, 5, 17, 30])
        b = np.asarray([47, 30, 46, 30])
        group_sum, versions = engine.group_range_sum(["a", "b"], a, b)
        member_sum = engine.range_sum("a", a, b) + engine.range_sum("b", a, b)
        np.testing.assert_array_equal(group_sum, member_sum)
        assert versions == {"a": 0, "b": 0}

        # Pooled mean: the mean of the summed series over the range —
        # exactly the group sum divided by the range length.
        group_mean, _ = engine.group_range_mean(["a", "b"], a, b)
        np.testing.assert_array_equal(group_mean, group_sum / (b - a + 1))

        buckets, versions = engine.group_top_k(["a", "b"], 3)
        assert versions == {"a": 0, "b": 0}
        assert len(buckets) == 3
        masses = [mass for _, _, mass in buckets]
        assert masses == sorted(masses, reverse=True)
        for left, right, mass in buckets:
            piece_sum, _ = engine.group_range_sum(["a", "b"], left, right)
            assert mass == piece_sum

    def test_group_over_shards_with_cohort_and_frontend(self):
        router = ShardRouter(num_shards=3)
        named = fleet_signals(9, seed=3)
        router.register_many(named, BuildBudget(max_bytes=400), cohort="fleet")
        names = [name for name, _ in named]
        spans = {router.shard_map.shard_of(name) for name in names}
        assert len(spans) > 1  # the cohort genuinely crosses shards

        value, versions = router.group_range_sum("fleet", 4, 40)
        member_wise = sum(router.range_sum(name, 4, 40) for name in names)
        assert value == member_wise
        assert set(versions) == set(names)

        frontend = AsyncServingFrontend(router)
        results = frontend.serve(
            [
                QueryRequest("range_sum", names[0], (4, 40)),
                QueryRequest("group_range_sum", "fleet", (4, 40)),
                QueryRequest("group_range_mean", ",".join(names[:3]), (0, 10)),
            ]
        )
        assert results[0].error is None
        assert results[1].error is None
        assert results[1].value == member_wise
        assert results[1].version == versions
        assert results[2].error is None
        assert set(results[2].version) == set(names[:3])

    def test_group_rejects_unknown_member_and_empty_set(self):
        store = SynopsisStore()
        store.register("a", np.ones(16), family="merging", k=2)
        engine = QueryEngine(store)
        with pytest.raises(KeyError):
            engine.group_range_sum(["a", "ghost"], 0, 5)
        with pytest.raises(ValueError):
            engine.group_range_sum([], 0, 5)


# --------------------------------------------------------------------- #
# Tiered residency
# --------------------------------------------------------------------- #


class TestResidency:
    def test_eviction_bounds_resident_bytes_with_exact_answers(self, tmp_path):
        named = fleet_signals(16, seed=5)
        store = SynopsisStore()
        store.register_many(named, BuildBudget(max_bytes=400), cohort="fleet")
        engine = QueryEngine(store)
        n = named[0][1].size
        expected = {
            name: engine.range_sum(name, 0, n - 1) for name, _ in named
        }
        store.save(tmp_path / "fleet")

        loaded = load_store(tmp_path / "fleet", lazy=True)
        budget = 3 * max(
            int(loaded[name].describe()["stored_numbers"]) * 8
            for name, _ in named
        )
        manager = ResidencyManager(max_resident_bytes=budget)
        manager.watch(loaded)
        served = QueryEngine(loaded, cache_size=2)

        rng = np.random.default_rng(0)
        # Skewed mix: a few hot members dominate, every member appears.
        hot = [name for name, _ in named[:3]]
        mix = [name for name, _ in named] + list(
            rng.choice(hot, size=48)
        )
        rng.shuffle(mix)
        for name in mix:
            assert served.range_sum(name, 0, n - 1) == expected[name]
            assert loaded.residency()["resident_bytes"] <= budget
        assert manager.describe()["evictions"] > 0
        assert loaded.residency()["cold"] > 0

    def test_cooled_entry_rehydrates_and_recools(self, tmp_path):
        store = SynopsisStore()
        store.register_many(
            fleet_signals(4, seed=9), BuildBudget(max_bytes=400)
        )
        store.save(tmp_path / "store")
        loaded = load_store(tmp_path / "store", lazy=True)
        engine = QueryEngine(loaded)
        first = engine.range_sum("u0", 0, 10)
        assert loaded["u0"].is_hydrated
        assert loaded.cool("u0") > 0
        assert not loaded["u0"].is_hydrated
        assert engine.range_sum("u0", 0, 10) == first  # transparent rehydrate
        assert loaded["u0"].is_hydrated

    def test_in_memory_entries_never_cool(self):
        store = SynopsisStore()
        store.register("live", np.ones(32), family="merging", k=2)
        manager = ResidencyManager(max_resident_bytes=8)
        manager.watch(store)
        assert manager.enforce() == 0  # nothing evictable: built in memory
        assert store["live"].is_hydrated

    def test_serve_cli_budget_evicts_with_unchanged_answers(self, tmp_path):
        store_dir = str(tmp_path / "store")
        assert main(
            ["save", "--n", "1024", "--k", "4", "--families",
             "merging,wavelet,gks", "--shards", "2", "--store-dir", store_dir]
        ) == 0
        queries = "".join(
            f"range {name} {a} {b}\n"
            for name, a, b in [
                ("merging", 0, 100), ("wavelet", 0, 100), ("gks", 0, 100),
                ("merging", 17, 900), ("gks", 3, 1023), ("wavelet", 512, 600),
            ]
        )

        def serve(*extra):
            out = io.StringIO()
            assert serve_main(
                ["--store-dir", store_dir, *extra],
                stdin=io.StringIO(queries + "shards\nquit\n"),
                stdout=out,
            ) == 0
            lines = out.getvalue().splitlines()
            # The banner, one answer per query, then the shards report.
            return lines[1:7], lines[7:]

        budget = 200
        answers, report = serve("--max-resident-bytes", str(budget))
        unbudgeted, _ = serve()
        assert answers == unbudgeted
        assert not any(line.startswith("error") for line in answers)
        residency = re.fullmatch(
            r"residency: budget=(\d+)B resident=(\d+)B evictions=(\d+)",
            report[-1],
        )
        assert residency is not None, report
        assert int(residency[1]) == budget
        assert int(residency[2]) <= budget
        assert int(residency[3]) >= 1


# --------------------------------------------------------------------- #
# Cohort persistence and schema compatibility
# --------------------------------------------------------------------- #


class TestCohortPersistence:
    def test_mmap_schema_bump_only_with_cohorts(self, tmp_path):
        named = fleet_signals(4, seed=2)
        plain = SynopsisStore()
        plain.register_many(named, BuildBudget(max_bytes=400))
        plain.save(tmp_path / "plain")
        assert read_manifest(tmp_path / "plain")["schema"] == MMAP_SCHEMA_VERSION

        withc = SynopsisStore()
        withc.register_many(named, BuildBudget(max_bytes=400), cohort="fleet")
        withc.save(tmp_path / "cohorts")
        manifest = read_manifest(tmp_path / "cohorts")
        assert manifest["schema"] == STORE_SCHEMA_VERSION
        assert manifest["cohorts"] == {"fleet": [n for n, _ in named]}

        loaded = load_store(tmp_path / "cohorts", lazy=True)
        assert loaded.cohorts() == {"fleet": tuple(n for n, _ in named)}
        value, versions = QueryEngine(loaded).group_range_sum("fleet", 0, 20)
        member_wise = sum(
            QueryEngine(loaded).range_sum(n, 0, 20) for n, _ in named
        )
        assert value == member_wise

    def test_npz_layout_keeps_schema_with_additive_cohorts(self, tmp_path):
        named = fleet_signals(3, seed=4)
        store = SynopsisStore()
        store.register_many(named, BuildBudget(max_bytes=400), cohort="fleet")
        store.save(tmp_path / "npz", layout="npz")
        manifest = read_manifest(tmp_path / "npz")
        assert manifest["schema"] == 3  # npz stays additive
        assert manifest["cohorts"] == {"fleet": [n for n, _ in named]}
        loaded = load_store(tmp_path / "npz")
        assert loaded.cohorts() == {"fleet": tuple(n for n, _ in named)}

    def test_sharded_cohorts_round_trip(self, tmp_path):
        router = ShardRouter(num_shards=3)
        named = fleet_signals(9, seed=6)
        router.register_many(named, BuildBudget(max_bytes=400), cohort="fleet")
        save_sharded(router, tmp_path / "sharded")
        manifest = read_sharded_manifest(tmp_path / "sharded")
        assert manifest["schema"] == SHARDED_SCHEMA_VERSION
        assert manifest["cohorts"] == {"fleet": [n for n, _ in named]}

        loaded = ShardRouter.load(tmp_path / "sharded")
        assert loaded.cohorts() == {"fleet": tuple(n for n, _ in named)}
        want, _ = router.group_range_sum("fleet", 2, 30)
        got, versions = loaded.group_range_sum("fleet", 2, 30)
        assert got == want
        assert set(versions) == {n for n, _ in named}

    def test_cohort_membership_pruned_on_save_after_remove(self, tmp_path):
        named = fleet_signals(3, seed=8)
        store = SynopsisStore()
        store.register_many(named, BuildBudget(max_bytes=400), cohort="fleet")
        store.remove(named[0][0])
        store.save(tmp_path / "pruned")
        loaded = load_store(tmp_path / "pruned")
        assert loaded.cohorts() == {
            "fleet": tuple(n for n, _ in named[1:])
        }


# --------------------------------------------------------------------- #
# Duplicate registration (the unified error message)
# --------------------------------------------------------------------- #


class TestDuplicateRegistration:
    def test_store_register_auto_names_the_entry(self):
        store = SynopsisStore()
        store.register_auto("taken", np.ones(32), BuildBudget(max_bytes=400))
        with pytest.raises(ValueError) as excinfo:
            store.register_auto(
                "taken", np.ones(32), BuildBudget(max_bytes=400)
            )
        assert str(excinfo.value) == duplicate_entry_message("taken")
        assert "'taken'" in str(excinfo.value)

    def test_router_register_auto_matches_store_message(self):
        router = ShardRouter(num_shards=2)
        router.register_auto("taken", np.ones(32), BuildBudget(max_bytes=400))
        with pytest.raises(ValueError) as excinfo:
            router.register_auto(
                "taken", np.ones(32), BuildBudget(max_bytes=400)
            )
        assert str(excinfo.value) == duplicate_entry_message("taken")

    def test_register_many_rejects_existing_name_before_building(self):
        store = SynopsisStore()
        store.register("taken", np.ones(32), family="merging", k=2)
        with pytest.raises(ValueError, match="already registered"):
            store.register_many(
                [("fresh", np.ones(32)), ("taken", np.ones(32))],
                BuildBudget(max_bytes=400),
            )
        assert "fresh" not in store.names()  # nothing partially installed

        router = ShardRouter(num_shards=2)
        router.register("taken", np.ones(32), family="merging", k=2)
        with pytest.raises(ValueError) as excinfo:
            router.register_many(
                [("taken", np.ones(32))], BuildBudget(max_bytes=400)
            )
        assert str(excinfo.value) == duplicate_entry_message("taken")
