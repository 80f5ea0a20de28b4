"""Fleet-scale serving: bulk cohort registration, group-by queries, and
tiered residency under a memory budget.

The load-bearing properties:

* ``register_many`` is *bit-identical* to the per-entry ``register_auto``
  loop (plan, payload, version) — amortizing one plan over a cohort must
  never change what gets built (Hypothesis, plain and sharded).
* Group-by answers are *exact*: byte for byte the member-order reduction
  of the members' own ``PrefixTable`` answers, for any mix of synopsis
  families, carrying per-member snapshot versions (Hypothesis, engine and
  1-3-shard router).  The reference reduction lives here, in
  ``member_order_sum`` / ``member_order_top_k``.
* One cohort registry, held by a store and by a router alike, caches one
  cohort table per named cohort: warm group queries build no table and
  leave the engines' hit/miss counters untouched, and a member's new version
  triggers exactly one rebuild.  A cohort never names a removed entry,
  not even when the removal races a definition.
* The cohort state machine (``CohortMachine``) runs random register,
  register_many, remove, define_cohort, migrate, reshard, save-load,
  group-query and front-end batch sequences against a store with an
  engine and 1- and 2-shard routers, checked against a model after every
  step.
* A ``ResidencyManager`` budget bounds resident payload bytes while every
  answer stays correct — cooled entries re-hydrate transparently.
* Cohort definitions persist, and every save stamps the current schema.
  A cohort's members share one plan by reference, written once per
  segment in its plan table, and reload sharing it again.
"""

from __future__ import annotations

import io
import itertools
import json
import re
import shutil
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from helpers import positive_dense_arrays
from repro import (
    BuildBudget,
    QueryEngine,
    ResidencyManager,
    ShardRouter,
    SparseFunction,
    StreamingHistogramLearner,
    SynopsisStore,
    build_synopsis,
)
from repro.__main__ import main
from repro.obs import get_default_registry
from repro.serve import cohorts as cohorts_module
from repro.serve import planner as planner_module
from repro.serve import (
    GROUP_QUERY_KINDS,
    SYNOPSIS_FAMILIES,
    AsyncServingFrontend,
    CohortTable,
    PrefixTable,
    QueryRequest,
    duplicate_entry_message,
    synopsis_to_dict,
)
from repro.serve.persistence import (
    SHARDED_SCHEMA_VERSION,
    STORE_SCHEMA_VERSION,
    load_store,
    read_manifest,
    read_sharded_manifest,
    save_sharded,
)
from repro.serve.cli import serve_main

FIXTURES = Path(__file__).resolve().parent / "fixtures"

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


def member_order_sum(tables, a, b):
    """The reference group range sum: every member's own
    ``PrefixTable.range_sum``, added one member at a time in member order."""
    total = tables[0].range_sum(a, b)
    for table in tables[1:]:
        total = total + table.range_sum(a, b)
    return total


def member_order_mean(tables, a, b):
    """The reference pooled mean: the group sum over the range length."""
    sums = member_order_sum(tables, a, b)
    lengths = np.asarray(b, dtype=np.int64) - np.asarray(a, dtype=np.int64) + 1
    out = sums / lengths.astype(np.float64)
    return float(out) if np.ndim(a) == 0 and np.ndim(b) == 0 else out


def member_order_top_k(tables, m):
    """The reference group top-k: member-order masses over the merged
    partition, ranked by a stable argsort."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    n = tables[0].n
    for table in tables[1:]:
        if table.n != n:
            raise ValueError(
                f"group top-k needs matching domains, got n={n} and n={table.n}"
            )
    lefts = np.unique(np.concatenate([table.prefix.lefts for table in tables]))
    rights = np.append(lefts[1:] - 1, n - 1)
    masses = member_order_sum(tables, lefts, rights)
    order = np.argsort(-masses, kind="stable")[:m]
    return [(int(lefts[u]), int(rights[u]), float(masses[u])) for u in order]


def reference_group(fetch, members, kind, *args):
    """One group query answered member by member: ``(value, versions)``.

    ``fetch(name)`` returns a member's ``(version, PrefixTable)``, as the
    engines' ``table_versioned`` does; errors surface where they would
    when each member is fetched and evaluated in member order.
    """
    if not members:
        raise ValueError("group queries need at least one member")
    tables, versions = [], {}
    for name in members:
        version, table = fetch(name)
        tables.append(table)
        versions[name] = version
    if kind == "group_top_k":
        return member_order_top_k(tables, int(args[0])), versions
    if kind == "group_range_sum":
        return member_order_sum(tables, *args), versions
    return member_order_mean(tables, *args), versions


def _exact(value):
    """A value as comparable bytes: dtype, shape and bits of arrays, the
    type and bits of scalars, every field of a top-k list."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, list):
        return [tuple(_exact(field) for field in item) for item in value]
    if isinstance(value, float):
        return (float, np.float64(value).tobytes())
    return (type(value), value)


def outcome(call):
    """``call()``'s ``(value, versions)`` as exact bytes with the versions
    in member order, or the type and message of what it raised."""
    try:
        value, versions = call()
    except Exception as exc:  # compared, not swallowed: see the asserts
        return ("error", type(exc), str(exc))
    return ("ok", _exact(value), list(versions.items()))


@st.composite
def group_ranges(draw, n):
    """``(a, b)`` for a group range query on ``[0, n)``: Python and NumPy
    scalars, single-range and multi-range batches, a scalar against an
    array, a 2-D grid; about one in five may be out of range or inverted."""
    form = draw(st.sampled_from(["int", "numpy", "single", "batch", "mixed", "grid"]))
    valid = draw(st.integers(0, 4)) > 0
    size = {"single": 1, "grid": 6}.get(form, draw(st.integers(2, 8)))
    point = st.integers(0, n - 1) if valid else st.integers(-1, n)
    pairs = draw(st.lists(st.tuples(point, point), min_size=size, max_size=size))
    if valid:
        pairs = [(min(x, y), max(x, y)) for x, y in pairs]
    a = np.array([x for x, _ in pairs], dtype=np.int64)
    b = np.array([y for _, y in pairs], dtype=np.int64)
    if form == "int":
        return int(a[0]), int(b[0])
    if form == "numpy":
        return a[0], b[0]
    if form == "mixed":
        return (int(a.min()) if valid else int(a[0])), b
    if form == "grid":
        return a.reshape(2, 3), b.reshape(2, 3)
    return a, b


class TestGroupExactness:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_group_answers_equal_member_order_reduction(self, data):
        """1-40 members of every family on one shared n (polynomial
        coefficient rows mixed with histogram ones), answered through
        QueryEngine and a 1-3-shard router, by named cohort (built, then
        cached) and by member list: value and value type byte for byte,
        ``{member: version}`` in member order, and every error's type and
        message equal the member-order reference.  The member lists also
        hit an unknown member, a member on another domain and the empty
        list, and the evaluation runs in one pass or in many."""
        per_pass = data.draw(
            st.sampled_from([1, 7, 64, cohorts_module._PAIRS_PER_PASS]),
            label="pairs per pass",
        )
        default = cohorts_module._PAIRS_PER_PASS
        cohorts_module._PAIRS_PER_PASS = per_pass
        try:
            self._check_group_answers(data)
        finally:
            cohorts_module._PAIRS_PER_PASS = default

    @staticmethod
    def _check_group_answers(data):
        n = data.draw(st.integers(1, 48), label="n")
        families = data.draw(
            st.lists(st.sampled_from(SYNOPSIS_FAMILIES), min_size=1, max_size=40),
            label="families",
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        store = SynopsisStore()
        router = ShardRouter(num_shards=data.draw(st.integers(1, 3), label="shards"))

        def register(name, values, family, k):
            for target in (store, router):
                target.register(name, values, family=family, k=k)

        names = []
        for i, family in enumerate(families):
            values = rng.normal(rng.uniform(-1.0, 3.0), rng.uniform(0.1, 3.0), n)
            values[rng.random(n) < rng.uniform(0.0, 0.5)] = 0.0
            names.append(f"m{i:02d}")
            register(names[-1], values, family, int(rng.integers(1, 5)))
        register("odd", rng.uniform(0.5, 2.0, n + 3), "merging", 2)
        store.define_cohort("cohort", names)
        router.define_cohort("cohort", names)
        engine = QueryEngine(store)
        surfaces = [
            (engine, store.resolve_members, engine.table_versioned),
            (router, router.resolve_members, router.table_versioned),
        ]

        targets = st.one_of(
            st.just("cohort"),
            st.lists(st.sampled_from(names + ["odd", "ghost"]), max_size=6),
        )
        for _ in range(data.draw(st.integers(1, 4), label="queries")):
            kind = data.draw(st.sampled_from(GROUP_QUERY_KINDS))
            target = data.draw(targets)
            if kind == "group_top_k":
                args = (data.draw(st.integers(-1, n + 2), label="m"),)
            else:
                args = data.draw(group_ranges(n), label="ranges")
            for surface, resolve, fetch in surfaces:
                want = outcome(
                    lambda: reference_group(fetch, resolve(target), kind, *args)
                )
                # Twice: a named cohort is built, then answered from cache.
                for _ in range(2):
                    got = outcome(lambda: getattr(surface, kind)(target, *args))
                    assert got == want, (type(surface).__name__, kind, target, args)

    def test_single_range_sums_add_members_in_order(self):
        """A one-range batch or a scalar range leaves one value per member
        to add, where a pairwise sum (``np.add.reduce`` over the member
        axis) rounds differently from the member-order one."""
        rng = np.random.default_rng(5)
        router = ShardRouter(num_shards=2)
        names = [f"s{i:02d}" for i in range(40)]
        for i, name in enumerate(names):
            family = SYNOPSIS_FAMILIES[i % len(SYNOPSIS_FAMILIES)]
            router.register(name, rng.normal(1.0, 2.0, 48), family=family, k=3)
        router.define_cohort("all", names)
        tables = [router.table_versioned(name)[1] for name in names]
        for a, b in np.sort(rng.integers(0, 48, (100, 2)), axis=1):
            scalar, _ = router.group_range_sum("all", int(a), int(b))
            assert _exact(scalar) == _exact(member_order_sum(tables, int(a), int(b)))
            single, _ = router.group_range_sum("all", [a], [b])
            assert single.tobytes() == member_order_sum(tables, [a], [b]).tobytes()


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

    def test_registry_does_not_grow_with_the_fleet(self):
        """Every read path, and a remove, mint the same registry series on
        a 40-entry and a 400-entry router: no series names an entry."""

        def series_after_reads(count):
            router = ShardRouter(num_shards=2)
            named = fleet_signals(count, seed=8)
            router.register_many(named, BuildBudget(max_bytes=400), cohort="fleet")
            names = [name for name, _ in named[:6]]
            a, b = np.array([0, 5, 12]), np.array([30, 47, 12])
            batch = [QueryRequest("range_sum", name, (2, 40)) for name in names]
            batch += [
                QueryRequest("cdf", names[0], (7,)),
                QueryRequest("quantile", names[1], (0.5,)),
                QueryRequest("point_mass", names[2], (3,)),
                QueryRequest("range_mean", names[3], (a, b)),
                QueryRequest("quantile", names[4], (np.array([0.1, 0.9]),)),
                QueryRequest("top_k", names[5], (2,)),
                QueryRequest("group_range_sum", "fleet", (0, 47)),
                QueryRequest("group_top_k", "fleet", (3,)),
            ]
            with AsyncServingFrontend(router) as frontend:
                assert all(result.ok for result in frontend.serve(batch))
            engine = router.shard_of(names[0]).engine
            engine.range_sum(names[0], 0, 10)
            engine.quantile(names[0], 0.5)
            router.cdf(names[1], 20)
            router.group_range_mean("fleet", 3, 9)
            router.warm()
            router.remove(names[5])
            return [
                (metric, sorted(labels.items()))
                for metric, labels, _ in router.registry.collect()
            ]

        small, large = series_after_reads(40), series_after_reads(400)
        assert len(small) == len(large)
        assert small == large

    def test_group_rejects_unknown_member_and_empty_set(self):
        store = SynopsisStore()
        store.register("a", np.ones(16), family="merging", k=2)
        engine = QueryEngine(store)
        with pytest.raises(KeyError):
            engine.group_range_sum(["a", "ghost"], 0, 5)
        with pytest.raises(ValueError):
            engine.group_range_sum([], 0, 5)
        # The same on a router, plus the other bad inputs, on both.
        router = ShardRouter(num_shards=2)
        for target in (store, router):
            target.register("a", np.arange(1.0, 17.0), family="merging", k=2)
            target.register("b", np.ones(16), family="poly", k=2)
            target.register("wide", np.ones(20), family="merging", k=1)
        for group in (engine, router):
            with pytest.raises(KeyError, match="ghost"):
                group.group_top_k(["a", "ghost"], 2)
            with pytest.raises(ValueError, match="at least one member"):
                group.group_range_sum([], 0, 5)
            with pytest.raises(ValueError, match=r"0 <= a <= b < 20$"):
                group.group_range_mean(["wide", "a"], 5, 2)
            with pytest.raises(ValueError, match=r"0 <= a <= b < 16$"):
                group.group_range_sum("a,b", [3, 4], [2, 9])
            with pytest.raises(ValueError, match=r"0 <= a <= b < 16$"):
                group.group_range_sum(["wide", "a"], 0, 17)
            with pytest.raises(ValueError, match="m must be >= 1"):
                group.group_top_k(["a", "b"], 0)
            with pytest.raises(ValueError, match="got n=16 and n=20"):
                group.group_top_k(["a", "b", "wide"], 2)
            # A member listed twice would count its mass twice against a
            # version dict that lists it once.
            for twice in (["a", "b", "a"], "a, b,a"):
                with pytest.raises(ValueError, match="'a' is listed more than once"):
                    group.group_range_sum(twice, 0, 15)
            value, versions = group.group_range_sum(["wide", "a"], 0, 15)
            assert type(value) is float
            assert list(versions) == ["wide", "a"]
        for target in (store, router):
            with pytest.raises(ValueError, match="'b' is listed more than once"):
                target.define_cohort("dup", ["b", "a", "b"])
            assert "dup" not in target.cohorts()
            # A bare string is no member list: iterated, "ab" is a and b.
            with pytest.raises(TypeError, match="needs a list of entry names"):
                target.define_cohort("chars", "ab")
            assert "chars" not in target.cohorts()


# --------------------------------------------------------------------- #
# The router's cohort-table cache
# --------------------------------------------------------------------- #


def count_calls(monkeypatch, owner, attr):
    """Count calls of ``owner.attr`` (a classmethod or plain method)."""
    calls = [0]
    original = owner.__dict__[attr]
    function = original.__func__ if isinstance(original, classmethod) else original

    def counting(*args, **kwargs):
        calls[0] += 1
        return function(*args, **kwargs)

    wrapped = classmethod(counting) if isinstance(original, classmethod) else counting
    monkeypatch.setattr(owner, attr, wrapped)
    return calls


def engine_counters(router):
    return [shard.engine.cache_info() for shard in router.shards]


@pytest.fixture
def cohort_router():
    """Two shards serving a 100-member cohort."""
    router = ShardRouter(num_shards=2)
    named = fleet_signals(100, seed=21)
    router.register_many(named, BuildBudget(max_bytes=400), cohort="fleet")
    return router, [name for name, _ in named]


class TestCohortTableCache:
    def test_warm_queries_build_nothing_and_keep_hot_tables(
        self, cohort_router, monkeypatch
    ):
        router, names = cohort_router
        builds = count_calls(monkeypatch, PrefixTable, "from_synopsis")
        router.group_range_sum("fleet", 0, 47)
        assert builds[0] == 100  # the first query stacks every member once
        hot = names[0]
        router.range_sum(hot, 0, 10)
        built, counters = builds[0], engine_counters(router)
        for _ in range(3):
            router.group_range_sum("fleet", [0, 5], [10, 47])
            router.group_range_mean("fleet", 3, 9)
            router.group_top_k("fleet", 4)
        assert builds[0] == built
        assert engine_counters(router) == counters
        hits = router.cache_info()["hits"]
        router.range_sum(hot, 0, 10)
        assert router.cache_info()["hits"] == hits + 1
        assert router[hot].table is not None
        assert builds[0] == built

    def test_new_member_version_rebuilds_once(self, cohort_router, monkeypatch):
        router, names = cohort_router
        router.group_top_k("fleet", 3)
        rebuilds = count_calls(monkeypatch, CohortTable, "__init__")
        builds = count_calls(monkeypatch, PrefixTable, "from_synopsis")
        member = names[37]
        router.register(member, np.linspace(1.0, 3.0, 48), family="merging", k=4)
        a, b = np.array([0, 12, 40]), np.array([30, 47, 40])
        value, versions = router.group_range_sum("fleet", a, b)
        assert (rebuilds[0], builds[0]) == (1, 1)  # only the new version
        assert list(versions) == names
        assert versions[member] == 1
        assert all(versions[name] == 0 for name in names if name != member)
        tables = [router.table_versioned(name)[1] for name in names]
        assert value.tobytes() == member_order_sum(tables, a, b).tobytes()
        top, _ = router.group_top_k("fleet", 5)
        assert top == member_order_top_k(tables, 5)
        assert router.group_range_sum("fleet", 3, 9)[0] == member_order_sum(
            tables, 3, 9
        )
        assert rebuilds[0] == 1

    def test_engine_warm_named_cohort_builds_nothing(self, monkeypatch):
        """The single-store engine caches through the same registry: a
        250-member cohort is stacked once, then answered with no table
        built."""
        store = SynopsisStore()
        named = fleet_signals(250, seed=4)
        store.register_many(named, BuildBudget(max_bytes=400), cohort="fleet")
        engine = QueryEngine(store)
        builds = count_calls(monkeypatch, PrefixTable, "from_synopsis")
        first = engine.group_range_sum("fleet", 0, 47)
        assert builds[0] == 250
        for _ in range(3):
            assert engine.group_range_sum("fleet", 0, 47) == first
        assert builds[0] == 250
        store.register(named[7][0], np.ones(48), family="merging", k=2)
        value, versions = engine.group_range_sum("fleet", 0, 47)
        assert builds[0] == 251  # only the member whose version moved
        assert versions[named[7][0]] == 1
        tables = [engine.table_versioned(name)[1] for name, _ in named]
        assert value == member_order_sum(tables, 0, 47)

    def test_slots_never_exceed_defined_cohorts(self, cohort_router):
        router, names = cohort_router

        def query_all():
            for cohort in router.cohorts():
                router.group_top_k(cohort, 2)
            assert len(router._cohorts._tables) <= len(router.cohorts())

        router.define_cohort("head", names[:10])
        query_all()
        assert set(router._cohorts._tables) == {"fleet", "head"}
        router.remove(names[0])  # both cohorts lose a member
        assert len(router._cohorts._tables) <= len(router.cohorts())
        query_all()
        router.define_cohort("head", names[20:25])
        assert "head" not in router._cohorts._tables
        value, versions = router.group_range_sum("head", 0, 47)
        assert list(versions) == names[20:25]
        tables = [router.table_versioned(name)[1] for name in names[20:25]]
        assert value == member_order_sum(tables, 0, 47)
        for name in names[20:25]:
            router.remove(name)
        assert "head" not in router.cohorts()
        assert set(router._cohorts._tables) <= {"fleet"}
        router.group_range_sum(names[30:33], 0, 5)  # ad-hoc lists get no slot
        router.group_range_sum(",".join(names[30:33]), 0, 5)
        query_all()
        assert set(router._cohorts._tables) == {"fleet"}

    def test_define_racing_remove_never_names_removed_entry(self, monkeypatch):
        """``remove("a")`` lands between ``define_cohort``'s membership
        check of "a" and its insert: the cohort must not end up naming
        the removed entry."""
        router = ShardRouter(num_shards=2)
        for name in ("a", "b"):
            router.register(name, np.arange(1.0, 49.0), family="merging", k=4)
        store_a = router.shard_of("a").store
        removed = threading.Event()
        remove_a = store_a.remove

        def remove_and_signal(name):
            remove_a(name)
            removed.set()

        monkeypatch.setattr(store_a, "remove", remove_and_signal)
        remover = threading.Thread(target=router.remove, args=("a",))
        contains = SynopsisStore.__contains__
        started = []

        def contains_then_remove(store, name):
            found = contains(store, name)
            if name == "a" and not started:
                # "a" has been found; remove it before define inserts.
                started.append(True)
                remover.start()
                assert removed.wait(timeout=10)
            return found

        monkeypatch.setattr(SynopsisStore, "__contains__", contains_then_remove)
        router.define_cohort("c", ["a", "b"])
        remover.join(timeout=10)
        assert not remover.is_alive()
        assert "a" not in router
        assert router.cohorts() == {"c": ("b",)}
        value, versions = router.group_range_sum("c", 0, 47)
        assert (value, versions) == (router.range_sum("b", 0, 47), {"b": 0})

    def test_answers_match_reference_at_reported_versions_under_refresh(self):
        router = ShardRouter(num_shards=2)
        static = fleet_signals(6, seed=5)
        for name, values in static:
            router.register(name, values, family="merging", k=3)
        rng = np.random.default_rng(0)
        learner = StreamingHistogramLearner(n=48, k=3)
        learner.extend(rng.integers(0, 48, 300))
        router.register_stream("live", learner)
        members = [name for name, _ in static[:3]] + ["live"] + [
            name for name, _ in static[3:]
        ]
        router.define_cohort("mixed", members)
        synopses = {
            name: dict([router.shard_of(name).store.snapshot(name)])
            for name in members
        }
        a, b = np.array([0, 7, 20]), np.array([47, 7, 33])
        answers, errors = [], []
        done = threading.Event()

        def write():
            try:
                for _ in range(40):
                    router.extend("live", rng.integers(0, 48, 50))
                    router.refresh("live")
                    version, synopsis = router.shard_of("live").store.snapshot("live")
                    synopses["live"][version] = synopsis
            except Exception as exc:  # reported by the main thread
                errors.append(exc)
            finally:
                done.set()

        def read():
            try:
                while not done.is_set():
                    answers.append(("sum",) + router.group_range_sum("mixed", a, b))
                    answers.append(("top",) + router.group_top_k("mixed", 3))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=write)] + [
                threading.Thread(target=read) for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        last = max(synopses["live"])
        answers.append(("sum",) + router.group_range_sum("mixed", a, b))
        assert answers[-1][2]["live"] == last
        for kind, value, versions in answers:
            assert list(versions) == members
            tables = [
                PrefixTable.from_synopsis(synopses[name][versions[name]])
                for name in members
            ]
            if kind == "sum":
                assert value.tobytes() == member_order_sum(tables, a, b).tobytes()
            else:
                assert value == member_order_top_k(tables, 3)


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
        served = QueryEngine(loaded)

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
    def test_schema_stamp_does_not_depend_on_cohorts(self, tmp_path):
        named = fleet_signals(4, seed=2)
        plain = SynopsisStore()
        plain.register_many(named, BuildBudget(max_bytes=400))
        plain.save(tmp_path / "plain")
        assert read_manifest(tmp_path / "plain")["schema"] == STORE_SCHEMA_VERSION

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
        # Cohorts were an additive key in the schema-3 npz layout: a copy
        # of the frozen golden given one loads it.
        path = tmp_path / "npz"
        shutil.copytree(FIXTURES / "golden_store", path)
        members = ["merging", "wavelet", "exact"]
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["cohorts"] = {"fleet": members}
        (path / "manifest.json").write_text(json.dumps(manifest))
        manifest = read_manifest(path)
        assert manifest["schema"] == 3
        assert manifest["cohorts"] == {"fleet": members}
        loaded = load_store(path)
        assert loaded.cohorts() == {"fleet": tuple(members)}

    @pytest.mark.parametrize("num_shards", [3, 1])
    def test_reshard_keeps_router_cohorts(self, tmp_path, num_shards):
        router = ShardRouter(num_shards=2)
        named = fleet_signals(4, seed=10)
        router.register_many(named, BuildBudget(max_bytes=400))
        router.define_cohort("all", [name for name, _ in named])
        a, b = np.array([0, 3, 20]), np.array([5, 47, 20])
        want_sum = router.group_range_sum("all", a, b)
        want_top = router.group_top_k("all", 3)

        new = router.reshard(num_shards)
        assert new.cohorts() == router.cohorts()
        assert not new._cohorts._tables  # built afresh on first query
        got_sum = new.group_range_sum("all", a, b)
        assert got_sum[0].tobytes() == want_sum[0].tobytes()
        assert got_sum[1] == want_sum[1]
        assert new.group_top_k("all", 3) == want_top

        new.save(tmp_path / "resharded")
        loaded = ShardRouter.load(tmp_path / "resharded")
        assert loaded.cohorts() == router.cohorts()
        got_sum = loaded.group_range_sum("all", a, b)
        assert got_sum[0].tobytes() == want_sum[0].tobytes()
        assert got_sum[1] == want_sum[1]

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


# --------------------------------------------------------------------- #
# One plan per cohort: shared in memory, one plan-table row per segment
# --------------------------------------------------------------------- #


def shared_candidates(plan):
    """The identities of every candidate but the chosen one."""
    return tuple(
        id(candidate)
        for index, candidate in enumerate(plan.candidates)
        if index != plan.chosen_index
    )


class TestSharedPlans:
    def assert_one_row_per_shared_plan(self, router, path):
        for shard in router.shards:
            shard_dir = path / f"shard-{shard.index:04d}"
            for segment in read_manifest(shard_dir)["segments"]:
                doc = json.loads((shard_dir / segment["manifest"]).read_text())
                plans = [shard.store[name].plan for name in segment["names"]]
                shared = {shared_candidates(p) for p in plans if p is not None}
                assert len(doc["plans"]) == len(shared)

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_mixed_store_plans_round_trip(self, tmp_path, monkeypatch, num_shards):
        probes = []
        plan_build = planner_module.plan_build

        def recording_plan_build(*args, **kwargs):
            plan = plan_build(*args, **kwargs)
            probes.append((plan, plan.to_dict()))
            return plan

        monkeypatch.setattr(planner_module, "plan_build", recording_plan_build)
        # As in test_plan_reuse_and_escalation_counters: the flat members
        # ride the representative's lossless plan, the noisy one escalates.
        flat = np.full(64, 3.0)
        rng = np.random.default_rng(3)
        noise = np.abs(rng.normal(2.0, 1.0, 64)) + 0.01
        members = [(f"flat{i}", flat * (1.0 + i / 8)) for i in range(6)]
        members.insert(3, ("noise", noise))
        router = ShardRouter(num_shards=num_shards)
        router.register_many(
            members,
            BuildBudget(max_bytes=300),
            cohort="fleet",
            families=("exact", "merging"),
        )
        (rep, rep_record), (escalated, escalated_record) = probes
        assert router["flat0"].plan is rep
        assert router["noise"].plan is escalated
        assert rep.to_dict() == rep_record
        assert escalated.to_dict() == escalated_record
        for name, _ in members:
            plan = router[name].plan
            if name in ("flat0", "noise"):
                continue
            # The representative's other candidates, the very objects.
            assert shared_candidates(plan) == shared_candidates(rep)
            assert plan.chosen is not rep.chosen
            assert plan.chosen.nbytes == router[name].result.stored_numbers * 8

        router.register_auto("solo", noise[::-1].copy(), BuildBudget(max_bytes=200))
        learner = StreamingHistogramLearner(n=64, k=4)
        learner.extend(rng.integers(0, 64, 400))
        live = router.register_stream_auto(
            "live", learner, BuildBudget(max_bytes=400), families=("merging", "wavelet")
        )
        # A forced refresh keeps the plan, so the plan is older than the
        # result it now sits beside.
        router.refresh("live")
        assert router["live"].plan is live.plan
        assert router["live"].version == 1

        router = router.reshard(num_shards + 1)
        router.migrate(["flat2", "noise", "solo"], num_shards)
        router = router.reshard(num_shards)

        want = {name: plan_record(router[name]) for name in router.names()}
        assert sum(record is not None for record in want.values()) == 9
        first, second = tmp_path / "first", tmp_path / "second"
        router.save(first)
        self.assert_one_row_per_shared_plan(router, first)
        loaded = ShardRouter.load(first)
        assert {name: plan_record(loaded[name]) for name in want} == want
        loaded.save(second)
        self.assert_one_row_per_shared_plan(loaded, second)
        again = ShardRouter.load(second)
        assert {name: plan_record(again[name]) for name in want} == want
        for shard in again.shards:
            reused = {
                shared_candidates(shard.store[name].plan)
                for name in shard.store.names()
                if name.startswith("flat")
            }
            assert len(reused) <= 1  # one plan per cohort per segment
        if num_shards == 1:
            doc = json.loads((second / "shard-0000" / "segment-0000.json").read_text())
            assert len(doc["plans"]) == 4  # cohort, escalation, solo, live


# --------------------------------------------------------------------- #
# The cohort state machine
# --------------------------------------------------------------------- #

MACHINE_N = 24
MACHINE_NAMES = ("a", "b", "c", "d", "e")
#: The machine's one streaming entry, registered, extended and refreshed
#: by its own rules; it may join cohorts, move and be removed like any.
MACHINE_STREAM = "s"
MACHINE_LIVE = MACHINE_NAMES + (MACHINE_STREAM,)
MACHINE_STREAM_K = 3
MACHINE_COHORTS = ("g1", "g2")
MACHINE_BUDGET = BuildBudget(max_bytes=400)
#: What a save-and-load asks of every cohort before and after.
MACHINE_COHORT_QUERIES = (
    ("group_range_sum", (np.array([0, 5, 11]), np.array([MACHINE_N - 1, 5, 20]))),
    ("group_top_k", (3,)),
)


def machine_values(seed):
    """A mixed-sign series on the machine's one domain."""
    rng = np.random.default_rng(seed)
    return rng.normal(rng.uniform(-0.5, 2.0), rng.uniform(0.2, 2.0), MACHINE_N)


def stream_samples(seed, size):
    """A sample batch whose mass sits in a random tail of the domain."""
    rng = np.random.default_rng(seed)
    return rng.integers(rng.integers(0, MACHINE_N - 1), MACHINE_N, size)


def stream_dense(counts):
    """The reconstruction a streaming entry must serve after a build from
    sample ``counts``: merging over their empirical distribution."""
    positions = np.flatnonzero(counts)
    empirical = SparseFunction(
        MACHINE_N, positions, counts[positions] / counts.sum()
    )
    return build_synopsis(empirical, "merging", MACHINE_STREAM_K).synopsis.to_dense()


def draw_ranges(data):
    """Closed ranges on the machine's domain: scalars or 1-D arrays."""
    points = st.integers(0, MACHINE_N - 1)
    pairs = data.draw(st.lists(st.tuples(points, points), min_size=1, max_size=3))
    a, b = np.sort(np.array(pairs), axis=1).T
    return (a, b) if data.draw(st.booleans()) else (int(a[0]), int(b[0]))


def plan_record(entry):
    """An entry's decision record as a dict, None when not auto-planned."""
    return None if entry.plan is None else entry.plan.to_dict()


def brute_force_sum(dense, a, b):
    """``sum_{i in [a, b]}`` straight off a dense reconstruction."""
    prefix = np.concatenate(([0.0], np.cumsum(dense)))
    return prefix[np.asarray(b) + 1] - prefix[np.asarray(a)]


#: The kinds of a machine front-end batch besides its group request.
MACHINE_BATCH_KINDS = (
    "range_sum", "range_mean", "point_mass", "cdf", "quantile",
    "top_k", "inner_product", "heavy_hitters",
)


@st.composite
def machine_args(draw, kind, names):
    """Scalar or 1-D arguments of one ``kind`` request to the machine:
    now and then a row is out of range, not an integer or a NaN level."""
    if kind == "top_k":
        return (draw(st.integers(1, 6)),)
    if kind == "inner_product":
        return (draw(st.sampled_from(names)),)
    if kind == "heavy_hitters":
        return (draw(st.sampled_from([0.1, 0.3])),)
    point = st.integers(0, MACHINE_N - 1)
    bad = st.sampled_from([-1, MACHINE_N, 2.5, float("nan")])
    if kind == "quantile":
        level = st.floats(0.0, 1.0)
        row = st.tuples(st.one_of(*[level] * 5, st.sampled_from([1.5, np.nan])))
    elif kind in ("range_sum", "range_mean"):
        ordered = st.tuples(point, point).map(sorted).map(tuple)
        row = st.one_of(
            *[ordered] * 8, st.tuples(bad, point), st.tuples(point, bad)
        )
    else:
        row = st.tuples(st.one_of(*[point] * 5, bad))
    rows = draw(st.lists(row, min_size=1, max_size=3))
    if draw(st.booleans()):
        return rows[0]
    return tuple(np.array(column) for column in zip(*rows))


class CohortMachine(RuleBasedStateMachine):
    """Random register / re-register / register_many / remove /
    define_cohort / migrate / reshard / save-load / cool sequences, plus
    a streaming entry's register_stream / extend / refresh, against a
    model of dense reconstructions, versions, cohorts and stream counts.

    ``SHARDS = 0`` drives a :class:`SynopsisStore` through a
    :class:`QueryEngine`; otherwise a :class:`ShardRouter` with that many
    shards.  After every step the target's entries, versions and
    cohorts equal the model's, so no cohort names a removed entry and
    versions only grow.  Every group answer equals the member-order
    reduction of the members' own tables byte for byte, reports the
    model's ``{member: version}`` and matches brute force on the model's
    reconstructions; a reload answers every cohort identically.  Every
    single-entry answer equals a table built afresh from the entry's
    current synopsis byte for byte (so a table kept across a refresh or
    a cool fails), comes at the model's version and matches brute force.
    On a router, every result of a front-end batch equals its request
    served alone through the router.
    """

    SHARDS = 0

    def __init__(self):
        super().__init__()
        self.workdir = Path(tempfile.mkdtemp(prefix="cohort-machine-"))
        self.saves = 0
        self.dense = {}  # live name -> dense reconstruction
        self.versions = {}  # live name -> version
        self.last = {}  # name -> last version ever issued
        self.groups = {}  # cohort -> members
        # The live stream's (sample counts, samples at its last build).
        self.stream = (np.zeros(MACHINE_N, dtype=np.int64), 0)
        self.bind(
            ShardRouter(num_shards=self.SHARDS) if self.SHARDS else SynopsisStore()
        )

    def bind(self, target):
        self.target = target
        self.surface = target if self.SHARDS else QueryEngine(target)

    def teardown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def installed(self, entry):
        version = self.last.get(entry.name, -1) + 1
        assert entry.version == version
        self.last[entry.name] = self.versions[entry.name] = version
        self.dense[entry.name] = entry.synopsis.to_dense()

    def expected_error(self, members):
        """What resolving and using ``members`` must raise, or None."""
        if not members or len(set(members)) < len(members):
            return ValueError
        if any(name not in self.versions for name in members):
            return KeyError
        return None

    @initialize(seed=st.integers(0, 2**16))
    def start_with_a_cohort(self, seed):
        self.register_many("g1", list(MACHINE_NAMES[:3]), seed)

    @rule(
        name=st.sampled_from(MACHINE_NAMES),
        seed=st.integers(0, 2**16),
        family=st.sampled_from(SYNOPSIS_FAMILIES),
        k=st.integers(1, 4),
    )
    def register(self, name, seed, family, k):
        self.installed(
            self.target.register(name, machine_values(seed), family=family, k=k)
        )

    @rule(
        cohort=st.sampled_from(MACHINE_COHORTS),
        members=st.lists(
            st.sampled_from(MACHINE_NAMES), min_size=1, max_size=3, unique=True
        ),
        seed=st.integers(0, 2**16),
    )
    def register_many(self, cohort, members, seed):
        pairs = [(name, machine_values(seed + i)) for i, name in enumerate(members)]
        if any(name in self.versions for name in members):
            with pytest.raises(ValueError, match="already registered"):
                self.target.register_many(pairs, MACHINE_BUDGET, cohort=cohort)
            return
        for entry in self.target.register_many(pairs, MACHINE_BUDGET, cohort=cohort):
            self.installed(entry)
        self.groups[cohort] = tuple(members)

    @rule(seed=st.integers(0, 2**16), size=st.integers(1, 60))
    def register_stream(self, seed, size):
        samples = stream_samples(seed, size)
        learner = StreamingHistogramLearner(MACHINE_N, k=MACHINE_STREAM_K)
        learner.extend(samples)
        self.installed(self.target.register_stream(MACHINE_STREAM, learner))
        self.stream = (np.zeros(MACHINE_N, dtype=np.int64), 0)
        self.absorbed(samples, rebuilt=True)

    @precondition(lambda self: MACHINE_STREAM in self.versions)
    @rule(seed=st.integers(0, 2**16), size=st.integers(1, 60))
    def extend(self, seed, size):
        samples = stream_samples(seed, size)
        self.target.extend(MACHINE_STREAM, samples)
        self.absorbed(samples)

    @precondition(lambda self: MACHINE_STREAM in self.versions)
    @rule()
    def refresh(self):
        self.target.refresh(MACHINE_STREAM)
        self.absorbed(np.empty(0, dtype=np.int64), rebuilt=True)

    def absorbed(self, samples, rebuilt=False):
        """Fold a batch into the stream model; a build is due when forced
        or once the samples have doubled since the last one (the
        learner's refresh factor of 2)."""
        counts, built_at = self.stream
        counts = counts + np.bincount(samples, minlength=MACHINE_N)
        if rebuilt or counts.sum() >= 2 * built_at:
            if built_at:  # not the registration's own build
                version = self.versions[MACHINE_STREAM] + 1
                self.last[MACHINE_STREAM] = self.versions[MACHINE_STREAM] = version
            built_at = int(counts.sum())
            self.dense[MACHINE_STREAM] = stream_dense(counts)
        self.stream = (counts, built_at)

    @rule(name=st.sampled_from(MACHINE_LIVE))
    def cool(self, name):
        """Cool the entry on a loaded store or shard store: only an entry
        hydrated from disk cools, and it keeps no table."""
        if name not in self.versions:
            return
        store = self.target.shard_of(name).store if self.SHARDS else self.target
        entry = store[name]
        evictable = entry.evictable
        assert (store.cool(name) > 0) == evictable
        if evictable:
            assert entry.table is None and not entry.is_hydrated

    @rule(name=st.sampled_from(MACHINE_LIVE))
    def remove(self, name):
        if name not in self.versions:
            with pytest.raises(KeyError):
                self.target.remove(name)
            return
        self.target.remove(name)
        del self.versions[name], self.dense[name]
        for cohort, members in list(self.groups.items()):
            kept = tuple(member for member in members if member != name)
            if kept:
                self.groups[cohort] = kept
            else:
                del self.groups[cohort]

    @rule(
        cohort=st.sampled_from(MACHINE_COHORTS),
        members=st.lists(st.sampled_from(MACHINE_LIVE + ("ghost",)), max_size=4),
    )
    def define_cohort(self, cohort, members):
        error = self.expected_error(members)
        if error is not None:
            with pytest.raises(error):
                self.target.define_cohort(cohort, members)
            return
        self.target.define_cohort(cohort, members)
        self.groups[cohort] = tuple(members)

    @precondition(lambda self: self.SHARDS)
    @rule(name=st.sampled_from(MACHINE_LIVE), shard=st.integers(0, 2))
    def migrate(self, name, shard):
        shard %= self.target.num_shards
        if name not in self.versions:
            with pytest.raises(KeyError):
                self.target.migrate(name, shard)
            return
        self.target.migrate(name, shard)
        assert self.target.shard_map.shard_of(name) == shard

    @precondition(lambda self: self.SHARDS)
    @rule(num_shards=st.integers(1, 3))
    def reshard(self, num_shards):
        self.bind(self.target.reshard(num_shards))

    @rule()
    def save_and_load(self):
        queries = [
            (kind, args, cohort)
            for cohort in sorted(self.groups)
            for kind, args in MACHINE_COHORT_QUERIES
        ]
        reads = [(name, (0, MACHINE_N - 1)) for name in sorted(self.versions)]
        before = [self.answer(*query) for query in queries]
        sums = [self.answer_entry(name, "range_sum", args) for name, args in reads]
        plans = {name: plan_record(self.target[name]) for name in self.versions}
        path = self.workdir / f"save-{self.saves}"
        self.saves += 1
        self.target.save(path)
        self.bind(type(self.target).load(path))
        assert [self.answer(*query) for query in queries] == before
        assert [
            self.answer_entry(name, "range_sum", args) for name, args in reads
        ] == sums
        assert {name: plan_record(self.target[name]) for name in plans} == plans

    @precondition(lambda self: self.groups)
    @rule(data=st.data())
    def query_cohort(self, data):
        cohort = data.draw(st.sampled_from(sorted(self.groups)), label="cohort")
        self.answer(*self.draw_query(data), spec=cohort)

    @rule(data=st.data())
    def query_members(self, data):
        live = st.lists(
            st.sampled_from(sorted(self.versions) or ["ghost"]),
            min_size=1,
            max_size=4,
            unique=True,
        )
        spec = data.draw(
            st.one_of(
                live,
                live.map(",".join),
                st.lists(st.sampled_from(MACHINE_NAMES + ("ghost",)), max_size=4),
            ),
            label="members",
        )
        self.answer(*self.draw_query(data), spec=spec)

    @staticmethod
    def draw_query(data):
        kind = data.draw(st.sampled_from(["group_range_sum", "group_top_k"]))
        if kind == "group_top_k":
            return kind, (data.draw(st.integers(1, 6), label="m"),)
        return kind, draw_ranges(data)

    @precondition(lambda self: self.SHARDS and self.versions)
    @rule(data=st.data())
    def serve_batch(self, data):
        """One front-end batch: every non-group kind with scalar and 1-D
        arguments and some bad rows, a bad range beside a good one to the
        same entry, a group request on a defined cohort (by name or as a
        comma list) and a name the model does not hold.  Each result
        equals the same request served alone through the router, at the
        model's version."""
        live = sorted(self.versions)
        absent = data.draw(
            st.sampled_from([n for n in MACHINE_LIVE + ("ghost",) if n not in live]),
            label="absent",
        )
        names = st.sampled_from(live + [absent])
        requests = [
            QueryRequest(kind, name, data.draw(machine_args(kind, live + [absent])))
            for kind in MACHINE_BATCH_KINDS
            for name in data.draw(st.lists(names, min_size=1, max_size=3))
        ]
        name = data.draw(st.sampled_from(live), label="coalesced")
        requests += [
            QueryRequest("range_sum", name, (0, MACHINE_N - 1)),
            QueryRequest("range_sum", name, (0, MACHINE_N)),
            QueryRequest("cdf", absent, (0,)),
        ]
        if self.groups:
            cohort = data.draw(st.sampled_from(sorted(self.groups)), label="cohort")
            # The cohort by name, or its members as a comma list.
            spec = data.draw(st.sampled_from([cohort, ",".join(self.groups[cohort])]))
            kind = data.draw(st.sampled_from(GROUP_QUERY_KINDS), label="group")
            args = draw_ranges(data) if kind != "group_top_k" else (
                data.draw(st.integers(1, 6), label="m"),
            )
            requests.append(QueryRequest(kind, spec, args))
        requests = data.draw(st.permutations(requests), label="batch")
        with AsyncServingFrontend(self.target) as frontend:
            results = frontend.serve(requests)
        assert [result.index for result in results] == list(range(len(requests)))
        for request, result in zip(requests, results):
            value, version, error = self.served_alone(request)
            assert (result.name, result.kind) == (request.name, request.kind)
            assert result.error == error, request
            if error is None:
                assert type(result.value) is type(value), request
                assert _exact(result.value) == _exact(value), request
                assert result.version == version, request

    def served_alone(self, request):
        """``(value, version, error)`` of ``request`` served alone through
        the router; the version is the model's.  A name the router does
        not hold fails with its shard store's message, as the front end
        words it: on 2 shards the router's own lists every shard's
        entries."""
        kind, name, args = request.kind, request.name, request.args
        try:
            if kind in GROUP_QUERY_KINDS:
                value, versions = getattr(self.target, kind)(name, *args)
                members = self.groups.get(name) or name.split(",")
                assert list(versions.items()) == [
                    (member, self.versions[member]) for member in members
                ]
                return value, versions, None
            if name not in self.versions:
                self.target.shard_of(name).store[name]
            method = "top_k_buckets" if kind == "top_k" else kind
            value = getattr(self.target, method)(name, *args)
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            return None, -1, str(exc)
        return value, self.versions[name], None

    @precondition(lambda self: self.versions)
    @rule(data=st.data())
    def query_entry(self, data):
        name = data.draw(st.sampled_from(sorted(self.versions)), label="name")
        kind = data.draw(st.sampled_from(["range_sum", "cdf", "quantile"]))
        if kind == "range_sum":
            args = draw_ranges(data)
        else:
            values = (
                st.floats(0.0, 1.0) if kind == "quantile"
                else st.integers(0, MACHINE_N - 1)
            )
            points = data.draw(st.lists(values, min_size=1, max_size=3))
            args = (np.array(points),) if data.draw(st.booleans()) else points[:1]
        self.answer_entry(name, kind, args)

    def answer_entry(self, name, kind, args):
        """Run one single-entry read and check it against a fresh table
        and the model; returns its outcome as exact bytes."""
        fresh = PrefixTable.from_synopsis(self.target[name].synopsis)
        try:
            want = getattr(fresh, kind)(*args)
        except ValueError as exc:  # no positive mass, or a non-monotone poly
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                getattr(self.surface, kind)(name, *args)
            return str(exc)
        value = getattr(self.surface, kind)(name, *args)
        assert _exact(value) == _exact(want)
        assert self.surface.table_versioned(name)[0] == self.versions[name]
        prefix = np.concatenate(([0.0], np.cumsum(self.dense[name])))
        if kind == "range_sum":
            want = brute_force_sum(self.dense[name], *args)
        elif kind == "cdf":
            want = prefix[np.asarray(args[0]) + 1] / prefix[-1]
        else:  # the first x whose prefix F(x + 1) reaches q * total
            tolerance = 1e-9 * max(1.0, np.abs(prefix).max())
            targets = np.atleast_1d(args[0]) * prefix[-1]
            for x, target in zip(np.atleast_1d(value), targets):
                assert prefix[x + 1] >= target - tolerance
                assert np.all(prefix[1 : x + 1] < target + tolerance)
            return _exact(value)
        np.testing.assert_allclose(value, want, rtol=1e-9, atol=1e-9)
        return _exact(value)

    def answer(self, kind, args, spec):
        """Run one group query and check it against the model; returns
        its outcome as exact bytes."""
        if isinstance(spec, str) and spec in self.groups:
            members = list(self.groups[spec])
        elif isinstance(spec, str):
            members = [part for part in spec.split(",") if part]
        else:
            members = list(spec)
        error = self.expected_error(members)
        if error is not None:
            with pytest.raises(error):
                getattr(self.surface, kind)(spec, *args)
            return error
        value, versions = getattr(self.surface, kind)(spec, *args)
        assert list(versions.items()) == [(m, self.versions[m]) for m in members]
        tables = [self.surface.table_versioned(m)[1] for m in members]
        dense = [self.dense[m] for m in members]
        if kind == "group_top_k":
            assert value == member_order_top_k(tables, *args)
            lefts, rights, masses = (np.array(column) for column in zip(*value))
            want = sum(brute_force_sum(d, lefts, rights) for d in dense)
        else:
            assert _exact(value) == _exact(member_order_sum(tables, *args))
            masses = value
            want = sum(brute_force_sum(d, *args) for d in dense)
        np.testing.assert_allclose(masses, want, rtol=1e-9, atol=1e-9)
        return _exact(value), list(versions.items())

    @invariant()
    def matches_model(self):
        assert self.target.cohorts() == self.groups
        assert sorted(self.target.names()) == sorted(self.versions)
        for name, version in self.versions.items():
            assert self.target[name].version == version


class OneShardCohortMachine(CohortMachine):
    SHARDS = 1


class TwoShardCohortMachine(CohortMachine):
    SHARDS = 2


MACHINE_SETTINGS = settings(max_examples=30, stateful_step_count=30, deadline=None)
TestStoreCohortMachine = CohortMachine.TestCase
TestStoreCohortMachine.settings = MACHINE_SETTINGS
TestOneShardCohortMachine = OneShardCohortMachine.TestCase
TestOneShardCohortMachine.settings = MACHINE_SETTINGS
TestTwoShardCohortMachine = TwoShardCohortMachine.TestCase
TestTwoShardCohortMachine.settings = MACHINE_SETTINGS


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
