"""Tests for sharded concurrent serving (repro.serve.router / frontend).

Covers the shard map (stable hashing, persisted assignments beating the
hash, sticky placement across remove), router/engine parity with the
unsharded pair, the async front end (request-order reassembly,
coalescing, per-request error isolation, snapshot versions, and a
Hypothesis property that every batch answers like its requests served
one at a time), sharded
persistence (parent manifest round trip bitwise-identical to the
unsharded store, golden fixture, corruption), resharding as migration,
and the concurrent refresh-while-query stress test (``-m slow``).
"""

import asyncio
import collections
import io
import json
import shutil
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AsyncServingFrontend,
    QueryEngine,
    QueryRequest,
    ShardMap,
    ShardRouter,
    StoreCorruptionError,
    StreamingHistogramLearner,
    SynopsisStore,
    WindowedStreamLearner,
    load_sharded,
    save_sharded,
)
from repro.__main__ import main
from repro.serve.engine import PrefixTable
from repro.serve.persistence import (
    SHARDED_SCHEMA_VERSION,
    detect_store_format,
    read_sharded_manifest,
)
from repro.serve.router import stable_shard

from helpers import summary_metadata
from test_persistence import FIXTURES


def signal(n=240, seed=3):
    rng = np.random.default_rng(seed)
    return np.abs(rng.normal(1.0, 0.5, n)) + 1e-6


def populate(target, names, n=240):
    """Register one merging synopsis per name into a store or router."""
    for index, name in enumerate(names):
        target.register(name, signal(n, seed=index), family="merging", k=5)


NAMES = [f"series-{i}" for i in range(10)]


# --------------------------------------------------------------------- #
# Shard map
# --------------------------------------------------------------------- #


class TestShardMap:
    def test_stable_hash_is_deterministic_and_spread(self):
        assignments = [stable_shard(name, 4) for name in NAMES]
        assert assignments == [stable_shard(name, 4) for name in NAMES]
        assert all(0 <= a < 4 for a in assignments)
        assert len(set(assignments)) > 1  # 10 names over 4 shards spread out

    def test_assignments_persist_over_hash(self):
        # An explicit assignment that disagrees with the hash must win:
        # that is what makes resharding deliberate rather than accidental.
        hashed = stable_shard("a", 4)
        override = (hashed + 1) % 4
        shard_map = ShardMap(4, {"a": override})
        assert shard_map.shard_of("a") == override
        clone = ShardMap.from_dict(json.loads(json.dumps(shard_map.to_dict())))
        assert clone.shard_of("a") == override
        assert clone.num_shards == 4

    def test_assign_records(self):
        shard_map = ShardMap(4)
        assert "x" not in shard_map
        index = shard_map.assign("x")
        assert "x" in shard_map and shard_map.assignments() == {"x": index}
        assert index == stable_shard("x", 4)

    def test_out_of_range_assignment_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ShardMap(2, {"a": 5})
        with pytest.raises(ValueError, match="num_shards"):
            ShardMap(0)

    def test_future_schema_rejected(self):
        payload = ShardMap(2).to_dict()
        payload["schema"] = 99
        with pytest.raises(ValueError, match="newer"):
            ShardMap.from_dict(payload)


# --------------------------------------------------------------------- #
# Router: parity with the unsharded store/engine pair
# --------------------------------------------------------------------- #


@pytest.fixture
def pair():
    """The same entries registered unsharded and over 4 shards."""
    store = SynopsisStore()
    populate(store, NAMES)
    router = ShardRouter(num_shards=4)
    populate(router, NAMES)
    return QueryEngine(store), router


class TestRouterParity:
    def test_every_query_kind_identical(self, pair):
        engine, router = pair
        rng = np.random.default_rng(0)
        a = rng.integers(0, 240, 100)
        b = rng.integers(0, 240, 100)
        a, b = np.minimum(a, b), np.maximum(a, b)
        x = rng.integers(0, 240, 100)
        q = rng.random(50)
        for name in NAMES:
            np.testing.assert_array_equal(
                router.range_sum(name, a, b), engine.range_sum(name, a, b)
            )
            np.testing.assert_array_equal(
                router.range_mean(name, a, b), engine.range_mean(name, a, b)
            )
            np.testing.assert_array_equal(
                router.point_mass(name, x), engine.point_mass(name, x)
            )
            np.testing.assert_array_equal(router.cdf(name, x), engine.cdf(name, x))
            np.testing.assert_array_equal(
                router.quantile(name, q), engine.quantile(name, q)
            )
            assert router.top_k_buckets(name, 3) == engine.top_k_buckets(name, 3)

    def test_names_keep_registration_order(self, pair):
        _, router = pair
        assert router.names() == NAMES
        assert [m["name"] for m in router.summary()] == NAMES
        assert len(router) == len(NAMES)
        assert set(router) == set(NAMES)

    def test_entries_actually_distributed(self, pair):
        _, router = pair
        sizes = [len(shard) for shard in router.shards]
        assert sum(sizes) == len(NAMES)
        assert sum(1 for size in sizes if size > 0) > 1

    def test_describe_reports_shard(self, pair):
        _, router = pair
        for name in NAMES:
            meta = router.describe(name)
            assert meta["shard"] == router.shard_map.shard_of(name)
            assert name in router.shards[meta["shard"]].store

    def test_unknown_name(self, pair):
        _, router = pair
        with pytest.raises(KeyError, match="registered"):
            router.range_sum("nope", 0, 1)
        with pytest.raises(KeyError, match="registered"):
            router.refresh("nope")

    def test_remove_is_sticky(self, pair):
        _, router = pair
        name = NAMES[0]
        home = router.shard_map.shard_of(name)
        version = router[name].version
        router.remove(name)
        assert name not in router
        assert router.names() == NAMES[1:]
        router.register(name, signal(seed=99), family="merging", k=4)
        assert router.shard_map.shard_of(name) == home  # same shard
        assert router[name].version == version + 1  # never reissued

    def test_streaming_entries_route(self):
        router = ShardRouter(num_shards=3)
        rng = np.random.default_rng(5)
        learner = StreamingHistogramLearner(n=80, k=3)
        learner.extend(rng.integers(0, 40, 400))
        router.register_stream("live", learner)
        before = router.cdf("live", 39)
        assert before == pytest.approx(1.0, abs=1e-9)
        router.extend("live", rng.integers(40, 80, 4000))  # forces refresh
        assert router["live"].version == 1
        assert router.cdf("live", 39) < 0.5

    def test_cache_info_aggregates(self, pair):
        _, router = pair
        router.range_sum(NAMES[0], 0, 10)
        router.range_sum(NAMES[0], 0, 10)
        router.range_sum(NAMES[1], 0, 10)
        info = router.cache_info()
        assert info["hits"] == 1 and info["misses"] == 2
        assert len(info["shards"]) == 4
        assert sum(shard["hits"] for shard in info["shards"]) == 1
        assert sum(shard["misses"] for shard in info["shards"]) == 2

    def test_warm(self, pair):
        _, router = pair
        assert router.warm() == len(NAMES)
        assert router.cache_info()["misses"] == len(NAMES)
        router.warm()
        assert router.cache_info()["hits"] == len(NAMES)

    def test_shard_map_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shard map covers"):
            ShardRouter(num_shards=3, shard_map=ShardMap(2))

    def test_from_stores_validates_placement(self):
        # Map says shard 0, but the entry lives in store 1 -> rejected.
        store = SynopsisStore()
        store.register("a", signal(), family="merging", k=3)
        shard_map = ShardMap(2, {"a": 0})
        with pytest.raises(ValueError, match="shard map places"):
            ShardRouter.from_stores([SynopsisStore(), store], shard_map=shard_map)
        # Without a map, placement is adopted from where entries live.
        adopted = ShardRouter.from_stores([SynopsisStore(), store])
        assert adopted.shard_map.shard_of("a") == 1
        assert adopted.range_sum("a", 0, 10) == pytest.approx(
            QueryEngine(store).range_sum("a", 0, 10), abs=0.0
        )


class TestReshard:
    def test_reshard_preserves_entries_and_versions(self, pair):
        engine, router = pair
        router.register(NAMES[0], signal(seed=42), family="merging", k=4)
        assert router[NAMES[0]].version == 1
        wide = router.reshard(8)
        assert wide.num_shards == 8
        assert wide.names() == router.names()
        assert wide[NAMES[0]].version == 1
        rng = np.random.default_rng(1)
        a = rng.integers(0, 240, 50)
        b = rng.integers(0, 240, 50)
        a, b = np.minimum(a, b), np.maximum(a, b)
        for name in NAMES:
            np.testing.assert_array_equal(
                wide.range_sum(name, a, b), router.range_sum(name, a, b)
            )

    def test_reshard_to_one_collapses(self, pair):
        _, router = pair
        single = router.reshard(1)
        assert single.num_shards == 1
        assert len(single.shards[0].store) == len(NAMES)

    def test_reshard_keeps_version_floor(self, pair):
        _, router = pair
        router.remove(NAMES[2])
        narrow = router.reshard(2)
        entry = narrow.register(NAMES[2], signal(seed=7), family="merging", k=4)
        assert entry.version == 1  # floor survived the migration


# --------------------------------------------------------------------- #
# Async front end
# --------------------------------------------------------------------- #


@pytest.fixture
def frontend(pair):
    _, router = pair
    with AsyncServingFrontend(router) as fe:
        yield fe


class TestFrontend:
    def test_results_in_request_order_and_match_engine(self, pair, frontend):
        engine, _ = pair
        rng = np.random.default_rng(2)
        requests = []
        expected = []
        for i in range(60):
            name = NAMES[int(rng.integers(len(NAMES)))]
            a = rng.integers(0, 240, 16)
            b = rng.integers(0, 240, 16)
            a, b = np.minimum(a, b), np.maximum(a, b)
            requests.append(QueryRequest("range_sum", name, (a, b)))
            expected.append(engine.range_sum(name, a, b))
        results = frontend.serve(requests)
        assert [r.index for r in results] == list(range(60))
        for result, want in zip(results, expected):
            assert result.ok and result.version == 0
            np.testing.assert_array_equal(result.value, want)

    def test_all_kinds(self, pair, frontend):
        engine, _ = pair
        name = NAMES[0]
        x = np.arange(0, 240, 7)
        q = np.linspace(0.0, 1.0, 11)
        requests = [
            QueryRequest("range_sum", name, (0, 239)),
            QueryRequest("range_mean", name, (x, x)),
            QueryRequest("point_mass", name, (x,)),
            QueryRequest("cdf", name, (x,)),
            QueryRequest("quantile", name, (q,)),
            QueryRequest("top_k", name, (3,)),
        ]
        results = frontend.serve(requests)
        assert all(r.ok for r in results)
        assert results[0].value == pytest.approx(
            engine.range_sum(name, 0, 239), abs=0.0
        )
        np.testing.assert_array_equal(results[1].value, engine.point_mass(name, x))
        np.testing.assert_array_equal(results[2].value, engine.point_mass(name, x))
        np.testing.assert_array_equal(results[3].value, engine.cdf(name, x))
        np.testing.assert_array_equal(results[4].value, engine.quantile(name, q))
        assert results[5].value == engine.top_k_buckets(name, 3)

    def test_scalar_requests_stay_scalar(self, frontend, pair):
        engine, _ = pair
        results = frontend.serve(
            [
                QueryRequest("range_sum", NAMES[0], (3, 17)),
                QueryRequest("range_sum", NAMES[0], (5, 5)),
                QueryRequest("quantile", NAMES[0], (0.5,)),
            ]
        )
        assert isinstance(results[0].value, float)
        assert results[0].value == engine.range_sum(NAMES[0], 3, 17)
        assert isinstance(results[2].value, int)
        assert results[2].value == engine.quantile(NAMES[0], 0.5)

    def test_coalescing_matches_individual(self, pair):
        engine, router = pair
        rng = np.random.default_rng(3)
        requests = []
        for _ in range(40):  # many same-name groups
            name = NAMES[int(rng.integers(3))]
            a = rng.integers(0, 240, 8)
            b = rng.integers(0, 240, 8)
            a, b = np.minimum(a, b), np.maximum(a, b)
            requests.append(QueryRequest("range_sum", name, (a, b)))
        with AsyncServingFrontend(router) as fe:
            results = fe.serve(requests)
        assert router.registry.get("frontend_coalesced_requests_total").value
        for request, result in zip(requests, results):
            assert result.ok, result.error
            np.testing.assert_array_equal(
                result.value, engine.range_sum(request.name, *request.args)
            )
            assert result.version == router[request.name].version

    def test_coalescing_mixed_shape_args_do_not_cross(self, pair):
        """Regression: a request with (array, scalar) or mismatched-length
        args must broadcast within itself before stacking, or neighbors'
        a/b pairs silently cross in the coalesced call."""
        engine, router = pair
        name = NAMES[0]
        requests = [
            QueryRequest("range_sum", name, (np.asarray([0, 1]), 5)),
            QueryRequest("range_sum", name, (np.asarray([10]), np.asarray([20, 30]))),
            QueryRequest("range_sum", name, (2, np.asarray([4, 9, 14]))),
        ]
        with AsyncServingFrontend(router) as fe:
            results = fe.serve(requests)
        assert all(r.ok for r in results)
        np.testing.assert_array_equal(
            results[0].value, engine.range_sum(name, np.asarray([0, 1]), 5)
        )
        np.testing.assert_array_equal(
            results[1].value,
            engine.range_sum(name, np.asarray([10]), np.asarray([20, 30])),
        )
        np.testing.assert_array_equal(
            results[2].value, engine.range_sum(name, 2, np.asarray([4, 9, 14]))
        )

    def test_multidimensional_args_not_miscoalesced(self, pair):
        """Regression: 2-D query arrays stack along axis 0 with the wrong
        element-count lengths; they must bypass coalescing and still
        answer exactly like the engine."""
        engine, router = pair
        name = NAMES[0]
        a = np.asarray([[0, 5], [10, 15]])
        b = a + 20
        requests = [
            QueryRequest("range_sum", name, (a, b)),
            QueryRequest("range_sum", name, (a + 1, b + 1)),
        ]
        with AsyncServingFrontend(router) as fe:
            results = fe.serve(requests)
        assert all(r.ok for r in results)
        assert results[0].value.shape == (2, 2)
        np.testing.assert_array_equal(results[0].value, engine.range_sum(name, a, b))
        np.testing.assert_array_equal(
            results[1].value, engine.range_sum(name, a + 1, b + 1)
        )

    def test_empty_request_answers_like_one_at_a_time(self, frontend, pair):
        # An empty side broadcasts to no ranges: stacked into a group or
        # answered alone, (empty, out-of-range scalar) is an empty answer.
        _, router = pair
        empty = np.array([], dtype=np.float64)
        requests = [
            QueryRequest("range_sum", NAMES[0], (0, 23)),
            QueryRequest("range_sum", NAMES[0], (empty, 240)),
            QueryRequest("range_mean", NAMES[0], (-1, empty)),
        ]
        results = frontend.serve(requests)
        table = router.table_versioned(NAMES[0])[1]
        for request, result in zip(requests, results):
            assert result.ok, result.error
            alone = getattr(table, request.kind)(*request.args)
            assert type(result.value) is type(alone)
            assert np.array_equal(result.value, alone)
        assert results[1].value.shape == results[2].value.shape == (0,)

    def test_ragged_argument_fails_alone(self, frontend, pair):
        # A ragged nested list has no ndim: it must fail as its own
        # request instead of failing the whole batch.
        engine, _ = pair
        requests = [
            QueryRequest("range_sum", NAMES[0], (np.asarray([0, 1]), 5)),
            QueryRequest("range_sum", NAMES[0], ([1, [2, 3]], 5)),
            QueryRequest("range_sum", NAMES[0], (4, 9)),
        ]
        results = frontend.serve(requests)
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        np.testing.assert_array_equal(
            results[0].value, engine.range_sum(NAMES[0], np.asarray([0, 1]), 5)
        )
        assert results[2].value == engine.range_sum(NAMES[0], 4, 9)

    def test_invalid_request_construction(self):
        with pytest.raises(ValueError, match="unknown query kind"):
            QueryRequest("median", "a", (0.5,))
        with pytest.raises(ValueError, match="argument"):
            QueryRequest("range_sum", "a", (1,))

    def test_mapping_and_string_args_rejected_at_construction(self):
        # Regression: a dict or str has a len() too, so these used to pass
        # the arity check and die deep in evaluation with "could not
        # convert string to float: 'q'".  They must fail at construction
        # with the expected positional form spelled out.
        with pytest.raises(TypeError, match=r"positional.*\(q,\)"):
            QueryRequest("quantile", "a", {"q": 0.5})
        with pytest.raises(TypeError, match=r"positional.*\(a, b\)"):
            QueryRequest("range_sum", "a", "ab")
        with pytest.raises(TypeError, match="positional"):
            QueryRequest("cdf", "a", 7)  # not iterable at all

    def test_args_normalized_to_tuple(self):
        request = QueryRequest("range_sum", "a", [3, 9])
        assert request.args == (3, 9)
        assert isinstance(request.args, tuple)

    def test_async_write_bumps_version_in_results(self, pair):
        _, router = pair
        rng = np.random.default_rng(4)
        learner = StreamingHistogramLearner(n=100, k=3)
        learner.extend(rng.integers(0, 100, 300))
        router.register_stream("live", learner)

        async def scenario(fe):
            before = await fe.query_batch([QueryRequest("cdf", "live", (50,))])
            await fe.extend("live", rng.integers(0, 100, 5000))  # refresh
            await fe.refresh("live")
            after = await fe.query_batch([QueryRequest("cdf", "live", (50,))])
            return before[0], after[0]

        with AsyncServingFrontend(router) as fe:
            before, after = asyncio.run(scenario(fe))
        assert before.version == 0
        assert after.version == router["live"].version >= 2


class TestIntegerPositions:
    """A position or a top-k size that is not an integer fails at the
    boundary instead of being truncated; integral floats still work."""

    def test_engine_and_router(self, pair):
        name = NAMES[0]
        for target in pair:
            calls = [
                lambda bad: target.range_sum(name, bad, 3),
                lambda bad: target.range_sum(name, 0, np.array([2, bad])),
                lambda bad: target.range_mean(name, 1, bad),
                lambda bad: target.cdf(name, bad),
                lambda bad: target.point_mass(name, bad),
            ]
            for bad in (1.5, 2.9, 0.99, float("nan"), float("inf")):
                for call in calls:
                    with pytest.raises(ValueError, match="positions must be integers"):
                        call(bad)
            assert target.range_sum(name, 1.0, 3.0) == target.range_sum(name, 1, 3)
            assert target.cdf(name, np.array([2.0])) == target.cdf(name, [2])
            assert target.point_mass(name, 0.0) == target.point_mass(name, 0)
            for m in (2.7, float("nan"), [2]):
                with pytest.raises(ValueError, match="m must be an integer"):
                    target.top_k_buckets(name, m)
            assert target.top_k_buckets(name, 3.0) == target.top_k_buckets(name, 3)

    def test_group_kinds(self, pair):
        members = NAMES[:3]
        for target in pair:
            with pytest.raises(ValueError, match="positions must be integers"):
                target.group_range_sum(members, 1.5, 3)
            with pytest.raises(ValueError, match="positions must be integers"):
                target.group_range_mean(members, 0, np.array([3.0, np.nan]))
            with pytest.raises(ValueError, match="m must be an integer"):
                target.group_top_k(members, 2.7)
            assert target.group_range_sum(members, 1.0, 3.0) == (
                target.group_range_sum(members, 1, 3)
            )
            assert target.group_top_k(members, 2.0) == target.group_top_k(members, 2)

    def test_coalesced_frontend_group_fails_only_the_offender(self, pair, frontend):
        engine, _ = pair
        name = NAMES[0]
        requests = [
            QueryRequest("range_sum", name, (1, 3)),
            QueryRequest("range_sum", name, (1.5, 3)),
            QueryRequest("range_sum", name, (2.0, 9)),
            QueryRequest("cdf", name, (2,)),
            QueryRequest("cdf", name, (np.array([2.9, 3.0]),)),
            QueryRequest("cdf", name, (np.array([4, 5]),)),
            QueryRequest("top_k", name, (2.7,)),
            QueryRequest("group_top_k", ",".join(NAMES[:2]), (2.7,)),
        ]
        results = frontend.serve(requests)
        assert [result.ok for result in results] == [
            True, False, True, True, False, True, False, False
        ]
        assert results[0].value == engine.range_sum(name, 1, 3)
        assert results[2].value == engine.range_sum(name, 2, 9)
        assert results[3].value == engine.cdf(name, 2)
        np.testing.assert_array_equal(results[5].value, engine.cdf(name, [4, 5]))
        assert results[1].error == "positions must be integers, got 1.5"
        assert results[4].error == "positions must be integers, got 2.9"
        assert results[6].error == "m must be an integer, got 2.7"
        assert results[7].error == "m must be an integer, got 2.7"


# --------------------------------------------------------------------- #
# Columnar batches: parity with one request at a time
# --------------------------------------------------------------------- #

PARITY_N = 48
PARITY_NAMES = ["p0", "p1", "p2", "w"]  # "w" is a windowed stream
PARITY_KINDS = (
    "range_sum", "range_mean", "point_mass", "cdf", "quantile",
    "top_k", "inner_product", "heavy_hitters",
)


@pytest.fixture(scope="module")
def parity_frontends():
    """The same entries over 1, 2 and 3 shards, each behind a front end."""
    frontends = {}
    for shards in (1, 2, 3):
        router = ShardRouter(num_shards=shards)
        populate(router, PARITY_NAMES[:-1], n=PARITY_N)
        learner = WindowedStreamLearner(PARITY_N, 4, 400, sketch_eps=0.05)
        learner.extend(np.random.default_rng(5).integers(0, PARITY_N, 400) % 6)
        router.register_stream("w", learner)
        frontends[shards] = AsyncServingFrontend(router)
    yield frontends
    for frontend in frontends.values():
        frontend.close()


#: Argument forms of scalar requests, and of any request.
SCALAR_FORMS = ["python", "numpy"]
ANY_FORMS = ["python", "numpy", "numpy", "0-d", "1-d", "1-d", "list", "2-d"]


@st.composite
def _argument(draw, values, length, forms):
    """One query argument, as a Python or NumPy scalar, a 0-d array, a
    1-D list or array (usually ``length`` long), or a 2-D array."""
    form = draw(st.sampled_from(forms))
    if form == "python":
        return draw(values)
    if form in ("numpy", "0-d"):
        value = draw(values)
        cast = (np.float64, np.float32) if isinstance(value, float) else (
            np.int64, np.int32
        )
        value = draw(st.sampled_from(cast))(value)
        return np.asarray(value) if form == "0-d" else value
    length = draw(st.sampled_from([length, length, length, 1, 2]))
    if form == "2-d":
        items = draw(st.lists(values, min_size=2 * length, max_size=2 * length))
        return np.asarray(items).reshape(2, length)
    items = draw(st.lists(values, min_size=length, max_size=length))
    return items if form == "list" else np.asarray(items)


@st.composite
def _parity_request(draw, names, forms):
    kind = draw(st.sampled_from(PARITY_KINDS[:5] * 3 + PARITY_KINDS[5:]))
    name = draw(names)
    length = draw(st.integers(0, 3))
    # One step past the domain on either side, so some requests fail.
    position = st.integers(-1, PARITY_N)
    if kind in ("range_sum", "range_mean"):
        half = PARITY_N // 2
        args = (
            draw(_argument(st.integers(-1, half), length, forms)),
            draw(_argument(st.integers(half - 1, PARITY_N), length, forms)),
        )
    elif kind in ("point_mass", "cdf"):
        args = (draw(_argument(position, length, forms)),)
    elif kind == "quantile":
        levels = st.floats(-0.05, 1.05, allow_nan=False)
        args = (draw(_argument(levels, length, forms)),)
    elif kind == "top_k":
        args = (draw(st.integers(0, 4)),)
    elif kind == "inner_product":
        args = (draw(names),)
    else:
        args = (draw(st.sampled_from([0.01, 0.1, 0.3])),)
    return QueryRequest(kind, name, args)


def _one_at_a_time(router, request):
    """``(value, version, error)`` of ``request`` answered on its own from
    the entry's table, with the same ``PrefixTable`` method.  The table
    comes from the entry's shard, as in ``router.table_versioned``; the
    shard's store words the error for an unknown name."""
    kind, name, args = request.kind, request.name, request.args
    shard = router.shard_of(name)
    try:
        if kind == "heavy_hitters":
            value = shard.engine.heavy_hitters(name, float(args[0]))
            return value, shard.store[name].version, None
        version, table = shard.engine.table_versioned(name)
        if kind == "inner_product":
            value = table.inner_product(router.table_versioned(str(args[0]))[1])
        elif kind == "top_k":
            value = table.top_k_buckets(int(args[0]))
        else:
            value = getattr(table, kind)(*args)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return None, -1, str(exc)
    return value, version, None


class TestColumnarParity:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_batches_answer_like_one_request_at_a_time(
        self, parity_frontends, data
    ):
        """Random batches over 1-3 shards that mix every non-group kind,
        Python and NumPy scalars, 0-d, 1-D, mixed-shape and 2-D
        arguments, out-of-range arguments and unknown names: every
        result equals its request answered alone, in value, value type,
        dtype, version and error message."""
        frontend = parity_frontends[data.draw(st.integers(1, 3))]
        focus = data.draw(st.lists(
            st.sampled_from(PARITY_NAMES + ["nope"]),
            min_size=1, max_size=3, unique=True,
        ))
        # Half the batches are all scalar, so scalar groups form often.
        forms = data.draw(st.sampled_from([SCALAR_FORMS, ANY_FORMS]))
        requests = data.draw(st.lists(
            _parity_request(st.sampled_from(focus), forms),
            min_size=1, max_size=40,
        ))
        results = frontend.serve(requests)
        assert [r.index for r in results] == list(range(len(requests)))
        for request, result in zip(requests, results):
            value, version, error = _one_at_a_time(frontend.router, request)
            assert (result.name, result.kind) == (request.name, request.kind)
            assert result.error == error, request
            if error is not None:
                continue
            assert result.version == version, request
            assert type(result.value) is type(value), request
            if isinstance(value, np.ndarray):
                assert result.value.dtype == value.dtype, request
            assert np.array_equal(result.value, value), request


# --------------------------------------------------------------------- #
# One kernel call per (shard job, kind)
# --------------------------------------------------------------------- #

#: The PrefixTable methods a stacked call goes through.
KERNEL_METHODS = ("range_sum", "cdf", "quantile")


def count_kernel_calls(monkeypatch):
    """Wrap the kernel methods on the class, as the end-to-end tracer
    does, and count their calls per method."""
    calls = collections.Counter()
    for method in KERNEL_METHODS:
        original = PrefixTable.__dict__[method]

        def wrapper(table, *args, _original=original, _method=method, **kwargs):
            calls[_method] += 1
            return _original(table, *args, **kwargs)

        monkeypatch.setattr(PrefixTable, method, wrapper)
    return calls


@pytest.fixture
def scalar_batch():
    """1,500 scalar requests of three kinds over 10 entries on 2 shards."""
    router = ShardRouter(num_shards=2)
    populate(router, NAMES)
    rng = np.random.default_rng(21)
    kinds = rng.choice(KERNEL_METHODS, 1500, p=[0.7, 0.15, 0.15]).tolist()
    names = rng.choice(NAMES, 1500).tolist()
    a, b = np.sort(rng.integers(0, 240, (2, 1500)), axis=0).tolist()
    q = rng.random(1500).tolist()
    requests = [
        QueryRequest(kind, name, (
            (a[i], b[i]) if kind == "range_sum"
            else (q[i],) if kind == "quantile" else (a[i],)
        ))
        for i, (kind, name) in enumerate(zip(kinds, names))
    ]
    assert len({router.shard_map.shard_of(name) for name in names}) == 2
    with AsyncServingFrontend(router) as fe:
        yield router, fe, requests


class TestKernelCallsPerShardJob:
    def test_one_call_per_shard_job_and_kind(self, scalar_batch, monkeypatch):
        router, fe, requests = scalar_batch
        calls = count_kernel_calls(monkeypatch)
        results = fe.serve(requests)
        # Each of the 2 shard jobs holds requests of all 3 kinds.
        assert calls == {method: 2 for method in KERNEL_METHODS}
        for request, result in zip(requests, results):
            version, table = router.table_versioned(request.name)
            assert result.ok and result.version == version
            assert result.value == getattr(table, request.kind)(*request.args)

    def test_a_bad_request_costs_one_extra_call(self, scalar_batch, monkeypatch):
        router, fe, requests = scalar_batch
        good = fe.serve(requests)
        bad = QueryRequest("range_sum", NAMES[3], (0, 10_000))
        batch = requests[:700] + [bad] + requests[700:]
        calls = count_kernel_calls(monkeypatch)
        results = fe.serve(batch)
        assert sum(calls.values()) == 2 * len(KERNEL_METHODS) + 1
        table = router.table_versioned(NAMES[3])[1]
        with pytest.raises(ValueError) as alone:
            table.range_sum(0, 10_000)
        assert results[700].error == str(alone.value)
        for before, after in zip(good, results[:700] + results[701:]):
            assert after.ok and after.version == before.version
            assert type(after.value) is type(before.value)
            assert after.value == before.value


# --------------------------------------------------------------------- #
# Sharded persistence
# --------------------------------------------------------------------- #


@pytest.fixture
def saved_sharded(tmp_path):
    router = ShardRouter(num_shards=3)
    populate(router, NAMES[:6])
    rng = np.random.default_rng(11)
    learner = StreamingHistogramLearner(n=64, k=3)
    learner.extend(rng.integers(0, 64, 500))
    router.register_stream("live", learner)
    path = tmp_path / "sharded"
    router.save(path)
    return router, path


class TestShardedPersistence:
    def test_round_trip_matches_unsharded_bitwise(self, tmp_path):
        """Acceptance: save_sharded -> load_sharded answers bitwise equal
        to the unsharded store over identical registrations."""
        store = SynopsisStore()
        populate(store, NAMES)
        engine = QueryEngine(store)

        router = ShardRouter(num_shards=4)
        populate(router, NAMES)
        save_sharded(router, tmp_path / "sharded")
        loaded = load_sharded(tmp_path / "sharded")

        assert summary_metadata(loaded) == summary_metadata(router)
        assert [m["name"] for m in loaded.summary()] == [
            m["name"] for m in store.summary()
        ]
        rng = np.random.default_rng(8)
        a = rng.integers(0, 240, 64)
        b = rng.integers(0, 240, 64)
        a, b = np.minimum(a, b), np.maximum(a, b)
        x = rng.integers(0, 240, 64)
        q = rng.random(32)
        for name in NAMES:
            np.testing.assert_array_equal(
                loaded.range_sum(name, a, b), engine.range_sum(name, a, b)
            )
            np.testing.assert_array_equal(
                loaded.range_mean(name, a, b), engine.range_mean(name, a, b)
            )
            np.testing.assert_array_equal(
                loaded.point_mass(name, x), engine.point_mass(name, x)
            )
            np.testing.assert_array_equal(loaded.cdf(name, x), engine.cdf(name, x))
            np.testing.assert_array_equal(
                loaded.quantile(name, q), engine.quantile(name, q)
            )
            assert loaded.top_k_buckets(name, 3) == engine.top_k_buckets(name, 3)

    def test_layout_and_manifest(self, saved_sharded):
        router, path = saved_sharded
        assert detect_store_format(path) == "sharded"
        manifest = read_sharded_manifest(path)
        # Every save stamps the current schema, cohorts or not.
        assert manifest["schema"] == SHARDED_SCHEMA_VERSION
        assert manifest["num_shards"] == 3
        assert (path / "shard-0000" / "manifest.json").is_file()
        assert manifest["shard_map"]["assignments"] == (
            router.shard_map.assignments()
        )

    def test_lazy_load_hydrates_per_shard(self, saved_sharded):
        _, path = saved_sharded
        loaded = ShardRouter.load(path)
        assert all(
            not loaded[name].is_hydrated for name in loaded.names()
        )
        loaded.range_sum(loaded.names()[0], 0, 10)
        assert loaded[loaded.names()[0]].is_hydrated
        touched = loaded.shard_map.shard_of(loaded.names()[0])
        for name in loaded.names()[1:]:
            if loaded.shard_map.shard_of(name) != touched:
                assert not loaded[name].is_hydrated

    def test_streaming_entry_resumes(self, saved_sharded):
        router, path = saved_sharded
        loaded = ShardRouter.load(path)
        entry = loaded["live"]
        assert entry.describe()["samples_seen"] == 500
        rng = np.random.default_rng(12)
        batch = rng.integers(0, 64, 700)
        assert (
            loaded.extend("live", batch).version
            == router.extend("live", batch).version
        )

    def test_save_replaces_atomically(self, saved_sharded, tmp_path):
        router, path = saved_sharded
        router.register("extra", signal(seed=50), family="merging", k=3)
        router.save(path)  # replace in place
        loaded = ShardRouter.load(path)
        assert "extra" in loaded
        leftovers = [p.name for p in path.parent.iterdir() if "tmp" in p.name]
        assert leftovers == []

    def test_concurrent_register_cannot_tear_the_snapshot(
        self, tmp_path, monkeypatch
    ):
        """Regression: a register racing save_sharded must not produce a
        manifest whose shard map names an entry absent from its shard dir
        — the saved map and shards are one point-in-time snapshot."""
        import time as time_mod

        import repro.serve.persistence as persistence

        router = ShardRouter(num_shards=2)
        populate(router, NAMES[:4])
        real = persistence._write_store_contents

        def slow_write(store, target, **kwargs):
            time_mod.sleep(0.05)  # hold the snapshot window open
            real(store, target, **kwargs)

        monkeypatch.setattr(persistence, "_write_store_contents", slow_write)
        path = tmp_path / "sharded"
        saver = threading.Thread(target=lambda: router.save(path))
        saver.start()
        time_mod.sleep(0.02)  # land mid-save
        router.register("late", signal(seed=77), family="merging", k=3)
        saver.join()
        monkeypatch.undo()

        manifest = read_sharded_manifest(path)
        loaded = load_sharded(path)
        in_map = "late" in manifest["shard_map"]["assignments"]
        assert in_map == ("late" in loaded.names()), (
            "saved shard map and shard contents disagree about 'late'"
        )

    def test_refuses_non_store_target(self, saved_sharded, tmp_path):
        router, _ = saved_sharded
        target = tmp_path / "precious"
        target.mkdir()
        (target / "data.txt").write_text("keep me")
        with pytest.raises(ValueError, match="not a\n?.*synopsis store"):
            router.save(target)
        assert (target / "data.txt").read_text() == "keep me"

    def test_plain_loaders_reject_each_other(self, saved_sharded, tmp_path):
        _, path = saved_sharded
        with pytest.raises(StoreCorruptionError, match="sharded store"):
            SynopsisStore.load(path)
        store = SynopsisStore()
        store.register("a", signal(), family="merging", k=3)
        store.save(tmp_path / "plain")
        with pytest.raises(StoreCorruptionError, match="unsharded store"):
            load_sharded(tmp_path / "plain")

    def test_missing_shard_dir(self, saved_sharded):
        _, path = saved_sharded
        shutil.rmtree(path / "shard-0001")
        with pytest.raises(StoreCorruptionError, match="missing shard directory"):
            load_sharded(path)

    def test_tampered_shard_map_detected(self, saved_sharded):
        # Move one name's assignment to another shard without moving the
        # entry: placement and contents disagree -> corruption.
        _, path = saved_sharded
        manifest = json.loads((path / "manifest.json").read_text())
        assignments = manifest["shard_map"]["assignments"]
        name = next(iter(assignments))
        assignments[name] = (assignments[name] + 1) % manifest["num_shards"]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreCorruptionError, match="inconsistent sharded store"):
            load_sharded(path)

    def test_rotted_parent_manifest_fields(self, saved_sharded):
        _, path = saved_sharded
        good = json.loads((path / "manifest.json").read_text())

        bad = json.loads(json.dumps(good))
        bad["num_shards"] = "three"
        (path / "manifest.json").write_text(json.dumps(bad))
        with pytest.raises(StoreCorruptionError, match="invalid num_shards"):
            load_sharded(path)

        bad = json.loads(json.dumps(good))
        bad["shard_dirs"] = ["shard-0000"]
        (path / "manifest.json").write_text(json.dumps(bad))
        with pytest.raises(StoreCorruptionError, match="shard dirs"):
            load_sharded(path)

        bad = json.loads(json.dumps(good))
        bad["shard_dirs"][0] = "../escape"
        (path / "manifest.json").write_text(json.dumps(bad))
        with pytest.raises(StoreCorruptionError, match="invalid shard directory"):
            load_sharded(path)

        bad = json.loads(json.dumps(good))
        bad["schema"] = SHARDED_SCHEMA_VERSION + 1
        (path / "manifest.json").write_text(json.dumps(bad))
        with pytest.raises(StoreCorruptionError, match="newer than"):
            load_sharded(path)


class TestGoldenShardedFixture:
    """The sharded parent manifest must not drift silently (schema guard)."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(
            FIXTURES / "golden_sharded_expected.json", "r", encoding="utf-8"
        ) as handle:
            expected = json.load(handle)
        router = ShardRouter.load(FIXTURES / "golden_sharded_store")
        return router, expected

    def test_schema_version_matches(self):
        # The frozen golden predates the cohort bump: schema 2, which
        # current readers still load.
        manifest = read_sharded_manifest(FIXTURES / "golden_sharded_store")
        assert manifest["schema"] == 2 < SHARDED_SCHEMA_VERSION, (
            "the frozen sharded golden fixture changed: restore it from git"
        )

    def test_shard_map_matches(self, golden):
        router, expected = golden
        assert router.num_shards == expected["num_shards"]
        assert router.shard_map.assignments() == expected["shard_map"]

    def test_fixture_is_genuinely_multi_shard(self, golden):
        # Both shards hold entries, and at least one placement disagrees
        # with the stable hash — so the fixture proves persisted
        # assignments (not the hash) drive placement on load.
        router, _ = golden
        assert all(len(shard.store) > 0 for shard in router.shards)
        assert any(
            router.shard_map.shard_of(name) != stable_shard(name, router.num_shards)
            for name in router.names()
        )

    def test_summary_matches(self, golden):
        router, expected = golden
        want = [dict(row) for row in expected["summary"]]
        for row in want:  # the golden predates the residency keys
            row.pop("hydrated", None)
            row.pop("resident_bytes", None)
        assert summary_metadata(router) == want

    def test_answers_match(self, golden):
        router, expected = golden
        a = np.asarray([r[0] for r in expected["ranges"]])
        b = np.asarray([r[1] for r in expected["ranges"]])
        xs = np.asarray(expected["positions"])
        qs = np.asarray(expected["levels"])
        for name, answers in expected["answers"].items():
            got = {
                "range_sum": router.range_sum(name, a, b),
                "range_mean": router.range_mean(name, a, b),
                "point_mass": router.point_mass(name, xs),
                "cdf": router.cdf(name, xs),
                "quantile": router.quantile(name, qs),
            }
            if "heavy_hitters" in answers:
                got["heavy_hitters"] = [
                    list(pair)
                    for pair in router.heavy_hitters(name, expected["phi"])
                ]
            for kind, want in answers.items():
                if name == "poly" and kind != "quantile":
                    # Same LAPACK caveat as the unsharded golden test.
                    np.testing.assert_allclose(
                        got[kind], np.asarray(want), rtol=0.0, atol=1e-9
                    )
                else:
                    np.testing.assert_array_equal(
                        got[kind], np.asarray(want), err_msg=f"{name}/{kind}"
                    )


# --------------------------------------------------------------------- #
# Sharded CLI
# --------------------------------------------------------------------- #


class TestShardedCLI:
    def test_save_inspect_load_sharded(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(
            ["save", "--n", "256", "--k", "4", "--families", "merging,wavelet,gks",
             "--shards", "2", "--store-dir", store_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "saved 3 entries" in out and "across 2 shards" in out

        assert main(["inspect", store_dir]) == 0
        out = capsys.readouterr().out
        assert "repro-synopsis-store-sharded schema=3 shards=2" in out
        assert "map merging -> shard" in out
        assert "shard-0000:" in out

        assert main(["load", store_dir]) == 0
        out = capsys.readouterr().out
        assert "on 2 shard(s)" in out and "3 prefix tables warm" in out

        assert main(["load", store_dir, "--shards", "2"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="--shards asked for 3"):
            main(["load", store_dir, "--shards", "3"])
        with pytest.raises(SystemExit, match="--shards asked for 3"):
            main(["inspect", store_dir, "--shards", "3"])

    def test_serve_sharded_store_dir(self, tmp_path):
        from repro.serve.cli import serve_main

        store_dir = str(tmp_path / "store")
        assert main(
            ["save", "--n", "256", "--k", "4", "--families", "merging,wavelet",
             "--shards", "2", "--store-dir", store_dir]
        ) == 0
        commands = io.StringIO(
            "summary\nshards\nrange merging 0 100\nmean merging 0 100\n"
            "inspect merging\ncache\nquit\n"
        )
        out = io.StringIO()
        assert serve_main(
            ["--store-dir", store_dir], stdin=commands, stdout=out
        ) == 0
        text = out.getvalue()
        assert "on 2 shard(s)" in text
        assert "shard 0:" in text and "shard 1:" in text
        assert "shard=" in text  # inspect line carries the shard index
        assert "\n  table: held\n" in text  # read before inspect
        assert "cache: hits=1 misses=1\n" in text

    def test_serve_fresh_sharded_and_save(self, tmp_path):
        from repro.serve.cli import serve_main

        target = str(tmp_path / "out")
        commands = io.StringIO(f"save {target}\nquit\n")
        out = io.StringIO()
        assert serve_main(
            ["--n", "256", "--k", "4", "--families", "merging,wavelet",
             "--shards", "3"],
            stdin=commands,
            stdout=out,
        ) == 0
        assert "on 3 shard(s)" in out.getvalue()
        assert detect_store_format(target) == "sharded"
        assert set(ShardRouter.load(target).names()) == {"merging", "wavelet"}

    def test_load_keeps_every_table_warm_on_large_stores(self, tmp_path, capsys):
        # Regression: every entry of a >32-entry store keeps its table
        # after the validation pass.
        store = SynopsisStore()
        for i in range(40):
            store.register(f"e{i:02d}", signal(32, seed=i), family="exact", k=1)
        store.save(tmp_path / "big")
        assert main(["load", str(tmp_path / "big")]) == 0
        assert "40 prefix tables warm" in capsys.readouterr().out

    def test_query_range_mean_kind(self, capsys):
        assert main(
            ["query", "--n", "256", "--kind", "range_mean", "--num-queries", "50"]
        ) == 0
        assert "range_mean x 50" in capsys.readouterr().out

    def test_serve_unsharded_dir_shard_assert(self, tmp_path):
        from repro.serve.cli import serve_main

        store_dir = str(tmp_path / "plain")
        assert main(
            ["save", "--n", "128", "--k", "2", "--families", "merging",
             "--store-dir", store_dir]
        ) == 0
        with pytest.raises(SystemExit, match="--shards asked for 2"):
            serve_main(["--store-dir", store_dir, "--shards", "2"])


# --------------------------------------------------------------------- #
# Concurrency: refresh-while-query consistency (the stress test)
# --------------------------------------------------------------------- #


def _expected_answers(synopsis, a, b):
    return PrefixTable.from_synopsis(synopsis).range_sum(a, b)


@pytest.mark.slow
class TestConcurrentRefreshWhileQuery:
    def test_every_answer_from_a_consistent_snapshot(self):
        """One thread extends streaming entries while another fires
        batched queries through the front end; every answer must equal
        the answer of the synopsis that carried exactly the reported
        (name, version) — no torn reads, no half-bumped versions."""
        rng = np.random.default_rng(100)
        router = ShardRouter(num_shards=3)
        names = ["live-a", "live-b", "live-c", "live-d"]
        history = {}
        for name in names:
            learner = StreamingHistogramLearner(n=120, k=4, refresh_factor=1.2)
            learner.extend(rng.integers(0, 120, 200))
            entry = router.register_stream(name, learner)
            history[(name, entry.version)] = entry.result.synopsis

        stop = threading.Event()
        writer_error = []

        def writer():
            # The single mutator: after each extend, record the synopsis
            # now serving each (name, version).  Entries only change inside
            # this thread, so the record is exact.
            wrng = np.random.default_rng(200)
            try:
                while not stop.is_set():
                    name = names[int(wrng.integers(len(names)))]
                    router.extend(name, wrng.integers(0, 120, 150))
                    entry = router[name]
                    history[(name, entry.version)] = entry.result.synopsis
            except Exception as exc:  # pragma: no cover - fails the test
                writer_error.append(exc)

        collected = []

        async def reader(fe):
            qrng = np.random.default_rng(300)
            for _ in range(150):
                requests = []
                args = []
                for _ in range(12):
                    name = names[int(qrng.integers(len(names)))]
                    a = qrng.integers(0, 120, 32)
                    b = qrng.integers(0, 120, 32)
                    a, b = np.minimum(a, b), np.maximum(a, b)
                    requests.append(QueryRequest("range_sum", name, (a, b)))
                    args.append((a, b))
                results = await fe.query_batch(requests)
                for result, (a, b) in zip(results, args):
                    assert result.ok, result.error
                    collected.append((result.name, result.version, a, b, result.value))

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            with AsyncServingFrontend(router) as fe:
                asyncio.run(reader(fe))
        finally:
            stop.set()
            thread.join()
        assert not writer_error, writer_error

        versions_seen = {}
        for name, version, a, b, value in collected:
            key = (name, version)
            assert key in history, f"answer from unrecorded snapshot {key}"
            np.testing.assert_array_equal(
                value,
                _expected_answers(history[key], a, b),
                err_msg=f"torn read at {key}",
            )
            versions_seen.setdefault(name, set()).add(version)
        # The stress is only meaningful if refreshes actually interleaved
        # with queries: at least one entry must have served >1 version.
        assert any(len(v) > 1 for v in versions_seen.values()), (
            "no version ever advanced during the read phase; "
            "stress test did not stress"
        )


# --------------------------------------------------------------------- #
# Placement: sticky reshard, live migration
# --------------------------------------------------------------------- #


class TestStickyReshard:
    def test_growing_moves_nothing(self, pair):
        """Satellite: reshard must preserve sticky assignments that still
        name a live shard — growing the count is zero-movement."""
        _, router = pair
        before = router.shard_map.assignments()
        wide = router.reshard(8)
        assert wide.shard_map.assignments() == before
        migrated = router.registry.get("router_entries_migrated_total")
        assert migrated.value == 0

    def test_deliberate_placement_survives_reshard(self, pair):
        _, router = pair
        name = NAMES[0]
        target = (router.shard_map.shard_of(name) + 1) % 4
        router.migrate(name, target)
        wide = router.reshard(6)
        assert wide.shard_map.shard_of(name) == target

    def test_shrinking_moves_only_the_remainder(self, pair):
        _, router = pair
        before = router.shard_map.assignments()
        survivors = {n for n, s in before.items() if s < 2}
        narrow = router.reshard(2)
        after = narrow.shard_map.assignments()
        for name in survivors:
            assert after[name] == before[name]
        for name in set(before) - survivors:
            assert after[name] == stable_shard(name, 2)
        migrated = router.registry.get("router_entries_migrated_total")
        assert migrated.value == len(before) - len(survivors)


class TestMigrate:
    def test_moves_entry_and_map_and_floor(self, pair):
        engine, router = pair
        name = NAMES[0]
        source = router.shard_map.shard_of(name)
        target = (source + 1) % 4
        version = router[name].version
        moved = router.migrate(name, target)
        assert moved == [name]
        assert router.shard_map.shard_of(name) == target
        assert name not in router.shards[source].store
        assert router[name].version == version
        # The version floor moved with the entry: re-registering after a
        # remove never reissues a served version.
        router.remove(name)
        entry = router.register(name, signal(seed=77), family="merging", k=5)
        assert entry.version == version + 1

    def test_answers_identical_after_migrate(self, pair):
        engine, router = pair
        name = NAMES[1]
        router.migrate(name, (router.shard_map.shard_of(name) + 2) % 4)
        rng = np.random.default_rng(4)
        a = rng.integers(0, 240, 40)
        b = rng.integers(0, 240, 40)
        a, b = np.minimum(a, b), np.maximum(a, b)
        np.testing.assert_array_equal(
            router.range_sum(name, a, b), engine.range_sum(name, a, b)
        )

    def test_same_shard_is_noop(self, pair):
        _, router = pair
        name = NAMES[2]
        here = router.shard_map.shard_of(name)
        assert router.migrate(name, here) == []
        assert router.registry.get("router_entries_migrated_total").value == 0

    def test_unknown_name_and_bad_shard(self, pair):
        _, router = pair
        with pytest.raises(KeyError):
            router.migrate("nope", 0)
        with pytest.raises(ValueError):
            router.migrate(NAMES[0], 4)

    def test_batch_migrate_counts(self, pair):
        _, router = pair
        names = [n for n in NAMES if router.shard_map.shard_of(n) != 0][:3]
        moved = router.migrate(names, 0)
        assert moved == names
        counter = router.registry.get("router_entries_migrated_total")
        assert counter.value == len(names)


class TestLegacyShardMaps:
    def test_schema1_map_still_loads(self):
        """Back-compat: a schema-1 shard-map payload (no map_version)
        must load at version 0."""
        payload = {
            "kind": "shard_map",
            "schema": 1,
            "num_shards": 3,
            "assignments": {"a": 1, "b": 2},
        }
        shard_map = ShardMap.from_dict(payload)
        assert shard_map.shard_of("a") == 1
        assert shard_map.version == 0

    def test_saved_replica_sets_are_ignored(self, tmp_path):
        """Back-compat: older versions saved read-replica sets in the
        schema-2 shard map (``"replicas": {name: [shard, ...]}``) but
        never wrote replica copies into shard directories.  Such a store
        loads with every entry on its primary alone."""
        router = ShardRouter(num_shards=2)
        populate(router, NAMES)
        path = tmp_path / "store"
        save_sharded(router, path)
        unedited = load_sharded(path)
        name = NAMES[0]
        other = 1 - router.shard_map.shard_of(name)
        manifest = json.loads((path / "manifest.json").read_text())
        assert "replicas" not in manifest["shard_map"]
        manifest["shard_map"]["replicas"] = {name: [other]}
        (path / "manifest.json").write_text(json.dumps(manifest))
        edited = ShardMap.from_dict(read_sharded_manifest(path)["shard_map"])
        assert edited.assignments() == unedited.shard_map.assignments()
        assert edited.version == unedited.shard_map.version

        loaded = load_sharded(path)
        rng = np.random.default_rng(9)
        a = rng.integers(0, 240, 32)
        b = rng.integers(0, 240, 32)
        a, b = np.minimum(a, b), np.maximum(a, b)
        q = np.linspace(0.0, 1.0, 9)
        for entry in NAMES:
            assert loaded[entry].version == unedited[entry].version
            np.testing.assert_array_equal(
                loaded.range_sum(entry, a, b), unedited.range_sum(entry, a, b)
            )
            np.testing.assert_array_equal(
                loaded.quantile(entry, q), unedited.quantile(entry, q)
            )
        assert "replicas" not in loaded.describe(name)
        assert name not in loaded.shards[other].store
        assert len(loaded) == len(NAMES)

        save_sharded(loaded, tmp_path / "resaved")
        resaved = read_sharded_manifest(tmp_path / "resaved")
        assert "replicas" not in resaved["shard_map"]


@pytest.mark.slow
class TestMigrationUnderLoad:
    def test_zero_dropped_queries_and_consistent_snapshots(self):
        """Satellite: a hot entry is queried continuously from the front
        end while migrate() bounces it between shards; every answer must
        succeed and match the synopsis of its reported (name, version)."""
        rng = np.random.default_rng(11)
        router = ShardRouter(num_shards=4)
        names = ["hot", "warm-1", "warm-2"]
        history = {}
        for name in names:
            learner = StreamingHistogramLearner(n=120, k=4, refresh_factor=1.2)
            learner.extend(rng.integers(0, 120, 300))
            entry = router.register_stream(name, learner)
            history[(name, entry.version)] = entry.result.synopsis

        stop = threading.Event()
        mover_error = []
        moves = [0]

        def mover():
            # Bounce the hot entry across all four shards, and keep a
            # second writer-style mutation (refresh) in play so versions
            # advance during the storm.
            mrng = np.random.default_rng(12)
            try:
                while not stop.is_set():
                    target = int(mrng.integers(4))
                    if router.migrate("hot", target):
                        moves[0] += 1
                    if mrng.random() < 0.25:
                        router.extend(
                            "hot", mrng.integers(0, 120, 200)
                        )
                        entry = router["hot"]
                        history[(entry.name, entry.version)] = (
                            entry.result.synopsis
                        )
            except Exception as exc:  # pragma: no cover - fails the test
                mover_error.append(exc)

        collected = []

        async def reader(fe):
            qrng = np.random.default_rng(13)
            for _ in range(200):
                requests = []
                args = []
                for _ in range(10):
                    name = "hot" if qrng.random() < 0.8 else (
                        names[1 + int(qrng.integers(2))]
                    )
                    a = qrng.integers(0, 120, 16)
                    b = qrng.integers(0, 120, 16)
                    a, b = np.minimum(a, b), np.maximum(a, b)
                    requests.append(QueryRequest("range_sum", name, (a, b)))
                    args.append((a, b))
                results = await fe.query_batch(requests)
                for result, (a, b) in zip(results, args):
                    collected.append(
                        (result.name, result.version, a, b, result.value,
                         result.error)
                    )

        thread = threading.Thread(target=mover)
        thread.start()
        try:
            with AsyncServingFrontend(router) as fe:
                asyncio.run(reader(fe))
        finally:
            stop.set()
            thread.join()
        assert not mover_error, mover_error
        assert moves[0] > 0, "no migration ever happened; test did not stress"

        dropped = [row for row in collected if row[5] is not None]
        assert not dropped, f"{len(dropped)} queries dropped: {dropped[:3]}"
        for name, version, a, b, value, _error in collected:
            key = (name, version)
            assert key in history, f"answer from unrecorded snapshot {key}"
            np.testing.assert_array_equal(
                value,
                _expected_answers(history[key], a, b),
                err_msg=f"inconsistent answer at {key}",
            )
