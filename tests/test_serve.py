"""Tests for the synopsis serving engine (repro.serve)."""

import gc
import io
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro import (
    Histogram,
    QueryEngine,
    SYNOPSIS_FAMILIES,
    SparseFunction,
    StreamingHistogramLearner,
    SynopsisStore,
    build_synopsis,
    construct_piecewise_polynomial,
    wavelet_synopsis,
)
from repro.__main__ import main
from repro.core.integral import PiecewisePrefix
from repro.serve.engine import PrefixTable

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def random_distribution(n: int, seed: int = 7) -> np.ndarray:
    """A positive random signal normalized to unit mass."""
    rng = np.random.default_rng(seed)
    values = np.abs(rng.normal(1.0, 0.5, n)) + 1e-6
    return values / values.sum()


def dense_prefix(dense: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(dense)))


# --------------------------------------------------------------------- #
# prefix_integral on the synopsis classes themselves
# --------------------------------------------------------------------- #


class TestPrefixIntegral:
    def test_histogram_matches_cumsum(self, rng):
        values = rng.normal(0.0, 1.0, 300)
        hist = Histogram.from_dense(np.round(values, 1))
        F = dense_prefix(hist.to_dense())
        xs = np.arange(hist.n + 1)
        np.testing.assert_allclose(hist.prefix_integral(xs), F, atol=1e-12)
        assert hist.prefix_integral(0) == 0.0
        assert hist.prefix_integral(hist.n) == pytest.approx(hist.total_mass())

    def test_sparse_matches_cumsum(self, sparse_signal):
        F = dense_prefix(sparse_signal.to_dense())
        xs = np.arange(sparse_signal.n + 1)
        np.testing.assert_allclose(sparse_signal.prefix_integral(xs), F, atol=1e-12)

    def test_wavelet_matches_cumsum(self, rng):
        values = rng.normal(2.0, 1.0, 230)  # non-power-of-two: padded path
        syn = wavelet_synopsis(values, 20)
        F = dense_prefix(syn.to_dense())
        xs = np.arange(syn.n + 1)
        np.testing.assert_allclose(syn.prefix_integral(xs), F, atol=1e-9)
        assert syn.to_histogram() is syn.to_histogram()  # conversion is cached

    @pytest.mark.parametrize("degree", [0, 1, 3, 5])
    def test_piecewise_poly_matches_cumsum(self, degree):
        values = random_distribution(400, seed=degree)
        pp = construct_piecewise_polynomial(values, 4, degree, delta=1000.0)
        F = dense_prefix(pp.to_dense())
        xs = np.arange(pp.n + 1)
        np.testing.assert_allclose(pp.prefix_integral(xs), F, atol=1e-9)

    @pytest.mark.parametrize("degree", [3, 5, 7])
    def test_piecewise_poly_long_pieces_stay_accurate(self, degree):
        """Regression: high-degree partial sums on ~10k-point pieces.

        A Newton-at-zero / hockey-stick evaluation blows up here (errors
        of 1e2+ at degree 5 on unit-mass signals); the scaled-basis
        interpolation must stay at float precision.
        """
        values = random_distribution(65_536, seed=degree)
        pp = construct_piecewise_polynomial(values, 4, degree, delta=1000.0)
        F = dense_prefix(pp.to_dense())
        xs = np.arange(0, pp.n + 1, 97)
        np.testing.assert_allclose(pp.prefix_integral(xs), F[xs], atol=1e-9)

    def test_scalar_positions(self, rng):
        hist = Histogram.from_dense(np.round(rng.normal(0, 1, 50), 1))
        out = hist.prefix_integral(17)
        assert isinstance(out, float)
        assert out == pytest.approx(float(np.sum(hist.to_dense()[:17])))

    def test_out_of_range_raises(self, sparse_signal):
        with pytest.raises(IndexError):
            sparse_signal.prefix_integral(sparse_signal.n + 1)
        with pytest.raises(IndexError):
            sparse_signal.prefix_integral(-1)


# --------------------------------------------------------------------- #
# Engine queries vs brute-force dense evaluation, every family
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def family_engines():
    """One store + engine with every registered family over one signal."""
    values = random_distribution(500)
    store = SynopsisStore()
    for family in SYNOPSIS_FAMILIES:
        store.register(family, values, family=family, k=6)
    return store, QueryEngine(store)


@pytest.mark.parametrize("family", SYNOPSIS_FAMILIES)
class TestQueriesMatchBruteForce:
    """Every query kind against np brute force on the dense reconstruction."""

    def brute(self, store, family):
        return store[family].synopsis.to_dense()

    def test_range_sum(self, family_engines, family):
        store, engine = family_engines
        F = dense_prefix(self.brute(store, family))
        rng = np.random.default_rng(3)
        a = rng.integers(0, 500, 2000)
        b = rng.integers(0, 500, 2000)
        a, b = np.minimum(a, b), np.maximum(a, b)
        np.testing.assert_allclose(
            engine.range_sum(family, a, b), F[b + 1] - F[a], atol=1e-9
        )

    def test_range_mean(self, family_engines, family):
        store, engine = family_engines
        F = dense_prefix(self.brute(store, family))
        rng = np.random.default_rng(9)
        a = rng.integers(0, 500, 2000)
        b = rng.integers(0, 500, 2000)
        a, b = np.minimum(a, b), np.maximum(a, b)
        np.testing.assert_allclose(
            engine.range_mean(family, a, b),
            (F[b + 1] - F[a]) / (b - a + 1),
            atol=1e-9,
        )
        # A single-point range degenerates to the point mass, exactly.
        xs = rng.integers(0, 500, 100)
        np.testing.assert_array_equal(
            engine.range_mean(family, xs, xs), engine.point_mass(family, xs)
        )

    def test_point_mass(self, family_engines, family):
        store, engine = family_engines
        dense = self.brute(store, family)
        rng = np.random.default_rng(4)
        x = rng.integers(0, 500, 1000)
        np.testing.assert_allclose(engine.point_mass(family, x), dense[x], atol=1e-9)

    def test_cdf(self, family_engines, family):
        store, engine = family_engines
        F = dense_prefix(self.brute(store, family))
        rng = np.random.default_rng(5)
        x = rng.integers(0, 500, 1000)
        np.testing.assert_allclose(
            engine.cdf(family, x), F[x + 1] / F[-1], atol=1e-9
        )

    def test_quantile(self, family_engines, family):
        store, engine = family_engines
        F = dense_prefix(self.brute(store, family))
        prefix = engine.table(family).prefix
        if not (prefix.is_piecewise_linear or prefix.is_nondecreasing):
            with pytest.raises(ValueError, match="not monotone"):
                engine.quantile(family, 0.5)
            return
        rng = np.random.default_rng(6)
        qs = rng.random(500)
        # Contract reference: smallest x with F(x + 1) >= q * total, valid
        # even when the reconstruction dips negative (searchsorted is not).
        crossed = F[None, 1:] >= (qs * F[-1])[:, None]
        want = np.where(crossed.any(axis=1), crossed.argmax(axis=1), 499)
        np.testing.assert_array_equal(engine.quantile(family, qs), want)

    def test_batched_agrees_with_scalar(self, family_engines, family):
        store, engine = family_engines
        rng = np.random.default_rng(7)
        a = rng.integers(0, 500, 25)
        b = rng.integers(0, 500, 25)
        a, b = np.minimum(a, b), np.maximum(a, b)
        batched = engine.range_sum(family, a, b)
        scalars = [engine.range_sum(family, int(ai), int(bi)) for ai, bi in zip(a, b)]
        assert all(isinstance(s, float) for s in scalars)
        np.testing.assert_allclose(batched, scalars, rtol=0, atol=0)
        assert engine.quantile(family, 0.5) == int(engine.quantile(family, np.asarray([0.5]))[0])


class TestQueryValidation:
    def test_bad_ranges(self, family_engines):
        _, engine = family_engines
        with pytest.raises(ValueError):
            engine.range_sum("merging", 10, 5)
        with pytest.raises(ValueError):
            engine.range_sum("merging", -1, 5)
        with pytest.raises(ValueError):
            engine.point_mass("merging", 500)
        with pytest.raises(ValueError):
            engine.quantile("merging", 1.5)

    def test_range_mean_rejects_empty_ranges(self, family_engines):
        # The zero-length edge: an empty range (a > b) has no mean (0/0),
        # so it must fail validation rather than return NaN.
        _, engine = family_engines
        with pytest.raises(ValueError, match="ranges must satisfy"):
            engine.range_mean("merging", 10, 9)
        with pytest.raises(ValueError, match="ranges must satisfy"):
            engine.range_mean("merging", np.asarray([0, 7]), np.asarray([5, 6]))
        out = engine.range_mean("merging", 3, 17)
        assert isinstance(out, float) and np.isfinite(out)

    def test_unknown_name(self, family_engines):
        _, engine = family_engines
        with pytest.raises(KeyError, match="registered"):
            engine.range_sum("nope", 0, 1)

    def test_top_k_buckets(self, family_engines):
        store, engine = family_engines
        hist = store["merging"].synopsis
        buckets = engine.top_k_buckets("merging", 3)
        assert len(buckets) == 3
        masses = [m for _, _, m in buckets]
        assert masses == sorted(masses, reverse=True)
        # Heaviest bucket matches a direct piece-mass computation.
        piece_masses = hist.piece_masses()
        assert masses[0] == pytest.approx(float(np.max(piece_masses)))
        left, right, _ = buckets[0]
        u = int(np.argmax(piece_masses))
        assert (left, right) == hist.partition.interval(u)


# --------------------------------------------------------------------- #
# Store and cache behavior
# --------------------------------------------------------------------- #


class TestStore:
    def test_register_and_summary(self):
        store = SynopsisStore()
        values = random_distribution(128)
        store.register("a", values, family="merging", k=4)
        store.register("b", values, family="wavelet", k=4)
        assert set(store.names()) == {"a", "b"}
        assert "a" in store and len(store) == 2
        meta = {m["name"]: m for m in store.summary()}
        assert meta["a"]["family"] == "merging"
        assert meta["b"]["stored_numbers"] == store["b"].result.stored_numbers
        assert meta["a"]["version"] == 0

    def test_reregister_bumps_version(self):
        store = SynopsisStore()
        values = random_distribution(128)
        store.register("a", values, family="merging", k=4)
        store.register("a", values, family="gks", k=4)
        assert store["a"].version == 1
        assert store["a"].family == "gks"

    def test_unknown_family(self):
        store = SynopsisStore()
        with pytest.raises(KeyError, match="unknown synopsis family"):
            store.register("a", random_distribution(64), family="bogus", k=4)

    def test_build_result_metadata(self):
        values = random_distribution(256)
        result = build_synopsis(values, "merging", 5)
        assert result.n == 256
        assert result.stored_numbers == 2 * result.synopsis.num_pieces
        assert result.error == pytest.approx(result.synopsis.l2_to_dense(values))
        assert result.build_seconds >= 0.0


class TestCache:
    def test_hits_and_misses(self):
        store = SynopsisStore()
        values = random_distribution(128)
        store.register("a", values, family="merging", k=4)
        engine = QueryEngine(store)
        engine.range_sum("a", 0, 10)
        engine.cdf("a", np.arange(20))
        engine.quantile("a", 0.25)
        info = engine.cache_info()
        assert info["misses"] == 1  # one table build, reused by every query
        assert info["hits"] == 2

    def test_reregister_invalidates(self):
        store = SynopsisStore()
        values = random_distribution(128)
        store.register("a", values, family="merging", k=4)
        engine = QueryEngine(store)
        first = engine.range_sum("a", 0, 63)
        store.register("a", np.roll(values, 40), family="merging", k=4)
        second = engine.range_sum("a", 0, 63)
        assert engine.cache_info()["misses"] == 2
        assert first != second

    def test_remove_then_reregister_invalidates(self):
        """Versions never repeat for a name, even across remove()."""
        store = SynopsisStore()
        store.register("a", np.ones(64), family="merging", k=4)
        engine = QueryEngine(store)
        assert engine.range_sum("a", 32, 63) == pytest.approx(32.0)
        store.remove("a")
        store.register("a", np.zeros(64) + np.eye(64)[0], family="merging", k=4)
        assert store["a"].version == 1
        assert engine.range_sum("a", 32, 63) == pytest.approx(0.0)
        assert engine.cache_info()["misses"] == 2

    def test_stale_racing_build_does_not_clobber_newer_table(self):
        """A table built from a stale snapshot (a re-register landed
        mid-build) answers its own version, and the entry never holds it."""
        store = SynopsisStore()
        values = random_distribution(128)
        store.register("a", values, family="merging", k=4)
        engine = QueryEngine(store)
        stale = store.table_snapshot("a")  # (0, old synopsis, no table)
        store.register("a", np.roll(values, 11), family="merging", k=4)
        # Emulate the losing thread finishing its build from the stale read.
        store.table_snapshot = lambda name: stale
        try:
            version, table = engine.table_versioned("a")
        finally:
            del store.table_snapshot
        assert version == 0
        assert table.range_sum(0, 10) == PrefixTable.from_synopsis(
            stale[1]
        ).range_sum(0, 10)
        assert store["a"].table is None  # the stale build was not kept
        fresh = engine.table("a")
        assert store["a"].table is fresh
        before = engine.cache_info()["misses"]
        assert engine.table_versioned("a") == (1, fresh)  # a pure hit
        assert engine.cache_info()["misses"] == before

    def test_each_table_is_built_once(self, monkeypatch):
        """Reading every entry of a 250-entry store twice builds each
        entry's table once: the entry holds it, so there is no capacity
        to outgrow."""
        store = SynopsisStore()
        for i in range(250):
            store.register(
                f"w{i}", random_distribution(48, seed=i), family="wavelet", k=8
            )
        engine = QueryEngine(store)
        builds = []
        build = PrefixTable.from_synopsis.__func__

        def counting(cls, synopsis):
            builds.append(synopsis)
            return build(cls, synopsis)

        monkeypatch.setattr(PrefixTable, "from_synopsis", classmethod(counting))
        for _ in range(2):
            for name in store.names():
                engine.range_sum(name, 0, 47)
        assert len(builds) == 250
        assert engine.cache_info()["misses"] == 250
        assert engine.cache_info()["hits"] == 250

    def test_cool_releases_the_table(self, tmp_path):
        """Cooling an entry (in no cohort) drops its table with its
        synopsis: nothing keeps the table's arrays alive."""
        store = SynopsisStore()
        store.register("a", random_distribution(64), family="wavelet", k=8)
        store.save(tmp_path / "store")
        loaded = SynopsisStore.load(tmp_path / "store")
        engine = QueryEngine(loaded)
        engine.range_sum("a", 0, 10)
        lefts = weakref.ref(engine.table("a").prefix.lefts)
        assert loaded.cool("a") > 0
        gc.collect()
        assert lefts() is None
        assert loaded["a"].table is None
        engine.range_sum("a", 0, 10)  # rehydrates and builds anew
        assert engine.cache_info()["misses"] == 2


    def test_tables_stay_current_under_concurrent_writes(self, tmp_path):
        """Readers on more threads than cores race a writer that cools and
        re-registers entries: every answer equals the table of the
        synopsis that carried its version, and no entry is left holding
        a table of a synopsis it no longer has."""
        names = [f"e{i}" for i in range(4)]
        store = SynopsisStore()
        for i, name in enumerate(names):
            values = random_distribution(64, seed=i)
            store.register(name, values, family="merging", k=4)
        store.save(tmp_path / "store")
        loaded = SynopsisStore.load(tmp_path / "store")
        engine = QueryEngine(loaded)
        reference = {
            (name, 0): PrefixTable.from_synopsis(loaded[name].synopsis)
            for name in names
        }
        a, b = np.arange(0, 60, 3), np.arange(3, 63, 3)
        stop = threading.Event()
        answers, failures = [], []

        def writer():
            rng = np.random.default_rng(1)
            try:
                while not stop.is_set():
                    name = names[int(rng.integers(len(names)))]
                    if rng.random() < 0.7:
                        loaded.cool(name)
                        continue
                    values = random_distribution(64, seed=int(rng.integers(1000)))
                    entry = loaded.register(name, values, family="merging", k=4)
                    reference[(name, entry.version)] = PrefixTable.from_synopsis(
                        entry.synopsis
                    )
            except Exception as exc:  # pragma: no cover - fails the test
                failures.append(exc)

        def reader(seed):
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    name = names[int(rng.integers(len(names)))]
                    version, table = engine.table_versioned(name)
                    answers.append((name, version, table.range_sum(a, b)))
            except Exception as exc:  # pragma: no cover - fails the test
                failures.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(seed,)) for seed in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(1.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        assert len({version for _, version, _ in answers}) > 1
        for name, version, value in answers:
            np.testing.assert_array_equal(
                value, reference[(name, version)].range_sum(a, b)
            )
        for name in names:
            entry = loaded[name]
            if entry.table is not None:
                np.testing.assert_array_equal(
                    entry.table.range_sum(a, b),
                    PrefixTable.from_synopsis(entry.result.synopsis).range_sum(a, b),
                )


# --------------------------------------------------------------------- #
# Streaming-backed entries
# --------------------------------------------------------------------- #


class TestStreaming:
    def make_stream(self, seed=11):
        rng = np.random.default_rng(seed)
        learner = StreamingHistogramLearner(n=100, k=3)
        learner.extend(rng.integers(0, 50, 500))
        return rng, learner

    def test_register_stream(self):
        _, learner = self.make_stream()
        store = SynopsisStore()
        entry = store.register_stream("live", learner)
        assert entry.is_streaming
        assert entry.k == learner.k
        assert store.summary()[0]["samples_seen"] == 500

    def test_refresh_bumps_version_and_changes_answers(self):
        rng, learner = self.make_stream()
        store = SynopsisStore()
        store.register_stream("live", learner)
        engine = QueryEngine(store)
        before = engine.cdf("live", 49)
        assert before == pytest.approx(1.0, abs=1e-9)  # all mass in [0, 50)
        learner.extend(rng.integers(50, 100, 2000))  # shift mass right
        store.refresh("live")
        assert store["live"].version == 1
        after = engine.cdf("live", 49)
        assert after < 0.5
        assert engine.cache_info()["misses"] == 2  # old table invalidated

    def test_refresh_non_stream_raises(self):
        store = SynopsisStore()
        store.register("a", random_distribution(64), family="merging", k=4)
        with pytest.raises(ValueError, match="not backed by a stream"):
            store.refresh("a")
        with pytest.raises(ValueError, match="not backed by a stream"):
            store.extend("a", np.asarray([1]))


# --------------------------------------------------------------------- #
# Batched throughput: the point of the engine
# --------------------------------------------------------------------- #


class TestBatchedSpeed:
    def test_batched_beats_python_loop_10x(self):
        values = random_distribution(4096, seed=2)
        store = SynopsisStore()
        store.register("s", values, family="merging", k=16)
        engine = QueryEngine(store)
        rng = np.random.default_rng(8)
        B = 10_000
        a = rng.integers(0, 4096, B)
        b = rng.integers(0, 4096, B)
        a, b = np.minimum(a, b), np.maximum(a, b)
        engine.range_sum("s", a, b)  # warm the table

        start = time.perf_counter()
        batched = engine.range_sum("s", a, b)
        batched_time = time.perf_counter() - start

        loop_n = 500  # time a slice of the loop and extrapolate
        start = time.perf_counter()
        looped = [
            engine.range_sum("s", int(a[i]), int(b[i])) for i in range(loop_n)
        ]
        loop_time = (time.perf_counter() - start) * (B / loop_n)

        np.testing.assert_allclose(batched[:loop_n], looped, rtol=0, atol=0)
        assert loop_time > 10.0 * batched_time, (
            f"batched {batched_time * 1e3:.2f}ms vs loop {loop_time * 1e3:.2f}ms"
        )


# --------------------------------------------------------------------- #
# PrefixTable internals and CLI
# --------------------------------------------------------------------- #


class TestPrefixTable:
    def test_rejects_unknown_synopsis(self):
        with pytest.raises(TypeError):
            PrefixTable.from_synopsis(object())

    def test_sparse_function_table(self, sparse_signal):
        table = PrefixTable.from_synopsis(sparse_signal)
        F = dense_prefix(sparse_signal.to_dense())
        np.testing.assert_allclose(
            table.integral(np.arange(sparse_signal.n + 1)), F, atol=1e-12
        )
        assert table.total_mass == pytest.approx(sparse_signal.total_mass())

    def test_zero_mass_cdf_raises(self):
        table = PrefixTable.from_synopsis(
            Histogram.from_dense(np.zeros(8) + np.array([0, 0, 0, 0, 0, 0, 0, 0]))
        )
        with pytest.raises(ValueError, match="positive total mass"):
            table.cdf(3)
        with pytest.raises(ValueError, match="positive total mass"):
            table.quantile(0.5)

    def test_quantile_exact_with_negative_pieces(self):
        """Piecewise-constant quantile honors the first-crossing contract
        even when a piece is negative (the prefix is non-monotone)."""
        dense = np.array([2.0, 2.0, 2.0, -1.0, -1.0, 3.0, 3.0, 3.0])
        table = PrefixTable.from_synopsis(Histogram.from_dense(dense))
        assert table.prefix.is_piecewise_linear
        F = dense_prefix(dense)
        qs = np.concatenate(([0.0, 1.0], np.random.default_rng(12).random(200)))
        targets = qs * F[-1]
        crossed = F[None, 1:] >= targets[:, None]
        want = np.where(crossed.any(axis=1), crossed.argmax(axis=1), dense.size - 1)
        np.testing.assert_array_equal(table.quantile(qs), want)

    def test_quantile_non_monotone_poly_raises(self):
        # Piece 0: S(s) = s^2 - 1 (zero mass, dips negative); piece 1 constant.
        prefix = PiecewisePrefix(
            8,
            np.array([0, 4]),
            np.array([[-1.0, 0.0, 1.0], [2.0, 2.0, 0.0]]),
        )
        table = PrefixTable(prefix)
        assert not prefix.is_piecewise_linear
        assert not prefix.is_nondecreasing
        with pytest.raises(ValueError, match="not monotone"):
            table.quantile(0.5)
        assert table.range_sum(0, 7) == pytest.approx(4.0)

    def test_quantile_monotone_poly_uses_bisection(self):
        # One quadratic piece with S(s) = (1 + s)^2 / 2: nondecreasing.
        prefix = PiecewisePrefix(4, np.array([0]), np.array([[0.5, 1.0, 0.5]]))
        table = PrefixTable(prefix)
        assert not prefix.is_piecewise_linear
        assert prefix.is_nondecreasing
        F = table.integral(np.arange(5))
        qs = np.random.default_rng(13).random(100)
        crossed = F[None, 1:] >= (qs * F[-1])[:, None]
        want = np.where(crossed.any(axis=1), crossed.argmax(axis=1), 3)
        np.testing.assert_array_equal(table.quantile(qs), want)


class TestInnerProduct:
    """The richer-queries satellite: <f, g> between two stored synopses."""

    @pytest.mark.parametrize("family_b", SYNOPSIS_FAMILIES)
    def test_matches_dense_dot_for_every_pair(self, family_engines, family_b):
        store, engine = family_engines
        dense_b = store[family_b].synopsis.to_dense()
        for family_a in ("merging", "poly", "exact"):
            dense_a = store[family_a].synopsis.to_dense()
            got = engine.inner_product(family_a, family_b)
            assert isinstance(got, float)
            assert got == pytest.approx(float(np.dot(dense_a, dense_b)), abs=1e-9)

    def test_symmetric_and_self_is_squared_norm(self, family_engines):
        store, engine = family_engines
        assert engine.inner_product("merging", "wavelet") == pytest.approx(
            engine.inner_product("wavelet", "merging")
        )
        dense = store["merging"].synopsis.to_dense()
        assert engine.inner_product("merging", "merging") == pytest.approx(
            float(np.dot(dense, dense))
        )

    def test_closed_form_used_for_constant_pieces(self, family_engines):
        # The merged-partition closed form is O(k_a + k_b): it must not
        # densify the domain for piecewise-constant tables.
        _, engine = family_engines
        table = engine.table("merging")
        other = engine.table("wavelet")
        calls = []
        original = PrefixTable.point_mass
        try:
            PrefixTable.point_mass = lambda self, x: calls.append(1) or original(
                self, x
            )
            table.inner_product(other)
        finally:
            PrefixTable.point_mass = original
        assert calls == []

    def test_mismatched_domains_raise(self, family_engines):
        _, engine = family_engines
        store2 = SynopsisStore()
        store2.register("short", random_distribution(100), family="merging", k=4)
        other = QueryEngine(store2).table("short")
        with pytest.raises(ValueError, match="matching domains"):
            engine.table("merging").inner_product(other)

    def test_router_pairs_across_shards(self):
        from repro import ShardMap
        from repro.serve.router import ShardRouter

        values = random_distribution(300)
        # Pin the two entries to different shards so the pairing is
        # genuinely cross-shard.
        router = ShardRouter(num_shards=2, shard_map=ShardMap(2, {"a": 0, "b": 1}))
        router.register("a", values, family="merging", k=6)
        router.register("b", values, family="wavelet", k=6)
        dense_a = router["a"].synopsis.to_dense()
        dense_b = router["b"].synopsis.to_dense()
        assert router.inner_product("a", "b") == pytest.approx(
            float(np.dot(dense_a, dense_b))
        )
        with pytest.raises(KeyError, match="registered"):
            router.inner_product("a", "missing")

    def test_frontend_request_kind(self):
        import asyncio

        from repro import ShardMap
        from repro.serve.frontend import AsyncServingFrontend, QueryRequest
        from repro.serve.router import ShardRouter

        values = random_distribution(300)
        router = ShardRouter(num_shards=2, shard_map=ShardMap(2, {"a": 0, "b": 1}))
        router.register("a", values, family="merging", k=6)
        router.register("b", values, family="wavelet", k=6)
        requests = [
            QueryRequest("inner_product", "a", ("b",)),
            QueryRequest("inner_product", "b", ("a",)),
            QueryRequest("inner_product", "a", ("missing",)),
            QueryRequest("range_sum", "a", (0, 99)),
        ]
        with AsyncServingFrontend(router) as frontend:
            results = asyncio.run(frontend.query_batch(requests))
        want = router.inner_product("a", "b")
        assert results[0].ok and results[0].value == pytest.approx(want)
        assert results[1].ok and results[1].value == pytest.approx(want)
        assert not results[2].ok and "missing" in results[2].error
        assert results[3].ok  # a poisoned pairing never fails the batch
        assert results[0].version == router["a"].version


def _repro_subprocess(argv, unbuffered: bool) -> subprocess.Popen:
    """``python -m repro <argv>``, every pipe open."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def _serve_subprocess(unbuffered: bool) -> subprocess.Popen:
    """``python -m repro serve`` over one merging synopsis, every pipe open."""
    return _repro_subprocess(
        ["serve", "--n", "256", "--k", "4", "--families", "merging"], unbuffered
    )


class TestServeCLI:
    def test_query_subcommand(self, capsys):
        assert main(["query", "--n", "512", "--k", "4", "--num-queries", "100"]) == 0
        out = capsys.readouterr().out
        assert "queries/sec" in out and "merging" in out

    def test_query_quantile_kind(self, capsys):
        assert main(
            ["query", "--n", "256", "--kind", "quantile", "--num-queries", "50"]
        ) == 0
        assert "quantile x 50" in capsys.readouterr().out

    def test_query_non_monotone_quantile_errors_cleanly(self):
        # The steps dataset's poly fit dips negative: a clean one-line
        # error, not a traceback (matching the serve loop's handling).
        with pytest.raises(SystemExit, match="not monotone"):
            main(["query", "--family", "poly", "--kind", "quantile",
                  "--num-queries", "10"])

    def test_serve_loop(self):
        from repro.serve.cli import serve_main

        commands = io.StringIO(
            "summary\nrange merging 0 100\npoint merging 5\ncdf merging 100\n"
            "quantile merging 0.5\ntopk merging 2\ncache\nbad cmd\n"
            "range nope 0 1\nquit\n"
        )
        out = io.StringIO()
        assert serve_main(
            ["--n", "512", "--k", "4", "--families", "merging,wavelet"],
            stdin=commands,
            stdout=out,
        ) == 0
        text = out.getvalue()
        assert "serving 2 synopses" in text
        assert "family=merging" in text and "family=wavelet" in text
        assert "mass=" in text
        assert "unknown command 'bad'" in text
        assert "error:" in text

    def test_serve_stops_quietly_when_reader_closes(self, tmp_path):
        # ``serve ... | grep -q`` closes the pipe while the REPL still has
        # output to write: the loop must end without a traceback, and a
        # save issued before the close must be complete on disk.
        target = tmp_path / "saved"
        proc = _serve_subprocess(unbuffered=True)  # each line goes out
        try:
            proc.stdin.write(f"save {target}\n")
            proc.stdin.flush()
            assert proc.stdout.readline().startswith("serving 1 synopses")
            assert proc.stdout.readline().startswith("saved 1 entries")
            proc.stdout.close()
            _, stderr = proc.communicate("summary\n" * 50 + "quit\n", timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 0, stderr
        assert stderr == ""
        store = SynopsisStore.load(target, lazy=False)  # reads every payload
        assert store.names() == ["merging"]
        assert np.isfinite(QueryEngine(store).range_sum("merging", 0, 255))

    @pytest.mark.parametrize(
        "summaries",
        [
            1,  # all output still buffered: only the final flush fails
            400,  # ~32 KB of output: a flush in the middle of the loop fails
        ],
    )
    def test_serve_stops_quietly_when_buffered_reader_closes(
        self, tmp_path, summaries
    ):
        # A block-buffered stdout (any real pipeline) writes nothing until
        # 8 KB or exit, so the reader can close before the first write.
        target = tmp_path / "saved"
        proc = _serve_subprocess(unbuffered=False)
        try:
            proc.stdout.close()
            _, stderr = proc.communicate(
                f"save {target}\n" + "summary\n" * summaries + "quit\n",
                timeout=60,
            )
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 0, stderr
        assert stderr == ""
        store = SynopsisStore.load(target, lazy=False)
        assert store.names() == ["merging"]

    @pytest.mark.parametrize(
        "unbuffered, lines_read",
        [
            (True, 1),  # ``| grep -q``: leaves after the first line
            (True, 0),  # leaves before the first print
            (False, 0),  # block-buffered: only the exit flush writes
        ],
    )
    def test_inspect_exits_quietly_when_reader_closes(self, unbuffered, lines_read):
        # Every subcommand, not just serve, must end quietly with status 0
        # when the reader of its output goes away early.
        golden = FIXTURES / "golden_sharded_store"
        proc = _repro_subprocess(["inspect", str(golden)], unbuffered)
        try:
            for _ in range(lines_read):
                assert "schema=2 shards=2" in proc.stdout.readline()
            proc.stdout.close()
            _, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 0, stderr
        assert stderr == ""

    def test_unknown_command_still_errors(self, capsys):
        assert main(["bogus"]) == 2
        assert "query" in capsys.readouterr().out

    def test_query_inner_product_kind(self, capsys):
        assert main(
            ["query", "--n", "256", "--kind", "inner_product",
             "--num-queries", "20"]
        ) == 0
        assert "inner_product x 20" in capsys.readouterr().out

    def test_query_auto_family_prints_plan(self, capsys):
        assert main(
            ["query", "--n", "512", "--family", "auto", "--max-bytes", "300",
             "--num-queries", "50"]
        ) == 0
        out = capsys.readouterr().out
        assert "chosen:" in out and "queries/sec" in out

    def test_query_auto_infeasible_budget_errors_cleanly(self):
        with pytest.raises(SystemExit, match="no synopsis family satisfies"):
            main(
                ["query", "--n", "256", "--family", "auto",
                 "--max-bytes", "8", "--max-error", "1e-12"]
            )

    def test_auto_without_budget_flags_errors_cleanly(self):
        # --family auto with no bounds at all would degenerate to the
        # lossless O(n) copy; both CLIs surface the planner's refusal.
        with pytest.raises(SystemExit, match="unconstrained budget"):
            main(["query", "--n", "256", "--family", "auto"])
        from repro.serve.cli import serve_main

        with pytest.raises(SystemExit, match="unconstrained budget"):
            serve_main(["--n", "256", "--families", "auto"])

    def test_serve_auto_family_and_plan_command(self):
        from repro.serve.cli import serve_main

        commands = io.StringIO(
            "summary\nplan auto\nplan merging\ninner auto merging\n"
            "range auto 0 100\nquit\n"
        )
        out = io.StringIO()
        assert serve_main(
            ["--n", "512", "--k", "4", "--families", "merging,auto",
             "--max-error", "2.5"],
            stdin=commands,
            stdout=out,
        ) == 0
        text = out.getvalue()
        assert "planned" in text  # summary marks the auto entry
        assert "chosen:" in text  # plan auto prints the decision record
        assert "not auto-planned" in text  # plan merging explains itself
        assert "probe" in text  # candidate lines include the cost class
