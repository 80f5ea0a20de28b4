"""Tests for sliding-window streaming: WindowedStreamLearner, the
Misra–Gries sketch, heavy hitters through every serving layer, and
mid-window persistence."""

import io
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AsyncServingFrontend,
    MisraGries,
    QueryEngine,
    QueryRequest,
    ShardRouter,
    SynopsisStore,
    WindowedStreamLearner,
)
from repro.core.merging import construct_histogram_partition
from repro.serve.cli import serve_main
from repro.__main__ import main


def skewed_stream(rng, n, size, heavy=(), heavy_mass=0.3):
    """A stream where each position in ``heavy`` gets an equal share of
    ``heavy_mass`` and the rest is uniform."""
    weights = np.full(n, (1.0 - heavy_mass * bool(heavy)) / n)
    for position in heavy:
        weights[position] += heavy_mass / len(heavy)
    weights /= weights.sum()
    return rng.choice(n, size=size, p=weights)


def window_counts(learner):
    """Exact counts of the learner's live window, via its epoch ring."""
    counts = Counter()
    for epoch in learner._epochs:
        counts.update(dict(zip(epoch.positions.tolist(), epoch.counts.tolist())))
    return counts


# --------------------------------------------------------------------- #
# Misra–Gries sketch
# --------------------------------------------------------------------- #


class TestMisraGries:
    @given(
        st.integers(min_value=1, max_value=12),
        st.lists(
            st.lists(st.integers(min_value=0, max_value=30), max_size=50),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_underestimates_within_bound(self, capacity, batches):
        """The classic deterministic MG bound: counters never exceed true
        counts and undershoot by at most total / (capacity + 1)."""
        sketch = MisraGries(capacity)
        truth: Counter = Counter()
        for batch in batches:
            arr = np.asarray(batch, dtype=np.int64)
            positions, counts = np.unique(arr, return_counts=True)
            sketch.update(positions, counts)
            truth.update(batch)
        total = sum(truth.values())
        assert sketch.total == total
        assert sketch.num_counters <= capacity
        positions, estimates = sketch.estimates()
        estimated = dict(zip(positions.tolist(), estimates.tolist()))
        slack = total / (capacity + 1)
        for item, true_count in truth.items():
            estimate = estimated.get(item, 0)
            assert 0 <= true_count - estimate <= slack, (item, true_count, estimate)
        for item in estimated:
            assert item in truth  # never invents items

    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(st.integers(min_value=0, max_value=20), max_size=60),
        st.lists(st.integers(min_value=0, max_value=20), max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_bound(self, capacity, left, right):
        """Merged sketches keep the bound over the combined mass."""
        sketches = []
        truth: Counter = Counter()
        for batch in (left, right):
            sketch = MisraGries(capacity)
            if batch:
                positions, counts = np.unique(
                    np.asarray(batch, dtype=np.int64), return_counts=True
                )
                sketch.update(positions, counts)
            sketches.append(sketch)
            truth.update(batch)
        merged = sketches[0].merge(sketches[1])
        total = sum(truth.values())
        assert merged.total == total
        assert merged.num_counters <= capacity
        positions, estimates = merged.estimates()
        estimated = dict(zip(positions.tolist(), estimates.tolist()))
        slack = total / (capacity + 1)
        for item, true_count in truth.items():
            estimate = estimated.get(item, 0)
            assert 0 <= true_count - estimate <= slack

    def test_state_round_trip(self):
        sketch = MisraGries(3)
        sketch.update(np.asarray([1, 5, 9]), np.asarray([7, 2, 4]))
        sketch.update(np.asarray([2, 5]), np.asarray([3, 3]))
        clone = MisraGries.from_state(json.loads(json.dumps(sketch.state_dict())))
        assert clone.capacity == sketch.capacity
        assert clone.total == sketch.total
        np.testing.assert_array_equal(clone.estimates()[0], sketch.estimates()[0])
        np.testing.assert_array_equal(clone.estimates()[1], sketch.estimates()[1])

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            MisraGries(0)
        with pytest.raises(ValueError, match="strictly increasing"):
            MisraGries(4, positions=[3, 1], counts=[1, 1], total=2)
        with pytest.raises(ValueError, match="more counters"):
            MisraGries(1, positions=[1, 2], counts=[1, 1], total=2)


# --------------------------------------------------------------------- #
# Window mechanics: epoch ring, expiry, empirical
# --------------------------------------------------------------------- #


class TestWindowMechanics:
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=39), max_size=120),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=4, max_value=60),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_equals_trailing_samples(self, batches, window, epochs):
        """Expiry correctness: the window aggregate is exactly the counts
        of the last ``window_total`` samples, and the window length stays
        in [window_size, window_size + epoch_size) once filled."""
        epochs = min(epochs, window)
        learner = WindowedStreamLearner(
            n=40, k=3, window_size=window, num_epochs=epochs
        )
        stream = []
        for batch in batches:
            learner.extend(np.asarray(batch, dtype=np.int64))
            stream.extend(batch)
        assert learner.samples_seen == len(stream)
        assert learner.window_total <= len(stream)
        if len(stream) >= window:
            assert window <= learner.window_total < window + learner.epoch_size
        tail = stream[len(stream) - learner.window_total :]
        reference = Counter(tail)
        expected = sorted(reference)
        positions, counts = learner.window_counts()
        assert positions.tolist() == expected
        assert counts.tolist() == [reference[p] for p in expected]
        # The ring agrees with the aggregate.
        assert window_counts(learner) == reference

    def test_one_batch_spans_many_epochs(self):
        learner = WindowedStreamLearner(n=10, k=2, window_size=40, num_epochs=4)
        learner.extend(np.tile(np.arange(10), 13))  # 130 samples at once
        assert learner.window_total < 40 + learner.epoch_size
        assert learner.samples_seen == 130
        total = sum(epoch.total for epoch in learner._epochs)
        assert total == learner.window_total

    def test_sparse_aggregate_path_matches_dense(self):
        """The huge-universe sorted-merge aggregate (subtract on expiry)
        produces the same window as the dense scatter-add path."""
        rng = np.random.default_rng(6)
        dense = WindowedStreamLearner(n=500, k=3, window_size=1500, num_epochs=3)
        sparse = WindowedStreamLearner(n=500, k=3, window_size=1500, num_epochs=3)
        sparse._window.use_dense = False  # pin the fallback path
        for _ in range(5):
            batch = rng.integers(0, 500, 700)
            dense.extend(batch)
            sparse.extend(batch)
        for got, want in zip(dense.window_counts(), sparse.window_counts()):
            np.testing.assert_array_equal(got, want)
        assert dense.window_total == sparse.window_total
        assert dense.heavy_hitters(0.05) == sparse.heavy_hitters(0.05)

    def test_empirical_is_window_distribution_and_cached(self):
        learner = WindowedStreamLearner(n=20, k=2, window_size=10, num_epochs=2)
        learner.extend(np.full(10, 3))
        learner.extend(np.full(10, 7))  # the 3s have fully expired
        empirical = learner.empirical()
        assert learner.empirical() is empirical
        np.testing.assert_array_equal(empirical.indices, [7])
        np.testing.assert_allclose(empirical.values, [1.0])
        learner.extend(np.asarray([4]))
        assert learner.empirical() is not empirical

    def test_empty_batch_noop_and_validation(self):
        learner = WindowedStreamLearner(n=10, k=2, window_size=5)
        learner.extend(np.asarray([], dtype=np.int64))
        assert learner.samples_seen == 0
        with pytest.raises(ValueError, match=r"\[0, n\)"):
            learner.extend(np.asarray([10]))
        with pytest.raises(ValueError, match="no samples"):
            learner.empirical()
        assert learner.heavy_hitters(0.5) == []

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="window size"):
            WindowedStreamLearner(n=10, k=2, window_size=0)
        with pytest.raises(ValueError, match="num_epochs"):
            WindowedStreamLearner(n=10, k=2, window_size=4, num_epochs=5)
        with pytest.raises(ValueError, match="sketch eps"):
            WindowedStreamLearner(n=10, k=2, window_size=4, sketch_eps=1.5)
        with pytest.raises(ValueError, match="refresh_epochs"):
            WindowedStreamLearner(n=10, k=2, window_size=4, refresh_epochs=0)


# --------------------------------------------------------------------- #
# Heavy hitters: the (phi - eps) guarantee
# --------------------------------------------------------------------- #


def assert_heavy_hitter_guarantee(learner, phi):
    """Both directions of the guarantee plus counter soundness."""
    truth = window_counts(learner)
    total = learner.window_total
    hitters = learner.heavy_hitters(phi)
    reported = dict(hitters)
    for position, estimate in hitters:
        assert estimate <= truth[position]  # never overestimates
    for position, true_count in truth.items():
        if true_count >= phi * total:
            assert position in reported, (position, true_count, phi * total)
    for position in reported:
        assert truth[position] >= (phi - learner.sketch_eps) * total
    # Sorted heaviest-first by estimate.
    estimates = [estimate for _, estimate in hitters]
    assert estimates == sorted(estimates, reverse=True)


class TestHeavyHitters:
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=19), max_size=80),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([0.1, 0.2, 0.4]),
    )
    @settings(max_examples=80, deadline=None)
    def test_guarantee_on_arbitrary_streams(self, batches, phi):
        learner = WindowedStreamLearner(
            n=20, k=3, window_size=60, num_epochs=3, sketch_eps=0.05
        )
        for batch in batches:
            learner.extend(np.asarray(batch, dtype=np.int64))
        if learner.window_total:
            assert_heavy_hitter_guarantee(learner, phi)

    def test_planted_hitters_are_found(self):
        rng = np.random.default_rng(5)
        learner = WindowedStreamLearner(
            n=1000, k=4, window_size=20_000, sketch_eps=0.01
        )
        learner.extend(
            skewed_stream(rng, 1000, 50_000, heavy=(17, 400), heavy_mass=0.4)
        )
        hitters = learner.heavy_hitters(0.1)
        assert {position for position, _ in hitters} == {17, 400}
        assert_heavy_hitter_guarantee(learner, 0.1)

    def test_expired_hitter_disappears(self):
        """Adversarial slide: a position that dominated the early stream
        but stopped arriving must drop out once the window passes it."""
        rng = np.random.default_rng(9)
        learner = WindowedStreamLearner(
            n=100, k=3, window_size=5_000, num_epochs=5, sketch_eps=0.02
        )
        learner.extend(skewed_stream(rng, 100, 5_000, heavy=(42,), heavy_mass=0.5))
        assert 42 in {position for position, _ in learner.heavy_hitters(0.1)}
        # Two full windows of traffic in which 42 never appears.
        clean = skewed_stream(rng, 100, 10_000, heavy=(7,), heavy_mass=0.4)
        learner.extend(clean[clean != 42])
        hitters = dict(learner.heavy_hitters(0.1))
        assert 42 not in hitters
        assert 7 in hitters
        assert_heavy_hitter_guarantee(learner, 0.1)

    def test_phase_change_within_window(self):
        """A hitter arriving only in the newest epochs is still caught."""
        rng = np.random.default_rng(13)
        learner = WindowedStreamLearner(
            n=50, k=3, window_size=4_000, num_epochs=8, sketch_eps=0.02
        )
        learner.extend(skewed_stream(rng, 50, 3_000))  # uniform phase
        learner.extend(np.full(1_000, 31))  # burst phase
        hitters = dict(learner.heavy_hitters(0.2))
        assert 31 in hitters
        assert_heavy_hitter_guarantee(learner, 0.2)

    def test_phi_validation(self):
        learner = WindowedStreamLearner(
            n=10, k=2, window_size=5, sketch_eps=0.1
        )
        with pytest.raises(ValueError, match="phi must lie"):
            learner.heavy_hitters(0.0)
        with pytest.raises(ValueError, match="phi must lie"):
            learner.heavy_hitters(1.5)
        with pytest.raises(ValueError, match="exceed the sketch eps"):
            learner.heavy_hitters(0.05)


# --------------------------------------------------------------------- #
# Windowed histogram: the paper's merging stage over the live window
# --------------------------------------------------------------------- #


class TestWindowedHistogram:
    def test_matches_merging_stage_over_window(self):
        rng = np.random.default_rng(3)
        learner = WindowedStreamLearner(n=200, k=5, window_size=2_000)
        learner.extend(rng.integers(0, 200, 5_000))
        streamed = learner.histogram(force_refresh=True)
        reference = construct_histogram_partition(
            learner.empirical(), 5, delta=1000.0, gamma=1.0
        ).histogram
        assert streamed == reference
        assert streamed.is_distribution()

    def test_refresh_cadence_is_epoch_granular(self):
        learner = WindowedStreamLearner(
            n=50, k=3, window_size=1_000, num_epochs=10, refresh_epochs=2
        )
        rng = np.random.default_rng(4)
        learner.extend(rng.integers(0, 50, 500))
        first = learner.histogram()
        learner.extend(rng.integers(0, 50, 150))  # < 2 epochs of drift
        assert learner.histogram() is first
        learner.extend(rng.integers(0, 50, 100))  # crosses 2 * 100 samples
        assert learner.histogram() is not first

    def test_zero_watermark_always_stale(self):
        learner = WindowedStreamLearner(n=10, k=2, window_size=100)
        learner.extend(np.asarray([1]))
        assert learner.stale_since(0)
        assert not learner.stale_since(1)


# --------------------------------------------------------------------- #
# Persistence: resume mid-window with identical answers
# --------------------------------------------------------------------- #


def make_learner(seed=7, samples=7_000):
    rng = np.random.default_rng(seed)
    learner = WindowedStreamLearner(
        n=300, k=4, window_size=3_000, num_epochs=6, sketch_eps=0.02
    )
    learner.extend(
        skewed_stream(rng, 300, samples, heavy=(12, 250), heavy_mass=0.35)
    )
    return learner


class TestWindowedPersistence:
    def test_state_round_trip_mid_window(self):
        learner = make_learner()
        clone = WindowedStreamLearner.from_state(
            json.loads(json.dumps(learner.state_dict()))
        )
        assert clone.samples_seen == learner.samples_seen
        assert clone.window_total == learner.window_total
        assert clone.heavy_hitters(0.1) == learner.heavy_hitters(0.1)
        for got, want in zip(clone.window_counts(), learner.window_counts()):
            np.testing.assert_array_equal(got, want)
        assert clone.histogram() == learner.histogram()
        # The revived learner keeps answering identically as the stream
        # continues — same epoch boundaries, same expiries, same sketches.
        rng = np.random.default_rng(21)
        for _ in range(3):
            batch = skewed_stream(rng, 300, 1_700, heavy=(99,), heavy_mass=0.5)
            learner.extend(batch)
            clone.extend(batch)
            assert clone.heavy_hitters(0.1) == learner.heavy_hitters(0.1)
            assert clone.window_total == learner.window_total
            assert clone.histogram(force_refresh=True) == learner.histogram(
                force_refresh=True
            )

    def test_cached_histogram_and_watermark_round_trip(self):
        learner = make_learner()
        cached = learner.histogram()
        clone = WindowedStreamLearner.from_state(
            json.loads(json.dumps(learner.state_dict()))
        )
        assert clone.histogram() == cached
        assert clone._cached_at == learner._cached_at

    def test_from_state_validation(self):
        state = json.loads(json.dumps(make_learner().state_dict()))
        bad = json.loads(json.dumps(state))
        bad["total"] = 1  # smaller than the window total
        with pytest.raises(ValueError, match="lifetime total"):
            WindowedStreamLearner.from_state(bad)
        bad = json.loads(json.dumps(state))
        bad["epochs"] = []
        with pytest.raises(ValueError, match="epoch list"):
            WindowedStreamLearner.from_state(bad)
        bad = json.loads(json.dumps(state))
        bad["epochs"][0]["total"] = bad["epochs"][0]["total"] + 1
        with pytest.raises(ValueError, match="does not match"):
            WindowedStreamLearner.from_state(bad)
        bad = json.loads(json.dumps(state))
        bad["kind"] = "streaming_learner"
        with pytest.raises(ValueError, match="does not match"):
            WindowedStreamLearner.from_state(bad)
        bad = json.loads(json.dumps(state))
        bad["epochs"][0]["sketch"]["positions"][-1] = bad["n"] + 5
        with pytest.raises(ValueError, match="sketch positions"):
            WindowedStreamLearner.from_state(bad)

    def test_dense_subtract_validates_before_mutation(self):
        # Review fix: the dense aggregate path must reject (not silently
        # corrupt) subtraction of counts that are not fully present.
        from repro.sampling.streaming import CountAggregate

        agg = CountAggregate(100, use_dense=True)
        agg.add_unique(np.asarray([3, 7]), np.asarray([5, 5]))
        with pytest.raises(ValueError, match="more counts than present"):
            agg.subtract_unique(np.asarray([3]), np.asarray([9]))
        with pytest.raises(ValueError, match="more counts than present"):
            agg.subtract_unique(np.asarray([4]), np.asarray([1]))
        positions, counts = agg.arrays()
        np.testing.assert_array_equal(positions, [3, 7])
        np.testing.assert_array_equal(counts, [5, 5])


# --------------------------------------------------------------------- #
# Serving: store, engine, router, front end, persistence, CLI
# --------------------------------------------------------------------- #


@pytest.fixture
def served_store():
    store = SynopsisStore()
    store.register_stream("window", make_learner())
    rng = np.random.default_rng(2)
    store.register(
        "plain", np.abs(rng.normal(1.0, 0.4, 300)) + 1e-6, family="merging", k=4
    )
    return store


class TestWindowedServing:
    def test_store_and_engine_answer(self, served_store):
        engine = QueryEngine(served_store)
        expected = served_store["window"].learner.heavy_hitters(0.1)
        assert expected  # the fixture plants real hitters
        assert served_store.heavy_hitters("window", 0.1) == expected
        assert engine.heavy_hitters("window", 0.1) == expected

    def test_non_windowed_entries_rejected(self, served_store):
        engine = QueryEngine(served_store)
        with pytest.raises(ValueError, match="not backed by a sliding-window"):
            engine.heavy_hitters("plain", 0.1)
        learner = make_learner(samples=500)
        from repro import StreamingHistogramLearner

        growing = StreamingHistogramLearner(n=10, k=2)
        growing.extend(np.asarray([1, 2, 3]))
        served_store.register_stream("growing", growing)
        with pytest.raises(ValueError, match="not backed by a sliding-window"):
            served_store.heavy_hitters("growing", 0.1)

    def test_extend_refreshes_from_live_window(self, served_store):
        """A windowed entry's synopsis tracks the *window*, not the full
        stream: after the window slides onto a shifted distribution, the
        refreshed synopsis is built from the new window's empirical."""
        entry = served_store["window"]
        learner = entry.learner
        version_before = entry.version
        rng = np.random.default_rng(31)
        served_store.extend(
            "window", skewed_stream(rng, 300, 8_000, heavy=(5,), heavy_mass=0.6)
        )
        assert entry.version > version_before
        rebuilt = entry.result.synopsis
        reference = construct_histogram_partition(
            learner.empirical(), learner.k, delta=1000.0, gamma=1.0
        ).histogram
        assert rebuilt == reference

    def test_router_and_frontend(self, served_store):
        router = ShardRouter(num_shards=2)
        router.register_stream("window", make_learner())
        rng = np.random.default_rng(2)
        router.register(
            "plain",
            np.abs(rng.normal(1.0, 0.4, 300)) + 1e-6,
            family="merging",
            k=4,
        )
        expected = router["window"].learner.heavy_hitters(0.1)
        assert router.heavy_hitters("window", 0.1) == expected
        with AsyncServingFrontend(router) as frontend:
            results = frontend.serve(
                [
                    QueryRequest("heavy_hitters", "window", (0.1,)),
                    QueryRequest("range_sum", "plain", (0, 100)),
                    QueryRequest("heavy_hitters", "plain", (0.1,)),
                    QueryRequest("heavy_hitters", "missing", (0.1,)),
                ]
            )
        assert results[0].ok and results[0].value == expected
        assert results[0].version == router["window"].version
        assert results[1].ok
        assert not results[2].ok and "sliding-window" in results[2].error
        assert not results[3].ok and "registered" in results[3].error

    def test_store_round_trip_resumes_mid_window(self, served_store, tmp_path):
        served_store.save(tmp_path / "store")
        loaded = SynopsisStore.load(tmp_path / "store")
        meta = loaded["window"].describe()  # frozen meta, before hydration
        assert meta["windowed"] is True
        assert meta["window_total"] == served_store["window"].learner.window_total
        assert loaded.heavy_hitters("window", 0.1) == served_store.heavy_hitters(
            "window", 0.1
        )
        rng = np.random.default_rng(8)
        batch = skewed_stream(rng, 300, 2_000, heavy=(77,), heavy_mass=0.5)
        served_store.extend("window", batch)
        loaded.extend("window", batch)
        assert loaded.heavy_hitters("window", 0.1) == served_store.heavy_hitters(
            "window", 0.1
        )
        assert loaded["window"].version == served_store["window"].version
        assert (
            loaded["window"].result.synopsis
            == served_store["window"].result.synopsis
        )

    def test_sharded_round_trip(self, tmp_path):
        router = ShardRouter(num_shards=3)
        router.register_stream("window", make_learner())
        router.save(tmp_path / "sharded")
        loaded = ShardRouter.load(tmp_path / "sharded")
        assert loaded.heavy_hitters("window", 0.1) == router.heavy_hitters(
            "window", 0.1
        )
        assert loaded.describe("window")["windowed"] is True


class TestWindowedCLI:
    def test_serve_heavy_command(self):
        out = io.StringIO()
        commands = io.StringIO(
            "summary\nheavy windowed 0.02\nheavy merging 0.02\n"
            "heavy windowed 2.0\nquit\n"
        )
        assert (
            serve_main(
                ["--dataset", "steps", "--n", "16", "--k", "3",
                 "--families", "merging", "--window", "2000"],
                stdin=commands,
                stdout=out,
            )
            == 0
        )
        text = out.getvalue()
        assert "windowed" in text and "window=" in text
        assert "count>=" in text  # n=16: every position clears phi=0.02
        assert "not backed by a sliding-window" in text
        assert "error: phi must lie" in text

    def test_query_heavy_hitters_kind(self, capsys):
        assert (
            main(
                ["query", "--kind", "heavy_hitters", "--dataset", "steps",
                 "--n", "16", "--k", "3", "--window", "3000",
                 "--num-queries", "10", "--phi", "0.05"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "windowed stream of 'steps'" in out
        assert "heavy_hitters(phi=0.05) x 10" in out
        assert "queries/sec" in out

    def test_window_flags_with_other_kinds_rejected(self):
        # Review fix: --window/--phi were silently ignored for every kind
        # except heavy_hitters.
        with pytest.raises(SystemExit, match="only apply to"):
            main(["query", "--kind", "cdf", "--n", "64", "--window", "500"])
        with pytest.raises(SystemExit, match="only apply to"):
            main(["query", "--kind", "range_sum", "--n", "64", "--phi", "0.1"])

    def test_window_with_store_dir_rejected(self, tmp_path):
        # Review fix: --window was silently ignored with --store-dir.
        store_dir = str(tmp_path / "store")
        assert (
            main(
                ["save", "--n", "16", "--k", "3", "--families", "merging",
                 "--store-dir", store_dir]
            )
            == 0
        )
        with pytest.raises(SystemExit, match="cannot be combined"):
            serve_main(["--store-dir", store_dir, "--window", "1000"])

    def test_save_load_window_round_trip(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert (
            main(
                ["save", "--n", "16", "--k", "3", "--families", "merging",
                 "--window", "1000", "--store-dir", store_dir]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "windowed" in out and "window=1000" in out
        assert main(["inspect", store_dir]) == 0
        out = capsys.readouterr().out
        assert "schema=6" in out and "window=1000" in out
        assert main(["load", store_dir]) == 0
        out = capsys.readouterr().out
        assert "window=1000" in out
        commands = io.StringIO("heavy windowed 0.02\nquit\n")
        out_io = io.StringIO()
        assert (
            serve_main(["--store-dir", store_dir], stdin=commands, stdout=out_io)
            == 0
        )
        assert "count>=" in out_io.getvalue()
