"""Tests for skew-aware placement policy (repro.serve.loadstats).

Covers the :class:`HotnessTracker` decay math against an injected clock
(fold absorption, half-life decay, steady-state QPS recovery, counter
resets clamping to zero, frontend-vs-engine max folding), the
:class:`Rebalancer` threshold-plus-hysteresis policy over a live
:class:`ShardRouter` (migrate hot entries off crowded shards), and the
CLI surface (the serve REPL's ``rebalance`` command, ``metrics --top``,
flag validation).
"""

import io
import math

import numpy as np
import pytest

from repro import HotnessTracker, Rebalancer, ShardRouter
from repro.__main__ import main
from repro.obs.metrics import MetricsRegistry
from repro.serve.cli import metrics_main, serve_main

_LN2 = math.log(2.0)


class FakeClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class CountingClock(FakeClock):
    """A fake clock that counts how often it is read."""

    def __init__(self):
        super().__init__()
        self.reads = 0

    def __call__(self):
        self.reads += 1
        return self.now


def make_tracker(half_life_s=10.0):
    clock = FakeClock()
    return HotnessTracker(half_life_s=half_life_s, clock=clock), clock


# --------------------------------------------------------------------- #
# HotnessTracker
# --------------------------------------------------------------------- #


class TestHotnessTracker:
    def test_half_life_must_be_positive(self):
        with pytest.raises(ValueError, match="half_life"):
            HotnessTracker(half_life_s=0.0)

    def test_fold_absorbs_engine_counters(self):
        tracker, _clock = make_tracker(half_life_s=10.0)
        registry = MetricsRegistry()
        registry.counter(
            "engine_entry_cache_misses_total", "m", entry="a"
        ).inc(100)
        tracker.fold(registry)
        assert tracker.qps("a") == pytest.approx(100 * _LN2 / 10.0)
        # A second fold with no new traffic absorbs nothing.
        before = tracker.qps("a")
        tracker.fold(registry)
        assert tracker.qps("a") == pytest.approx(before)

    def test_decay_halves_per_half_life(self):
        tracker, clock = make_tracker(half_life_s=10.0)
        tracker.observe("a", 64)
        q0 = tracker.qps("a")
        clock.advance(10.0)
        assert tracker.qps("a") == pytest.approx(q0 / 2)
        clock.advance(20.0)  # two more half-lives
        assert tracker.qps("a") == pytest.approx(q0 / 8)

    def test_steady_state_recovers_arrival_rate(self):
        # Feeding r queries/sec for many half-lives, qps() converges to
        # r (up to discrete-sampling bias, which shrinks with the fold
        # interval — hence the fine 0.25 s ticks).
        tracker, clock = make_tracker(half_life_s=10.0)
        rate = 10.0
        for _ in range(400):
            clock.advance(0.25)
            tracker.observe("a", rate * 0.25)
        assert tracker.qps("a") == pytest.approx(rate, rel=0.05)

    def test_cooled_entries_are_forgotten(self):
        tracker, clock = make_tracker(half_life_s=1.0)
        tracker.observe("a", 1.0)
        clock.advance(60.0)  # sixty half-lives: weight rounds to nothing
        assert tracker.qps("a") == 0.0
        assert tracker.top(10) == []

    def test_counter_reset_clamps_to_zero(self):
        # Migration drops the source shard's per-entry series, so the
        # cumulative total can shrink between folds.  The negative delta
        # must clamp, not subtract.
        tracker, _clock = make_tracker(half_life_s=10.0)
        registry = MetricsRegistry()
        registry.counter(
            "engine_entry_cache_misses_total", "m", entry="a", shard="0"
        ).inc(100)
        tracker.fold(registry)
        before = tracker.qps("a")
        registry.drop(entry="a")
        registry.counter(
            "engine_entry_cache_misses_total", "m", entry="a", shard="1"
        ).inc(5)
        tracker.fold(registry)
        assert 0.0 <= tracker.qps("a") <= before

    def test_frontend_and_engine_fold_as_max_not_sum(self):
        # Coalescing makes the engine series undercount (one table access
        # per group); the frontend series counts every request.  Folding
        # takes the larger view, never the sum.
        tracker, _clock = make_tracker(half_life_s=10.0)
        registry = MetricsRegistry()
        registry.counter(
            "engine_entry_cache_misses_total", "m", entry="a"
        ).inc(10)
        registry.counter(
            "frontend_entry_requests_total", "r", entry="a"
        ).inc(30)
        tracker.fold(registry)
        assert tracker.qps("a") == pytest.approx(30 * _LN2 / 10.0)

    def test_fold_sums_across_shard_label_sets(self):
        tracker, _clock = make_tracker(half_life_s=10.0)
        registry = MetricsRegistry()
        for shard, count in (("0", 4), ("1", 6)):
            registry.counter(
                "engine_entry_cache_hits_total", "h", entry="a", shard=shard
            ).inc(count)
        tracker.fold(registry)
        assert tracker.qps("a") == pytest.approx(10 * _LN2 / 10.0)

    def test_top_ranks_hottest_first(self):
        tracker, _clock = make_tracker()
        tracker.observe("cold", 1)
        tracker.observe("hot", 100)
        tracker.observe("warm", 10)
        names = [name for name, _qps in tracker.top(2)]
        assert names == ["hot", "warm"]

    def test_hit_rate(self):
        tracker, _clock = make_tracker()
        registry = MetricsRegistry()
        registry.counter(
            "engine_entry_cache_hits_total", "h", entry="a"
        ).inc(3)
        registry.counter(
            "engine_entry_cache_misses_total", "m", entry="a"
        ).inc(1)
        tracker.fold(registry)
        assert tracker.hit_rate("a") == pytest.approx(0.75)
        assert tracker.hit_rate("never-queried") is None


# --------------------------------------------------------------------- #
# Rebalancer policy
# --------------------------------------------------------------------- #


def build_router(num_shards=4):
    rng = np.random.default_rng(0)
    router = ShardRouter(num_shards=num_shards)
    vals = rng.random(256) + 0.01
    for name in ("a", "b", "c"):
        router.register(name, vals, family="merging", k=6)
    return router


class TestRebalancer:
    def test_cool_must_not_exceed_hot(self):
        tracker, _clock = make_tracker()
        with pytest.raises(ValueError, match="hysteresis"):
            Rebalancer(tracker, hot_qps=1.0, cool_qps=2.0)

    def test_migrates_hot_entry_off_crowded_shard(self):
        router = build_router()
        # Force every entry onto shard 0 so the hot one has competition.
        for name in router.names():
            router.migrate(name, 0)
        tracker, _clock = make_tracker()
        tracker.observe("a", 500)
        tracker.observe("b", 80)
        tracker.observe("c", 80)
        policy = Rebalancer(tracker, hot_qps=1.0)
        actions = policy.rebalance(router, fold=False)
        migrated = {act.name for act in actions if act.action == "migrate"}
        assert "a" in migrated
        assert router.shard_map.shard_of("a") != 0
        # The move is real: the entry still answers.
        assert float(np.asarray(router.range_sum("a", 0, 100))) > 0

    def test_second_pass_is_a_noop(self):
        # Hysteresis: once balanced, repeated passes change nothing even
        # though the entries are still promoted.
        router = build_router()
        for name in router.names():
            router.migrate(name, 0)
        tracker, _clock = make_tracker()
        tracker.observe("a", 500)
        tracker.observe("b", 400)
        policy = Rebalancer(tracker, hot_qps=1.0)
        assert policy.rebalance(router, fold=False)
        assert policy.rebalance(router, fold=False) == []

    def test_lone_hot_entry_stays_put(self):
        # A hot entry alone on its shard has no competing load: nothing
        # to gain by moving it.
        router = build_router()
        router.migrate("a", 3)
        tracker, _clock = make_tracker()
        tracker.observe("a", 500)
        policy = Rebalancer(tracker, hot_qps=1.0)
        actions = policy.rebalance(router, fold=False)
        assert not [act for act in actions if act.action == "migrate"]
        assert router.shard_map.shard_of("a") == 3

    def test_hysteresis_band_keeps_promotion(self):
        # Between cool_qps and hot_qps a promoted entry stays promoted:
        # it is not moved back, and it stays migration-eligible although
        # a fresh policy would not promote it.
        router = build_router()
        for name in router.names():
            router.migrate(name, 0)
        tracker, clock = make_tracker(half_life_s=10.0)
        tracker.observe("a", 1000)
        tracker.observe("b", 80)
        tracker.observe("c", 80)
        policy = Rebalancer(tracker, hot_qps=40.0)
        (moved,) = policy.rebalance(router, fold=False)
        assert (moved.action, moved.name, moved.source) == ("migrate", "a", 0)
        # One half-life: ~34 qps, inside the (20, 40) hysteresis band.
        clock.advance(10.0)
        assert policy.cool_qps < tracker.qps("a") < policy.hot_qps
        assert policy.rebalance(router, fold=False) == []
        assert router.shard_map.shard_of("a") == moved.target
        # Crowd its shard: only the policy that promoted it still acts.
        router.migrate("b", moved.target)
        fresh = Rebalancer(tracker, hot_qps=40.0)
        assert fresh.rebalance(router, fold=False) == []
        (again,) = policy.rebalance(router, fold=False)
        assert again.name == "a" and again.target != 0

    def test_pass_reads_clock_a_constant_number_of_times(self):
        # One decay per pass, whatever the entry count: a pass that asked
        # the tracker name by name re-decayed the whole map each time, so
        # its cost grew as hot x entries x tracked.
        reads = {}
        for entries in (3, 24):
            router = ShardRouter(num_shards=2)
            vals = np.random.default_rng(0).random(64) + 0.01
            for index in range(entries):
                router.register(f"e{index}", vals, family="merging", k=2)
                router.migrate(f"e{index}", 0)
            clock = CountingClock()
            tracker = HotnessTracker(half_life_s=10.0, clock=clock)
            for index in range(entries):
                tracker.observe(f"e{index}", 100 + index)
            policy = Rebalancer(tracker, hot_qps=1.0)
            clock.reads = 0
            actions = policy.rebalance(router, fold=False)
            reads[entries] = clock.reads
            # Every entry is hot and crowded onto shard 0, so moves happen.
            assert actions and all(act.target == 1 for act in actions)
        assert reads == {3: 1, 24: 1}

    def test_entry_left_alone_by_moves_stays_put(self):
        # Rates whose float sum does not cancel: taking a's rate back out
        # of shard 0's load leaves about 1e-18 over b's.  Once "a" leaves,
        # "b" is alone there and must see zero competing load, or it would
        # chase an idle shard.
        router = build_router()
        for name in ("a", "b"):
            router.migrate(name, 0)
        router.migrate("c", 1)
        tracker, _clock = make_tracker(half_life_s=10.0)
        tracker.observe("a", 0.3)
        tracker.observe("b", 0.1)
        tracker.observe("c", 0.2)
        policy = Rebalancer(tracker, hot_qps=0.001)
        actions = policy.rebalance(router, fold=False)
        assert [(act.name, act.source, act.target) for act in actions] == [
            ("a", 0, 2)
        ]
        assert router.shard_map.shard_of("b") == 0

    def test_equal_load_elsewhere_is_not_better(self):
        # "a" competes with b's load on shard 0, and shard 1 carries exactly
        # that load: a move would only swap the imbalance.  Float sums left
        # a competing load a few ulps above it, which moved "a" to shard 1
        # and, on the next pass, back again.
        router = build_router(num_shards=2)
        for name, shard in (("a", 0), ("b", 0), ("c", 1)):
            router.migrate(name, shard)
        tracker, _clock = make_tracker(half_life_s=10.0)
        tracker.observe("a", 0.3)
        tracker.observe("b", 0.1)
        tracker.observe("c", 0.1)
        policy = Rebalancer(tracker, hot_qps=0.01)
        assert policy.rebalance(router, fold=False) == []
        assert policy.rebalance(router, fold=False) == []

    def test_rebalance_folds_live_registry_by_default(self):
        # End to end without observe(): real queries through the router
        # feed the engine counters, fold() turns them into heat, and the
        # policy acts on it.  With 2 shards "b" and "c" share shard 1,
        # so the hot "b" has competing load and moves to shard 0.
        router = build_router(num_shards=2)
        tracker = HotnessTracker(half_life_s=30.0)
        for _ in range(4):
            router.range_sum("b", np.zeros(64, int), np.full(64, 100))
        router.range_sum("c", 0, 100)
        policy = Rebalancer(tracker, hot_qps=0.01)
        actions = policy.rebalance(router)
        assert [(act.action, act.name) for act in actions] == [
            ("migrate", "b")
        ]
        assert router.shard_map.shard_of("b") == 0


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #


class TestRebalanceCLI:
    def test_serve_repl_rebalance_command(self):
        # With 2 shards "merging" and "wavelet" share shard 0, so the hot
        # "merging" has competing load and the first pass moves it.
        hot = "range merging 0 100\n" * 40 + "range wavelet 0 100\n" * 5
        commands = io.StringIO(hot + "rebalance\nrebalance\nquit\n")
        out = io.StringIO()
        assert serve_main(
            ["--n", "512", "--k", "4", "--families", "merging,wavelet",
             "--shards", "2", "--hot-qps", "0.01"],
            stdin=commands,
            stdout=out,
        ) == 0
        text = out.getvalue()
        assert "migrate merging: shard 0 -> 1" in text
        # Second pass on an already-balanced router reports the no-op.
        assert "(no placement changes)" in text

    def test_rebalance_interval_must_be_positive(self):
        with pytest.raises(SystemExit, match="rebalance-interval"):
            serve_main(
                ["--n", "256", "--families", "merging",
                 "--rebalance-interval", "0"],
                stdin=io.StringIO("quit\n"),
                stdout=io.StringIO(),
            )

    def test_metrics_top_lists_hottest(self, tmp_path, capsys):
        target = tmp_path / "store"
        assert main(
            ["save", "--n", "512", "--k", "4",
             "--families", "merging,wavelet", "--store-dir", str(target)]
        ) == 0
        capsys.readouterr()
        assert metrics_main([str(target), "--top", "1"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if "qps" in line]
        assert len(lines) == 1
        assert "cache hit rate" in lines[0]

    def test_metrics_top_without_probe_reports_nothing(self, tmp_path, capsys):
        target = tmp_path / "store"
        assert main(
            ["save", "--n", "256", "--k", "4", "--families", "merging",
             "--store-dir", str(target)]
        ) == 0
        capsys.readouterr()
        assert metrics_main([str(target), "--top", "3", "--no-probe"]) == 0
        assert "(no queries observed)" in capsys.readouterr().out

    def test_metrics_top_must_be_positive(self, tmp_path):
        with pytest.raises(SystemExit, match="--top"):
            metrics_main([str(tmp_path), "--top", "0"])
