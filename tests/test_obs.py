"""Tests for the observability layer: metrics, tracing, logging, exposition.

The load-bearing properties:

* Latency histograms are *mergeable summaries*: per-shard histograms
  ``merge()`` into exactly the histogram a single observer of the union
  stream would hold (bucket counts, sums, maxima, and quantile readouts
  all agree) — the same discipline as the paper's sketches.
* Instrumentation is exact under concurrency: a threaded query storm
  through the async front end loses no counter increments, and the
  per-shard series sum to the front-end totals.
* No series carries an entry label: the engine counts table hits and
  misses over all its entries, so the registry does not grow with the
  fleet (``tests/test_fleet.py`` checks 40 against 400 entries).
"""

from __future__ import annotations

import io
import json
import logging
import threading

import numpy as np
import pytest

from repro.obs import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    NullRegistry,
    SlowQueryLog,
    TraceContext,
    configure_json_logging,
    current_trace,
    get_default_registry,
    get_logger,
    render_json,
    render_prometheus,
    set_default_registry,
    span,
    timer,
    trace,
)
from repro.serve.builders import build_synopsis
from repro.serve.cli import metrics_main, serve_main
from repro.serve.engine import QueryEngine
from repro.serve.frontend import AsyncServingFrontend, QueryRequest
from repro.serve.planner import BuildBudget, plan_build
from repro.serve.router import ShardRouter
from repro.serve.store import SynopsisStore


def _values(n: int = 4096, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.abs(rng.normal(1.0, 0.5, n)) + 1e-6


# ---------------------------------------------------------------------- #
# Instruments
# ---------------------------------------------------------------------- #


class TestCounter:
    def test_inc_and_value(self):
        c = Counter()
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter().inc(-1)

    def test_threaded_increments_exact(self):
        c = Counter()
        threads = [
            threading.Thread(target=lambda: [c.inc() for _ in range(10_000)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 80_000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(3.5)
        g.inc(1.5)
        g.dec(2.0)
        assert g.value == pytest.approx(3.0)


class TestLatencyHistogram:
    def test_bucket_placement(self):
        h = LatencyHistogram(exp_range=(-4, 4))
        # Bucket 0 absorbs zero and everything below 2**(lo+1); values at
        # or above 2**hi clamp into the last bucket.
        h.observe(0.0)
        h.observe(0.1)  # [2**-4, 2**-3) -> bucket 0
        h.observe(0.2)  # [2**-3, 2**-2) -> bucket 1
        h.observe(1.0)  # [2**0, 2**1)   -> bucket 4
        h.observe(100.0)  # clamped
        counts = h.bucket_counts()
        assert counts[0] == 2
        assert h._bucket_of(0.2) == 1 and counts[1] == 1
        assert h._bucket_of(1.0) == 4 and counts[4] == 1
        assert counts[-1] == 1
        assert h.count == 5
        assert h.max == 100.0

    def test_quantile_is_conservative_upper_bound(self):
        h = LatencyHistogram()
        values = [1e-4, 2e-4, 3e-4, 1e-3, 1e-2]
        for v in values:
            h.observe(v)
        for q in (0.5, 0.95, 0.99, 1.0):
            estimate = h.quantile(q)
            true_q = values[min(len(values) - 1, int(np.ceil(q * 5)) - 1)]
            assert estimate >= true_q  # never underestimates
            assert estimate <= 2.0 * true_q  # within the log-bucket factor
        assert h.quantile(1.0) == h.max  # clamped to the observed max

    def test_empty_quantile_and_mean(self):
        h = LatencyHistogram()
        assert h.quantile(0.5) == 0.0
        assert h.mean == 0.0

    def test_quantile_level_validated(self):
        with pytest.raises(ValueError, match="quantile level"):
            LatencyHistogram().quantile(1.5)

    def test_merge_equals_union_stream(self):
        """The acceptance property: merged per-shard histograms are
        bitwise the summary of the union stream."""
        rng = np.random.default_rng(3)
        values = rng.lognormal(-9.0, 2.0, 3000)  # microsecond..second range
        union = LatencyHistogram()
        for v in values:
            union.observe(float(v))
        shards = [LatencyHistogram() for _ in range(3)]
        for part, h in zip(np.array_split(values, 3), shards):
            for v in part:
                h.observe(float(v))
        merged = shards[0].merge(shards[1])
        merged.merge_from(shards[2])
        assert merged.count == union.count == values.size
        assert merged.sum == pytest.approx(union.sum)
        assert merged.max == union.max
        assert merged.bucket_counts() == union.bucket_counts()
        for q in (0.5, 0.9, 0.95, 0.99):
            assert merged.quantile(q) == union.quantile(q)

    def test_merge_layout_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bucket layouts"):
            LatencyHistogram(exp_range=(-4, 4)).merge_from(LatencyHistogram())

    def test_threaded_observes_exact(self):
        h = LatencyHistogram()

        def work():
            for i in range(5_000):
                h.observe(1e-4 * (1 + i % 7))

        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 30_000
        assert sum(h.bucket_counts()) == 30_000


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #


class TestMetricsRegistry:
    def test_get_or_create_shares_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", shard="0")
        b = reg.counter("x_total", shard="0")
        assert a is b
        assert reg.counter("x_total", shard="1") is not a
        assert len(reg) == 2

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x_total")

    def test_merge_from_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n_total", "how many").inc(2)
        b.counter("n_total").inc(3)
        b.histogram("lat_seconds").observe(0.001)
        a.merge_from(b)
        assert a.get("n_total").value == 5
        assert a.get("lat_seconds").count == 1
        assert a.help_text("n_total") == "how many"  # help survives merge

    def test_null_registry_is_inert(self):
        reg = NullRegistry()
        c = reg.counter("x_total")
        c.inc()
        h = reg.histogram("y_seconds")
        h.observe(1.0)
        assert c.value == 0 and h.count == 0
        assert reg.collect() == []
        assert c is NULL_REGISTRY.counter("anything")  # one shared no-op

    def test_timer_feeds_histogram(self):
        h = LatencyHistogram()
        with timer(h) as t:
            pass
        assert h.count == 1
        assert t.seconds >= 0.0 and t.ms == pytest.approx(t.seconds * 1e3)


# ---------------------------------------------------------------------- #
# Tracing
# ---------------------------------------------------------------------- #


class TestTracing:
    def test_spans_recorded_with_tags(self):
        ctx = TraceContext("req")
        with ctx.span("route", shards=2):
            pass
        with ctx.span("evaluate"):
            pass
        names = [s.name for s in ctx.spans()]
        assert names == ["route", "evaluate"]
        assert ctx.spans()[0].tags == {"shards": 2}
        payload = ctx.as_dict()
        assert payload["trace_id"] == ctx.trace_id
        assert len(payload["spans"]) == 2

    def test_trace_ids_unique(self):
        assert TraceContext().trace_id != TraceContext().trace_id

    def test_contextvar_binding(self):
        assert current_trace() is None
        with trace("outer") as ctx:
            assert current_trace() is ctx
            with span("inner"):
                pass
        assert current_trace() is None
        assert [s.name for s in ctx.spans()] == ["inner"]

    def test_module_span_is_noop_without_trace(self):
        with span("orphan") as record:
            assert record is None

    def test_bound_rebinds_in_worker_thread(self):
        ctx = TraceContext()
        seen = []

        def worker():
            seen.append(current_trace())  # pools don't inherit context
            with ctx.bound():
                seen.append(current_trace())

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen == [None, ctx]


# ---------------------------------------------------------------------- #
# JSON logging and the slow-query log
# ---------------------------------------------------------------------- #


class TestJsonLogging:
    def test_one_json_object_per_line_with_extras(self):
        stream = io.StringIO()
        configure_json_logging(stream)
        get_logger("test").info("hello", extra={"shard": 3})
        record = json.loads(stream.getvalue().strip())
        assert record["event"] == "hello"
        assert record["logger"] == "repro.test"
        assert record["level"] == "info"
        assert record["shard"] == 3

    def test_trace_id_attached_when_bound(self):
        stream = io.StringIO()
        configure_json_logging(stream)
        with trace() as ctx:
            get_logger("test").info("traced")
        assert json.loads(stream.getvalue())["trace_id"] == ctx.trace_id

    def test_reconfigure_does_not_double_log(self):
        first, second = io.StringIO(), io.StringIO()
        configure_json_logging(first)
        root = configure_json_logging(second)
        get_logger("test").info("once")
        assert first.getvalue() == ""
        assert len(second.getvalue().strip().splitlines()) == 1
        assert sum(
            getattr(h, "_repro_json_handler", False) for h in root.handlers
        ) == 1

    def test_slow_query_log_threshold_and_bound(self):
        log = SlowQueryLog(
            threshold_seconds=0.01, maxlen=3, logger=logging.getLogger("t")
        )
        assert not log.record("range_sum", "a", 0.001)
        assert len(log) == 0
        for i in range(5):
            assert log.record("range_sum", f"q{i}", 0.02 + i * 0.01)
        entries = log.entries()
        assert len(entries) == 3  # ring bound
        assert [e["name"] for e in entries] == ["q2", "q3", "q4"]
        log.clear()
        assert len(log) == 0

    def test_slow_query_log_rejects_negative_threshold(self):
        with pytest.raises(ValueError, match=">= 0"):
            SlowQueryLog(threshold_seconds=-1.0)


# ---------------------------------------------------------------------- #
# Exposition
# ---------------------------------------------------------------------- #


class TestExport:
    def _registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("req_total", "requests", shard="0").inc(4)
        reg.gauge("depth", "queue depth").set(2.5)
        h = reg.histogram("lat_seconds", "latency")
        for v in (1e-4, 2e-4, 5e-2):
            h.observe(v)
        return reg

    def test_prometheus_text_format(self):
        text = render_prometheus(self._registry())
        assert '# HELP req_total requests' in text
        assert '# TYPE req_total counter' in text
        assert 'req_total{shard="0"} 4' in text
        assert '# TYPE lat_seconds histogram' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text
        assert "process_uptime_seconds" in text

    def test_prometheus_buckets_cumulative(self):
        text = render_prometheus(self._registry())
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("lat_seconds_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 3

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("x_total", entry='we"ird\nname').inc()
        text = render_prometheus(reg)
        assert 'entry="we\\"ird\\nname"' in text

    def test_json_document(self):
        doc = render_json(self._registry())
        assert doc["uptime_seconds"] >= 0.0
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert by_name["req_total"]["value"] == 4
        hist = by_name["lat_seconds"]
        assert hist["count"] == 3
        assert {"p50", "p95", "p99"} <= set(hist)
        # The document round-trips through json (no numpy leakage).
        json.loads(json.dumps(doc))


# ---------------------------------------------------------------------- #
# Engine + store instrumentation
# ---------------------------------------------------------------------- #


class TestEngineInstrumentation:
    def test_cache_info_is_a_registry_view(self):
        store = SynopsisStore()
        store.register("a", _values(), family="merging", k=8)
        engine = QueryEngine(store)
        engine.range_sum("a", 0, 10)
        engine.range_sum("a", 0, 10)
        assert engine.cache_info() == {"hits": 1, "misses": 1}
        assert engine.registry.get("engine_cache_hits_total").value == 1
        assert engine.registry.get("engine_cache_misses_total").value == 1

    def test_query_latency_series_per_kind(self):
        store = SynopsisStore()
        store.register("a", _values(), family="merging", k=8)
        engine = QueryEngine(store)
        engine.range_sum("a", 0, 10)
        engine.quantile("a", 0.5)
        engine.quantile("a", 0.9)
        for kind, expected in (("range_sum", 1), ("quantile", 2), ("cdf", 0)):
            h = engine.registry.get("engine_query_seconds", kind=kind)
            c = engine.registry.get("engine_queries_total", kind=kind)
            assert h.count == expected and c.value == expected
        assert engine.registry.get("engine_query_seconds", kind="quantile").sum > 0

    def test_failing_query_still_counted(self):
        store = SynopsisStore()
        store.register("a", _values(256), family="merging", k=8)
        engine = QueryEngine(store)
        with pytest.raises(ValueError):
            engine.range_sum("a", 0, 10_000)  # out of range
        assert engine.registry.get("engine_queries_total", kind="range_sum").value == 1

    def test_engines_have_isolated_registries_by_default(self):
        store = SynopsisStore()
        store.register("a", _values(), family="merging", k=8)
        e1, e2 = QueryEngine(store), QueryEngine(store)
        e1.range_sum("a", 0, 10)
        assert e1.registry.get("engine_queries_total", kind="range_sum").value == 1
        assert e2.registry.get("engine_queries_total", kind="range_sum").value == 0


class TestStoreInstrumentation:
    def test_register_and_version_bump_metrics(self):
        store = SynopsisStore()
        store.register("a", _values(), family="merging", k=8)
        store.register("a", _values(seed=1), family="merging", k=8)
        assert store.registry.get("store_register_seconds").count == 2
        assert store.registry.get("store_version_bumps_total").value == 2

    def test_refresh_metrics(self):
        from repro.sampling.streaming import StreamingHistogramLearner

        rng = np.random.default_rng(0)
        learner = StreamingHistogramLearner(n=256, k=8)
        learner.extend(rng.integers(0, 256, 2000))
        store = SynopsisStore()
        store.register_stream("s", learner)
        store.refresh("s")
        assert store.registry.get("store_refresh_seconds").count == 1
        assert store.registry.get("store_version_bumps_total").value == 2

    def test_hydrate_timing_recorded_on_lazy_load(self, tmp_path):
        store = SynopsisStore()
        store.register("a", _values(), family="merging", k=8)
        store.save(tmp_path / "st")
        loaded = SynopsisStore.load(tmp_path / "st", lazy=True)
        assert loaded.registry.get("store_hydrate_seconds").count == 0
        loaded.snapshot("a")  # first access hydrates
        assert loaded.registry.get("store_hydrate_seconds").count == 1
        loaded.snapshot("a")  # idempotent: no second hydration
        assert loaded.registry.get("store_hydrate_seconds").count == 1

    def test_build_and_plan_metrics_on_default_registry(self):
        previous = set_default_registry(MetricsRegistry())
        try:
            reg = get_default_registry()
            build_synopsis(_values(), "merging", 8)
            assert reg.get("builds_total", family="merging").value == 1
            assert reg.get("build_seconds", family="merging").count == 1
            plan_build(_values(), BuildBudget(max_bytes=4096))
            assert reg.get("plans_total").value == 1
            assert reg.get("plan_seconds").count == 1
            assert reg.get("plan_candidates_built_total").value >= 1
        finally:
            set_default_registry(previous)


# ---------------------------------------------------------------------- #
# Router + front end: shard labels, merge totals, the threaded storm
# ---------------------------------------------------------------------- #


def _sharded_frontend(num_shards: int = 3, entries: int = 6):
    router = ShardRouter(num_shards=num_shards)
    for i in range(entries):
        router.register(f"e{i}", _values(2048, seed=i), family="merging", k=8)
    return router, AsyncServingFrontend(router)


class TestShardedObservability:
    def test_shard_labeled_series_in_one_registry(self):
        router, frontend = _sharded_frontend()
        frontend.serve([QueryRequest("range_sum", "e0", (0, 100))])
        shard = str(router.shard_map.shard_of("e0"))
        assert (
            router.registry.get(
                "engine_queries_total", kind="range_sum", shard=shard
            ).value
            == 1
        )
        assert frontend.registry is router.registry
        frontend.close()

    def test_trace_spans_cover_the_pipeline(self):
        router, frontend = _sharded_frontend()
        frontend.serve(
            [QueryRequest("range_sum", f"e{i}", (0, 100)) for i in range(6)]
        )
        names = [s.name for s in frontend.last_trace.spans()]
        assert names[0] == "route" and names[-1] == "reassemble"
        assert "coalesce" in names and "evaluate" in names
        frontend.close()

    def test_reshard_counters(self):
        router, _ = _sharded_frontend(num_shards=2, entries=4)
        # Growing preserves every sticky assignment, so no entry migrates.
        new = router.reshard(4)
        assert router.registry.get("router_reshards_total").value == 1
        assert router.registry.get("router_entries_migrated_total").value == 0
        assert new.registry is router.registry
        # Shrinking to one shard moves everything that wasn't already there.
        expected = sum(1 for n in new.names() if new.shard_map.shard_of(n) != 0)
        new.reshard(1)
        assert router.registry.get("router_reshards_total").value == 2
        assert (
            router.registry.get("router_entries_migrated_total").value
            == expected
        )

    def test_threaded_storm_loses_no_increments(self):
        """Satellite 3 + acceptance: exact counters under concurrency and
        per-shard histogram totals that merge into the front-end count."""
        router, frontend = _sharded_frontend(num_shards=3, entries=6)
        threads, batches, per_batch = 6, 5, 24
        requests = [
            QueryRequest("range_sum", f"e{i % 6}", (0, 100))
            for i in range(per_batch)
        ]
        errors = []

        def storm():
            try:
                for _ in range(batches):
                    results = frontend.serve(requests)
                    assert all(r.ok for r in results)
                    assert len(results) == per_batch
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        workers = [threading.Thread(target=storm) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert not errors

        total = threads * batches * per_batch
        reg = router.registry
        assert reg.get("frontend_requests_total").value == total
        assert reg.get("frontend_batches_total").value == threads * batches

        # Per-shard request counters are mergeable: they sum to the total.
        shard_counts = [
            m.value
            for name, labels, m in reg.collect()
            if name == "frontend_shard_requests_total"
        ]
        assert sum(shard_counts) == total

        # Per-shard latency histograms merge() into a fleet total whose
        # count matches the end-to-end number of shard jobs, and whose
        # engine-side observations nest inside the shard-side timings.
        shard_hists = [
            m
            for name, labels, m in reg.collect()
            if name == "frontend_shard_seconds"
        ]
        merged_shard = LatencyHistogram()
        for h in shard_hists:
            merged_shard.merge_from(h)
        assert merged_shard.count == sum(h.count for h in shard_hists)
        # every batch touched every shard (6 entries over 3 shards)
        assert merged_shard.count == threads * batches * 3

        engine_hists = [
            m
            for name, labels, m in reg.collect()
            if name == "engine_query_seconds" and labels["kind"] == "range_sum"
        ]
        merged_engine = LatencyHistogram()
        for h in engine_hists:
            merged_engine.merge_from(h)
        # A shard job answers all its requests of one kind with one stacked
        # engine call: one range_sum call per shard job, whatever the
        # number of names (2 per shard here).
        assert merged_engine.count == threads * batches * 3 * 1
        assert reg.get("frontend_coalesced_requests_total").value == total
        # Engine evaluation intervals nest inside their shard job's
        # interval (same thread), so the merged sums must order.
        assert merged_engine.sum <= merged_shard.sum
        frontend.close()

    def test_batch_size_histogram_not_clamped(self):
        router, frontend = _sharded_frontend(num_shards=1, entries=1)
        frontend.serve(
            [QueryRequest("range_sum", "e0", (0, 100)) for _ in range(500)]
        )
        h = router.registry.get("frontend_batch_size")
        assert h.max == 500.0
        assert h.quantile(1.0) >= 500.0  # batch sizes use exp_range=(0, 20)
        frontend.close()

    def test_request_errors_counted(self):
        router, frontend = _sharded_frontend(num_shards=1, entries=1)
        results = frontend.serve(
            [
                QueryRequest("range_sum", "e0", (0, 100)),
                QueryRequest("range_sum", "missing", (0, 100)),
            ]
        )
        assert [r.ok for r in results] == [True, False]
        assert router.registry.get("frontend_request_errors_total").value == 1
        frontend.close()

    def test_slow_query_log_captures_slow_batches(self):
        router, frontend = _sharded_frontend(num_shards=1, entries=1)
        frontend.slow_log = SlowQueryLog(
            threshold_seconds=0.0, logger=logging.getLogger("t")
        )
        frontend.serve([QueryRequest("range_sum", "e0", (0, 100))])
        entries = frontend.slow_log.entries()
        assert len(entries) == 1
        assert entries[0]["kind"] == "query_batch"
        assert entries[0]["trace_id"] == frontend.last_trace.trace_id
        frontend.close()


# ---------------------------------------------------------------------- #
# CLI surfaces
# ---------------------------------------------------------------------- #


class TestMetricsCli:
    def _saved_store(self, tmp_path):
        store = SynopsisStore()
        store.register("a", _values(), family="merging", k=8)
        target = tmp_path / "store"
        store.save(target)
        return target

    def test_metrics_main_text(self, tmp_path, capsys):
        assert metrics_main([str(self._saved_store(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "# TYPE engine_query_seconds histogram" in out
        assert "engine_queries_total" in out
        assert "process_uptime_seconds" in out

    def test_metrics_main_json(self, tmp_path):
        buffer = io.StringIO()
        assert (
            metrics_main(
                [str(self._saved_store(tmp_path)), "--format", "json"],
                stdout=buffer,
            )
            == 0
        )
        doc = json.loads(buffer.getvalue())
        names = {m["name"] for m in doc["metrics"]}
        assert "engine_query_seconds" in names
        assert "store_hydrate_seconds" in names  # lazy load was probed

    def test_repl_metrics_command(self):
        out = io.StringIO()
        serve_main(
            ["--dataset", "steps", "--n", "256", "--families", "merging"],
            stdin=io.StringIO("range merging 0 100\nmetrics\nmetrics json\nquit\n"),
            stdout=out,
        )
        text = out.getvalue()
        assert "engine_queries_total" in text
        assert '"p99"' in text  # json form too
        assert "process_uptime_seconds" in text

    def test_summary_line_shows_build_elapsed(self):
        out = io.StringIO()
        serve_main(
            ["--dataset", "steps", "--n", "256", "--families", "merging"],
            stdin=io.StringIO("summary\nquit\n"),
            stdout=out,
        )
        assert "build=" in out.getvalue()
