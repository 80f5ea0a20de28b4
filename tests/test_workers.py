"""Tests for the multi-process shard workers (repro.serve.workers).

Covers the pickle-free wire codec (round-trips + malformed-message
rejection), ``ProcessShardRouter`` parity with the in-process frontend
(values, versions, errors, cross-worker inner products), per-worker
metrics merging, crash/restart semantics (no lost or duplicated
results), and the ``--workers`` CLI surface.
"""

import io
from pathlib import Path

import numpy as np
import pytest

from helpers import summary_metadata
from repro import ShardRouter, StoreCorruptionError, SynopsisStore
from repro.__main__ import main
from repro.serve.frontend import AsyncServingFrontend, QueryRequest
from repro.serve.persistence import save_sharded, save_store
from repro.serve.workers import (
    ProcessShardRouter,
    WireFormatError,
    WorkerCrashError,
    decode_message,
    encode_message,
)


def build_router():
    rng = np.random.default_rng(0)
    router = ShardRouter(num_shards=2)
    vals = rng.random(256) + 0.01
    router.register("a", vals, family="merging", k=6)
    router.register("b", 2.0 * vals, family="wavelet", k=6)
    return router


def golden_requests():
    return [
        QueryRequest("range_sum", "a", (0, 100)),
        QueryRequest("quantile", "b", (0.5,)),
        QueryRequest("point_mass", "a", (np.arange(4),)),
        # Crosses shards: "a" and "b" live on different workers, so the
        # owning worker must resolve its partner from the shared store.
        QueryRequest("inner_product", "a", ("b",)),
        QueryRequest("range_sum", "nope", (0, 10)),
    ]


def assert_results_match(got, want):
    assert len(got) == len(want)
    for g, e in zip(got, want):
        assert (g.index, g.name, g.kind, g.version) == (
            e.index,
            e.name,
            e.kind,
            e.version,
        )
        if isinstance(e.value, np.ndarray):
            np.testing.assert_array_equal(g.value, e.value)
        else:
            assert g.value == e.value
        assert (g.error is None) == (e.error is None)


# --------------------------------------------------------------------- #
# Wire codec
# --------------------------------------------------------------------- #


class TestWireCodec:
    def test_roundtrip_preserves_shapes_and_types(self):
        message = {
            "cmd": "query",
            "args": ("a", (0, 100), np.arange(4)),
            "rows": [
                {"value": np.linspace(0.0, 1.0, 5), "flag": True},
                {"value": None, "pairs": [(3, 0.5), (7, 0.25)]},
            ],
            "matrix": np.arange(6, dtype=np.float32).reshape(2, 3),
            "scalar_i": np.int64(7),
            "scalar_f": np.float64(2.5),
            "scalar_b": np.bool_(True),
        }
        decoded = decode_message(encode_message(message))
        assert decoded["cmd"] == "query"
        # tuples survive as tuples — QueryRequest args keep their shape
        assert decoded["args"] == ("a", (0, 100), decoded["args"][2])
        np.testing.assert_array_equal(decoded["args"][2], np.arange(4))
        np.testing.assert_array_equal(
            decoded["rows"][0]["value"], np.linspace(0.0, 1.0, 5)
        )
        assert decoded["rows"][1]["pairs"] == [(3, 0.5), (7, 0.25)]
        assert decoded["matrix"].dtype == np.dtype("<f4")
        assert decoded["matrix"].shape == (2, 3)
        assert decoded["scalar_i"] == 7 and isinstance(decoded["scalar_i"], int)
        assert decoded["scalar_f"] == 2.5
        assert decoded["scalar_b"] is True

    def test_decoded_arrays_are_writable(self):
        decoded = decode_message(encode_message({"xs": np.arange(3)}))
        decoded["xs"][0] = 99  # results must behave like in-process ones

    def test_object_dtype_rejected(self):
        with pytest.raises(WireFormatError, match="dtype"):
            encode_message({"bad": np.asarray([object()])})

    def test_nonstring_keys_rejected(self):
        with pytest.raises(WireFormatError, match="keys must be strings"):
            encode_message({1: "x"})

    def test_unencodable_type_rejected(self):
        with pytest.raises(WireFormatError, match="cannot encode"):
            encode_message({"bad": {3, 4}})

    def test_truncated_messages_rejected(self):
        with pytest.raises(WireFormatError, match="length prefix"):
            decode_message(b"\x01")
        whole = encode_message({"xs": np.arange(10)})
        with pytest.raises(WireFormatError, match="truncated"):
            decode_message(whole[:-8])

    def test_garbage_header_rejected(self):
        import struct

        data = struct.pack("<I", 4) + b"!!!!"
        with pytest.raises(WireFormatError, match="malformed message header"):
            decode_message(data)


# --------------------------------------------------------------------- #
# ProcessShardRouter
# --------------------------------------------------------------------- #


class TestProcessShardRouter:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        router = build_router()
        path = tmp_path_factory.mktemp("workers") / "sharded"
        save_sharded(router, path)
        requests = golden_requests()
        inproc = AsyncServingFrontend(router).serve(requests)
        with ProcessShardRouter(path, workers=2) as prouter:
            yield prouter, router, requests, inproc

    def test_parity_with_inprocess_frontend(self, served):
        prouter, router, requests, inproc = served
        assert prouter.num_workers == 2
        assert prouter.names() == router.names()
        assert summary_metadata(prouter) == summary_metadata(router)
        assert prouter.describe("a")["shard"] == 0 or (
            prouter.describe("a")["shard"] == 1
        )
        assert_results_match(prouter.serve(requests), inproc)

    def test_single_query_surface(self, served):
        prouter, router, _, _ = served
        np.testing.assert_array_equal(
            prouter.range_sum("a", 0, 100), router.range_sum("a", 0, 100)
        )
        with pytest.raises(ValueError, match="nope"):
            prouter.range_sum("nope", 0, 10)

    def test_metrics_merge_with_worker_labels(self, served):
        prouter, _, requests, _ = served
        prouter.serve(requests)
        registry = prouter.collect_metrics()
        rows = [
            (name, labels)
            for name, labels, _ in registry.collect()
            if name == "frontend_requests_total"
        ]
        workers = {labels.get("worker") for _, labels in rows}
        assert {"0", "1"} <= workers
        batches = [
            metric.value
            for name, _, metric in registry.collect()
            if name == "process_router_batches_total"
        ]
        assert batches and batches[0] >= 1

    def test_ping_and_describe_shards(self, served):
        prouter, _, _, _ = served
        assert prouter.ping()
        shards = prouter.describe_shards()
        assert [row["shard"] for row in shards] == [0, 1]
        assert sum(row["entries"] for row in shards) == 2

    def test_crash_restart_loses_no_results(self, served):
        # Killing a worker mid-fleet must redispatch its sub-batch to a
        # fresh process: same indices back, nothing lost or duplicated.
        prouter, _, requests, inproc = served
        before = prouter.restarts_total
        labeled_before = prouter.registry.counter(
            "worker_restarts_total",
            "respawns of one worker process",
            worker="0",
        ).value
        prouter._workers[0].process.kill()
        got = prouter.serve(requests)
        assert [r.index for r in got] == [0, 1, 2, 3, 4]
        assert_results_match(got, inproc)
        assert prouter.restarts_total == before + 1
        # Satellite: the respawn shows up in the per-worker labeled
        # series (merged into the fleet registry), not just the total.
        labeled = prouter.registry.get("worker_restarts_total", worker="0")
        assert labeled.value == labeled_before + 1
        merged = {
            labels.get("worker"): metric.value
            for name, labels, metric in prouter.collect_metrics().collect()
            if name == "worker_restarts_total"
        }
        assert merged.get("0", 0) >= 1

    def test_maybe_reload_tracks_persisted_map(self, tmp_path):
        """An external rebalance (migrate + save) is picked up by the
        versioned shard-map reload: placement updates, answers survive."""
        router = build_router()
        path = tmp_path / "sharded"
        save_sharded(router, path)
        with ProcessShardRouter(path, workers=2) as prouter:
            assert prouter.maybe_reload() is False  # nothing changed
            expected = prouter.range_sum("a", 0, 100)
            old_shard = prouter._shard_index("a")
            # Rebalance out-of-process: move "a" to the other shard and
            # republish the store.
            router.migrate("a", 1 - old_shard)
            save_sharded(router, path)
            assert prouter.maybe_reload() is True
            assert prouter._shard_index("a") == 1 - old_shard
            np.testing.assert_array_equal(
                prouter.range_sum("a", 0, 100), expected
            )
            assert prouter.maybe_reload() is False  # idempotent

    def test_plain_store_clamps_to_one_worker(self, tmp_path):
        values = np.abs(np.random.default_rng(5).normal(1.0, 0.5, 128)) + 1e-6
        store = SynopsisStore()
        store.register("solo", values, family="merging", k=4)
        path = tmp_path / "plain"
        save_store(store, path)
        with ProcessShardRouter(path, workers=4) as prouter:
            assert prouter.num_workers == 1
            result = prouter.serve([QueryRequest("range_sum", "solo", (0, 50))])
            assert result[0].error is None

    def test_restart_budget_exhausts_loudly(self, tmp_path):
        router = build_router()
        path = tmp_path / "sharded"
        save_sharded(router, path)
        with ProcessShardRouter(path, workers=1, max_restarts=0) as prouter:
            prouter._workers[0].process.kill()
            with pytest.raises(WorkerCrashError, match="max_restarts=0"):
                prouter.serve([QueryRequest("range_sum", "a", (0, 10))])

    def test_invalid_worker_count_rejected(self, tmp_path):
        router = build_router()
        path = tmp_path / "sharded"
        save_sharded(router, path)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ProcessShardRouter(path, workers=0)

    def test_missing_store_fails_loudly(self, tmp_path):
        with pytest.raises((FileNotFoundError, StoreCorruptionError)):
            ProcessShardRouter(tmp_path / "nope", workers=2)


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #


class TestWorkersCLI:
    def test_serve_and_metrics_with_workers(self, tmp_path, capsys):
        from repro.serve.cli import serve_main

        store_dir = str(tmp_path / "store")
        assert main(
            ["save", "--n", "256", "--k", "4", "--families",
             "merging,wavelet", "--shards", "2", "--store-dir", store_dir]
        ) == 0
        capsys.readouterr()

        commands = io.StringIO(
            "shards\nrange merging 0 100\nquantile wavelet 0.5\nquit\n"
        )
        out = io.StringIO()
        assert serve_main(
            ["--store-dir", store_dir, "--workers", "2"],
            stdin=commands,
            stdout=out,
        ) == 0
        text = out.getvalue()
        assert "via 2 worker process(es)" in text
        assert "shard 0 (worker 0)" in text

        assert main(
            ["metrics", store_dir, "--workers", "2", "--format", "text"]
        ) == 0
        text = capsys.readouterr().out
        assert 'worker="0"' in text and 'worker="1"' in text

    def test_workers_require_store_dir(self):
        from repro.serve.cli import serve_main

        with pytest.raises(SystemExit, match="--workers requires --store-dir"):
            serve_main(["--n", "64", "--workers", "2"])

    def test_save_is_rejected_in_worker_repl(self, tmp_path):
        from repro.serve.cli import serve_main

        store_dir = str(tmp_path / "store")
        assert main(
            ["save", "--n", "128", "--k", "4", "--families", "merging",
             "--store-dir", store_dir]
        ) == 0
        out = io.StringIO()
        commands = io.StringIO(f"save {tmp_path / 'copy'}\nquit\n")
        assert serve_main(
            ["--store-dir", store_dir, "--workers", "1"],
            stdin=commands,
            stdout=out,
        ) == 0
        assert "save is not supported with --workers" in out.getvalue()
        assert not (tmp_path / "copy").exists()
