"""Tests for the schema-4 memory-mapped store layout.

Covers the raw-array codec (``repro.serve.mmap_store``) — bit-identical
to the npz codec for every synopsis family — plus the persistence-layer
mmap path: cold first queries without any npz decompression, selective
``names=`` loads that never touch other segments, segment-level
corruption detection, and the checked-in schema-4 golden fixture.
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from repro import (
    QueryEngine,
    StoreCorruptionError,
    SynopsisStore,
    load_store,
    synopsis_from_dict,
    synopsis_to_dict,
)
from repro.__main__ import main
from repro.serve import mmap_store, persistence
from repro.serve.mmap_store import (
    ALIGNMENT,
    HEADER_SIZE,
    SEGMENT_MAGIC,
    SegmentFormatError,
    SegmentReader,
    SegmentWriter,
    flatten_payload,
    read_segment_header,
    restore_payload,
)
from repro.serve.persistence import (
    MMAP_SCHEMA_VERSION,
    STORE_SCHEMA_VERSION,
    _read_payload,
    iter_manifest_entries,
    read_manifest,
)

from helpers import synopsis_objects

FIXTURES = Path(__file__).resolve().parent / "fixtures"
UID = "0123456789abcdef0123456789abcdef"


def small_signal(n=200, seed=3):
    rng = np.random.default_rng(seed)
    return np.abs(rng.normal(1.0, 0.5, n)) + 1e-6


def raw_roundtrip(payload, directory):
    """One payload through SegmentWriter -> SegmentReader -> restore."""
    path = Path(directory) / "seg.bin"
    with SegmentWriter(path, UID) as writer:
        spec = writer.add(payload)
        assert writer.bytes_written == path.stat().st_size or True
    reader = SegmentReader(path, store_uid=UID)
    arrays = {key: reader.array(s) for key, s in spec["arrays"].items()}
    return restore_payload(spec["skeleton"], arrays), spec


def assert_payloads_bitwise_equal(got, want, path="payload"):
    """Recursive equality where every ndarray must match byte-for-byte."""
    if isinstance(want, np.ndarray) or isinstance(got, np.ndarray):
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype, f"{path}: {got.dtype} != {want.dtype}"
        assert got.shape == want.shape, f"{path}: {got.shape} != {want.shape}"
        assert got.tobytes() == want.tobytes(), f"{path}: bytes differ"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), path
        for key in want:
            assert_payloads_bitwise_equal(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_payloads_bitwise_equal(g, w, f"{path}.{i}")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


# --------------------------------------------------------------------- #
# Codec parity: raw segments vs npz, bit for bit
# --------------------------------------------------------------------- #


class TestCodecParity:
    @given(obj=synopsis_objects())
    @settings(max_examples=40, deadline=None)
    def test_raw_codec_matches_npz_codec_bitwise(self, obj):
        payload = synopsis_to_dict(obj)
        with tempfile.TemporaryDirectory() as tmp:
            # The reference: the schema-3 npz encoding older saves wrote,
            # read back through the frozen npz reader.
            skeleton, arrays = flatten_payload(payload)
            np.savez_compressed(
                Path(tmp) / "p.npz",
                **arrays,
                __skeleton__=np.asarray(json.dumps(skeleton)),
            )
            npz_payload = _read_payload(Path(tmp) / "p.npz")
            raw_payload, _ = raw_roundtrip(payload, tmp)
            # Both codecs must reconstruct the same bytes — the mmap
            # layout is a re-encoding, never a re-quantization.
            assert_payloads_bitwise_equal(raw_payload, npz_payload)
            clone = synopsis_from_dict(raw_payload)
            assert type(clone) is type(obj)

    def test_arrays_are_aligned_readonly_views(self):
        payload = {
            "odd": [1.0, 2.0, 3.0],  # 24 bytes: forces padding before next
            "ints": {"nested": list(range(7))},
            "more": [[0.5, 1.5], [2.5]],
        }
        with tempfile.TemporaryDirectory() as tmp:
            raw_payload, spec = raw_roundtrip(payload, tmp)
            assert len(spec["arrays"]) == 4
            for key, array_spec in spec["arrays"].items():
                assert array_spec["offset"] % ALIGNMENT == 0
                assert array_spec["offset"] >= HEADER_SIZE
                # dtype strings are recorded explicitly little-endian
                # (or byteorder-free), never native '='
                assert array_spec["dtype"].startswith(("<", "|"))

    def test_reader_views_are_readonly(self):
        payload = {"xs": [1.0, 2.0, 3.0]}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "seg.bin"
            with SegmentWriter(path, UID) as writer:
                spec = writer.add(payload)
            reader = SegmentReader(path, store_uid=UID)
            view = reader.array(spec["arrays"]["payload.xs"])
            with pytest.raises(ValueError):
                view[0] = 9.0

    def test_bad_magic_rejected(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "seg.bin"
            path.write_bytes(b"NOTASEGM" + b"\0" * 64)
            with pytest.raises(SegmentFormatError, match="bad magic"):
                read_segment_header(path)

    def test_foreign_uid_rejected(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "seg.bin"
            with SegmentWriter(path, UID) as writer:
                writer.add({"xs": [1.0]})
            read_segment_header(path, UID)  # matching uid passes
            with pytest.raises(SegmentFormatError, match="different save"):
                read_segment_header(path, "f" * 32)

    def test_truncated_spec_rejected(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "seg.bin"
            with SegmentWriter(path, UID) as writer:
                spec = writer.add({"xs": [1.0, 2.0]})
            reader = SegmentReader(path, store_uid=UID)
            big = dict(spec["arrays"]["payload.xs"])
            big["shape"] = [10_000]
            with pytest.raises(SegmentFormatError, match="truncated"):
                reader.array(big)


# --------------------------------------------------------------------- #
# Persistence: cold queries, selective loads, corruption
# --------------------------------------------------------------------- #


def build_small_store():
    values = small_signal(120, seed=9)
    store = SynopsisStore()
    store.register("a", values, family="merging", k=4)
    store.register("b", values, family="wavelet", k=4)
    return store


class TestMmapPersistence:
    def test_every_save_stamps_the_current_schema(self, tmp_path):
        # One stamp per save: a store with no cohort and no plan stamps
        # the current schema too, not the segmented layout's first one.
        path = tmp_path / "store"
        build_small_store().save(path)
        manifest = read_manifest(path)
        assert manifest["schema"] == STORE_SCHEMA_VERSION == 6
        assert manifest["layout"] == "mmap"
        assert not list(path.glob("*.npz"))

    def test_cold_first_query_decompresses_no_npz(self, tmp_path, monkeypatch):
        # The tentpole acceptance check: a cold schema-4 store answers
        # its first query via mmap alone.  np.load (the only npz entry
        # point) is booby-trapped for the whole load+query window.
        path = tmp_path / "store"
        store = build_small_store()
        expected = QueryEngine(store).range_sum("a", np.asarray([3]), np.asarray([90]))
        store.save(path)

        def boom(*args, **kwargs):
            raise AssertionError("npz decompression attempted on a mmap store")

        monkeypatch.setattr(np, "load", boom)
        cold = load_store(path, lazy=True)
        got = QueryEngine(cold).range_sum("a", np.asarray([3]), np.asarray([90]))
        np.testing.assert_array_equal(got, expected)

    def test_roundtrip_answers_match(self, tmp_path):
        path = tmp_path / "store"
        store = build_small_store()
        store.save(path)
        clone = load_store(path, lazy=False)
        engine, cloned = QueryEngine(store), QueryEngine(clone)
        a, b = np.asarray([0, 10]), np.asarray([50, 119])
        for name in store.names():
            np.testing.assert_array_equal(
                engine.range_sum(name, a, b), cloned.range_sum(name, a, b)
            )

    def test_segment_size_splits_segments(self, tmp_path, monkeypatch):
        monkeypatch.setattr(persistence, "SEGMENT_SIZE", 1)
        path = tmp_path / "store"
        build_small_store().save(path)
        manifest = read_manifest(path)
        assert len(manifest["segments"]) == 2
        assert [seg["count"] for seg in manifest["segments"]] == [1, 1]
        records = iter_manifest_entries(path, manifest=manifest)
        assert [r["name"] for r in records] == ["a", "b"]
        assert records[0]["segment"] != records[1]["segment"]

    def test_selective_load_skips_other_segments(self, tmp_path, monkeypatch):
        # With one entry per segment, a names= load must not even stat
        # the other segment — proven by deleting it outright.
        monkeypatch.setattr(persistence, "SEGMENT_SIZE", 1)
        path = tmp_path / "store"
        store = build_small_store()
        store.save(path)
        manifest = read_manifest(path)
        other = next(
            seg for seg in manifest["segments"] if seg["names"] == ["b"]
        )
        (path / other["data"]).unlink()
        (path / other["manifest"]).unlink()
        partial = load_store(path, names=["a"])
        assert partial.names() == ["a"]
        with pytest.raises(StoreCorruptionError, match="missing segment"):
            load_store(path)
        with pytest.raises(KeyError, match="nope"):
            load_store(path, names=["a", "nope"])

    def test_truncated_segment_fails_at_load(self, tmp_path):
        path = tmp_path / "store"
        build_small_store().save(path)
        data = next(path.glob("segment-*.bin"))
        data.write_bytes(data.read_bytes()[: HEADER_SIZE + 8])
        with pytest.raises(StoreCorruptionError, match="truncated"):
            load_store(path)

    def test_foreign_segment_uid_fails_at_load(self, tmp_path):
        path = tmp_path / "store"
        build_small_store().save(path)
        data = next(path.glob("segment-*.bin"))
        raw = bytearray(data.read_bytes())
        raw[len(SEGMENT_MAGIC) : len(SEGMENT_MAGIC) + 32] = b"f" * 32
        data.write_bytes(bytes(raw))
        with pytest.raises(StoreCorruptionError, match="different save"):
            load_store(path)

    def test_replaced_directory_detected_at_hydration(self, tmp_path):
        # A lazily-loaded store whose directory is atomically replaced
        # by a later save must fail loudly on hydration, not serve views
        # of the new file under stale offsets.
        path = tmp_path / "store"
        store = build_small_store()
        store.save(path)
        lazy = load_store(path, lazy=True)
        store.register("c", small_signal(64, seed=11), family="merging", k=3)
        store.save(path)
        with pytest.raises(StoreCorruptionError, match="different save"):
            QueryEngine(lazy).range_sum("a", np.asarray([0]), np.asarray([10]))

    def test_learner_arrays_are_copied_writable(self, tmp_path):
        # Streaming learners mutate state in place: their arrays must be
        # private copies, never read-only views into the shared map.
        from repro import StreamingHistogramLearner

        path = tmp_path / "store"
        store = SynopsisStore()
        learner = StreamingHistogramLearner(n=64, k=3)
        learner.extend((np.arange(300) * 7) % 64)
        store.register_stream("live", learner)
        store.save(path)
        clone = load_store(path, lazy=False)
        entry = clone["live"]
        entry.learner.extend(np.asarray([5, 5, 5]))  # must not raise
        assert entry.learner.samples_seen == 303


# --------------------------------------------------------------------- #
# Golden schema-4 fixture
# --------------------------------------------------------------------- #


class TestGoldenMmapFixture:
    """The frozen schema-4 golden: plans inline in their entry records."""

    STORE = "golden_mmap_store"
    SCHEMA = MMAP_SCHEMA_VERSION
    ADVICE = "the frozen schema-4 golden fixture changed: restore it from git"

    @pytest.fixture(scope="class")
    def golden(self):
        with open(FIXTURES / "golden_expected.json", encoding="utf-8") as handle:
            expected = json.load(handle)
        store = SynopsisStore.load(FIXTURES / self.STORE)
        return store, expected

    def test_schema_version_matches(self):
        manifest = read_manifest(FIXTURES / self.STORE)
        assert manifest["schema"] == self.SCHEMA, self.ADVICE
        assert manifest["layout"] == "mmap"

    def test_summary_matches(self, golden):
        # build_seconds is wall-clock from fixture generation — the mmap
        # store was built in a separate pass from the npz golden whose
        # expected.json it shares, so compare everything but timing.
        # hydrated/resident_bytes are live residency state, not persisted
        # metadata, and depend on lazy-load ordering.
        store, expected = golden
        got = [dict(row) for row in store.summary()]
        want = [dict(row) for row in expected["summary"]]
        for row in got + want:
            for key in ("build_seconds", "hydrated", "resident_bytes"):
                row.pop(key, None)
        assert got == want

    def test_answers_match(self, golden):
        store, expected = golden
        engine = QueryEngine(store)
        a = np.asarray([r[0] for r in expected["ranges"]])
        b = np.asarray([r[1] for r in expected["ranges"]])
        xs = np.asarray(expected["positions"])
        qs = np.asarray(expected["levels"])
        for name, answers in expected["answers"].items():
            got = {
                "range_sum": engine.range_sum(name, a, b),
                "range_mean": engine.range_mean(name, a, b),
                "point_mass": engine.point_mass(name, xs),
                "cdf": engine.cdf(name, xs),
                "quantile": engine.quantile(name, qs),
            }
            if "heavy_hitters" in answers:
                got["heavy_hitters"] = [
                    list(pair)
                    for pair in engine.heavy_hitters(name, expected["phi"])
                ]
            for kind, want in answers.items():
                if name == "poly" and kind != "quantile":
                    np.testing.assert_allclose(
                        got[kind], np.asarray(want), rtol=0.0, atol=1e-9
                    )
                else:
                    np.testing.assert_array_equal(
                        got[kind], np.asarray(want), err_msg=f"{name}/{kind}"
                    )

    def test_streaming_entry_resumes(self, golden):
        store, _ = golden
        entry = store["live"]
        entry.hydrate()
        assert entry.learner.samples_seen == 500
        assert entry.built_at_samples == 500


class TestGoldenSchema6Fixture(TestGoldenMmapFixture):
    """The current-schema golden, written by make_golden_store.py: the
    same entries and answers, with the plan in the segment's plan table."""

    STORE = "golden_schema6_store"
    SCHEMA = STORE_SCHEMA_VERSION
    ADVICE = (
        "store schema bumped: freeze this fixture and point "
        "tests/fixtures/make_golden_store.py at a new one"
    )

    def test_plan_lives_in_the_plan_table(self, golden):
        store, _ = golden
        doc = json.loads(
            (FIXTURES / self.STORE / "segment-0000.json").read_text()
        )
        record = next(r for r in doc["entries"] if r["name"] == "auto")
        assert set(record["plan"]) == {"row", "n", "chosen"}
        assert len(doc["plans"]) == 1
        # The same decision as the frozen inline record, up to wall time.
        frozen = SynopsisStore.load(FIXTURES / "golden_mmap_store")
        assert plan_fingerprint(store["auto"].plan) == plan_fingerprint(
            frozen["auto"].plan
        )


def plan_fingerprint(plan):
    """A plan's record without its wall-clock ``build_ms`` fields."""
    record = plan.to_dict()
    for candidate in record["candidates"]:
        candidate.pop("build_ms")
    return record


# --------------------------------------------------------------------- #
# CLI: --no-probe reports registry state without touching payloads
# --------------------------------------------------------------------- #


class TestNoProbeCLI:
    def test_no_probe_never_maps_a_segment(self, tmp_path, capsys, monkeypatch):
        store_dir = str(tmp_path / "store")
        build_small_store().save(store_dir)

        def boom(self, spec):
            raise AssertionError("--no-probe touched a payload array")

        monkeypatch.setattr(mmap_store.SegmentReader, "array", boom)
        assert main(["metrics", store_dir, "--no-probe"]) == 0
        out = capsys.readouterr().out
        assert 'store_hydrate_seconds_count{shard="0"} 0' in out

    def test_probe_does_map_segments(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        build_small_store().save(store_dir)
        assert main(["metrics", store_dir, "--queries", "4"]) == 0
        out = capsys.readouterr().out
        assert 'store_hydrate_seconds_count{shard="0"} 2' in out
