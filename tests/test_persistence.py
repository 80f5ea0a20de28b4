"""Tests for durable synopsis stores (repro.serve.persistence).

Covers the universal serialization protocol (every family round-trips
through ``to_dict``/``from_dict`` with identical query answers), store
``save``/``load`` (versions, metadata, streaming staleness), the
checked-in golden fixture guarding the on-disk schema, and crash safety
(corrupted stores fail loudly; failed saves leave the old store intact).
"""

import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BuildResult,
    Histogram,
    QueryEngine,
    SparseFunction,
    StoreCorruptionError,
    StreamingHistogramLearner,
    SynopsisStore,
    build_synopsis,
    load_store,
    save_store,
    synopsis_from_dict,
    synopsis_to_dict,
)
from repro.__main__ import main
from repro.serve.engine import PrefixTable
from repro.serve.persistence import STORE_SCHEMA_VERSION, read_manifest

from helpers import (
    histograms,
    piecewise_polynomials,
    positive_dense_arrays,
    sparse_functions,
    summary_metadata,
    synopsis_objects,
    wavelet_synopses,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def table_answers(synopsis) -> dict:
    """Every query kind over the full domain of a synopsis's prefix table."""
    table = PrefixTable.from_synopsis(synopsis)
    n = table.n
    xs = np.arange(n)
    out = {
        "integral": table.integral(np.arange(n + 1)),
        "range_sum": table.range_sum(np.zeros(n, dtype=np.int64), xs),
        "point_mass": table.point_mass(xs),
    }
    if table.total_mass > 1e-9:
        out["cdf"] = table.cdf(xs)
        try:
            out["quantile"] = table.quantile(np.linspace(0.0, 1.0, 21))
        except ValueError:
            out["quantile"] = "raises"  # non-monotone reconstruction
    return out


def assert_same_answers(original, clone) -> None:
    expected = table_answers(original)
    got = table_answers(clone)
    assert expected.keys() == got.keys()
    for kind, answer in expected.items():
        if isinstance(answer, str):
            assert got[kind] == answer
        else:
            np.testing.assert_array_equal(got[kind], answer, err_msg=kind)


# --------------------------------------------------------------------- #
# Universal serialization: every family round-trips bitwise
# --------------------------------------------------------------------- #


class TestSynopsisRoundTrip:
    @given(histograms())
    @settings(max_examples=40, deadline=None)
    def test_histogram(self, synopsis):
        clone = synopsis_from_dict(json.loads(json.dumps(synopsis_to_dict(synopsis))))
        assert isinstance(clone, Histogram)
        assert clone == synopsis
        assert_same_answers(synopsis, clone)

    @given(wavelet_synopses())
    @settings(max_examples=40, deadline=None)
    def test_wavelet(self, synopsis):
        clone = synopsis_from_dict(json.loads(json.dumps(synopsis_to_dict(synopsis))))
        np.testing.assert_array_equal(clone.indices, synopsis.indices)
        np.testing.assert_array_equal(clone.coefficients, synopsis.coefficients)
        assert clone.error == synopsis.error
        assert_same_answers(synopsis, clone)

    @given(piecewise_polynomials())
    @settings(max_examples=40, deadline=None)
    def test_piecewise_polynomial(self, synopsis):
        clone = synopsis_from_dict(json.loads(json.dumps(synopsis_to_dict(synopsis))))
        assert clone.num_pieces == synopsis.num_pieces
        for mine, theirs in zip(synopsis.fits, clone.fits):
            assert (mine.a, mine.b, mine.degree) == (theirs.a, theirs.b, theirs.degree)
            np.testing.assert_array_equal(mine.coefficients, theirs.coefficients)
        assert_same_answers(synopsis, clone)

    @given(sparse_functions())
    @settings(max_examples=40, deadline=None)
    def test_sparse(self, synopsis):
        clone = synopsis_from_dict(json.loads(json.dumps(synopsis_to_dict(synopsis))))
        assert clone.allclose(synopsis, rtol=0.0, atol=0.0)
        assert_same_answers(synopsis, clone)

    @given(synopsis_objects())
    @settings(max_examples=40, deadline=None)
    def test_dense_reconstruction_identical(self, synopsis):
        clone = synopsis_from_dict(synopsis_to_dict(synopsis))
        assert type(clone) is type(synopsis)
        np.testing.assert_array_equal(clone.to_dense(), synopsis.to_dense())

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError, match="unknown synopsis kind"):
            synopsis_from_dict({"kind": "martian", "n": 4})
        with pytest.raises(TypeError):
            synopsis_from_dict("not a dict")
        with pytest.raises(TypeError, match="unsupported synopsis type"):
            synopsis_to_dict(object())

    def test_wrong_kind_routing_rejected(self):
        # A payload routed to the wrong class fails its tag check ...
        payload = Histogram.from_dense(np.ones(4)).to_dict()
        with pytest.raises(ValueError, match="does not match"):
            SparseFunction.from_dict(payload)
        # ... and a mislabeled payload fails the target's field validation.
        payload["kind"] = "wavelet"
        with pytest.raises((KeyError, ValueError)):
            synopsis_from_dict(payload)

    def test_future_schema_rejected(self):
        payload = SparseFunction(5, [1], [2.0]).to_dict()
        payload["schema"] = STORE_SCHEMA_VERSION + 99
        with pytest.raises(ValueError, match="newer"):
            synopsis_from_dict(payload)

    def test_legacy_untagged_histogram_payload_loads(self):
        hist = Histogram.from_dense(np.asarray([1.0, 1.0, 3.0]))
        payload = hist.to_dict()
        del payload["kind"], payload["schema"]
        assert Histogram.from_dict(payload) == hist


# --------------------------------------------------------------------- #
# BuildResult metadata round-trip (the describe() parity fix)
# --------------------------------------------------------------------- #


class TestBuildResultRoundTrip:
    def test_describe_survives_serialization(self):
        values = ((np.arange(128) * 13) % 31 + 1) / 31.0
        result = build_synopsis(values, "merging", 5, delta=500.0, gamma=2.0)
        clone = BuildResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone.describe() == result.describe()
        assert clone.options == {"delta": 500.0, "gamma": 2.0}
        np.testing.assert_array_equal(
            clone.synopsis.to_dense(), result.synopsis.to_dense()
        )

    def test_metadata_only_payload_revives_unhydrated(self):
        values = np.ones(32)
        result = build_synopsis(values, "merging", 2)
        clone = BuildResult.from_dict(result.to_dict(include_synopsis=False))
        assert clone.synopsis is None
        assert clone.describe() == result.describe()

    def test_pieces_cached_in_metadata(self):
        result = build_synopsis(np.asarray([1.0, 1.0, 5.0, 5.0]), "exact", 1)
        assert result.pieces == result.describe()["pieces"] == 2


# --------------------------------------------------------------------- #
# Store save/load
# --------------------------------------------------------------------- #


def small_signal(n=200, seed=3):
    rng = np.random.default_rng(seed)
    return np.abs(rng.normal(1.0, 0.5, n)) + 1e-6


@pytest.fixture
def populated_store():
    values = small_signal()
    store = SynopsisStore()
    store.register("merging", values, family="merging", k=5, delta=500.0)
    store.register("wavelet", values, family="wavelet", k=4)
    store.register("poly", values, family="poly", k=3, degree=2)
    store.register("gks", values, family="gks", k=4)
    learner = StreamingHistogramLearner(n=100, k=3)
    learner.extend(np.random.default_rng(5).integers(0, 100, 600))
    store.register_stream("live", learner)
    store.register("bumped", values, family="fast", k=4)
    store.register("bumped", values, family="fast", k=6)  # version 1
    return store


class TestStoreSaveLoad:
    def test_all_query_kinds_bitwise_identical(self, populated_store, tmp_path):
        store = populated_store
        engine = QueryEngine(store)
        rng = np.random.default_rng(7)
        names = store.names()
        queries = {}
        for name in names:
            n = store[name].result.n
            a = rng.integers(0, n, 64)
            b = rng.integers(0, n, 64)
            a, b = np.minimum(a, b), np.maximum(a, b)
            x = rng.integers(0, n, 64)
            q = rng.random(32)
            queries[name] = (a, b, x, q)
        before = {
            name: (
                engine.range_sum(name, a, b),
                engine.point_mass(name, x),
                engine.cdf(name, x),
                engine.quantile(name, q),
                engine.top_k_buckets(name, 3),
            )
            for name, (a, b, x, q) in queries.items()
        }

        store.save(tmp_path / "store")
        loaded = SynopsisStore.load(tmp_path / "store")
        fresh = QueryEngine(loaded)
        for name, (a, b, x, q) in queries.items():
            after = (
                fresh.range_sum(name, a, b),
                fresh.point_mass(name, x),
                fresh.cdf(name, x),
                fresh.quantile(name, q),
                fresh.top_k_buckets(name, 3),
            )
            for kind, (want, got) in enumerate(zip(before[name], after)):
                np.testing.assert_array_equal(
                    np.asarray(got, dtype=object if kind == 4 else None),
                    np.asarray(want, dtype=object if kind == 4 else None),
                    err_msg=f"{name} query kind {kind}",
                )

    def test_summary_preserved_lazy_and_hydrated(self, populated_store, tmp_path):
        expected = summary_metadata(populated_store)
        populated_store.save(tmp_path / "store")
        loaded = SynopsisStore.load(tmp_path / "store")
        assert summary_metadata(loaded) == expected  # before any payload read
        QueryEngine(loaded).warm()
        assert all(loaded[name].is_hydrated for name in loaded.names())
        assert summary_metadata(loaded) == expected  # hydrated, still equal

    def test_versions_and_floors_preserved(self, populated_store, tmp_path):
        populated_store.remove("gks")  # floor must survive for the name
        populated_store.save(tmp_path / "store")
        loaded = SynopsisStore.load(tmp_path / "store")
        assert loaded["bumped"].version == 1
        entry = loaded.register("gks", small_signal(), family="gks", k=4)
        assert entry.version == 1  # never reissue version 0
        loaded.remove("bumped")
        entry = loaded.register("bumped", small_signal(), family="fast", k=4)
        assert entry.version == 2

    def test_lazy_is_lazy_eager_is_eager(self, populated_store, tmp_path):
        populated_store.save(tmp_path / "store")
        lazy = SynopsisStore.load(tmp_path / "store")
        assert not any(lazy[name].is_hydrated for name in lazy.names())
        QueryEngine(lazy).range_sum("merging", 0, 10)
        assert lazy["merging"].is_hydrated
        assert not lazy["wavelet"].is_hydrated
        eager = SynopsisStore.load(tmp_path / "store", lazy=False)
        assert all(eager[name].is_hydrated for name in eager.names())

    def test_streaming_staleness_resumes_identically(self, tmp_path):
        rng = np.random.default_rng(11)
        samples = [rng.integers(0, 80, size) for size in (400, 100, 900, 2000)]

        def run(store):
            versions = []
            for batch in samples[1:]:
                store.extend("live", batch)
                versions.append(store["live"].version)
            return versions

        def fresh_store():
            learner = StreamingHistogramLearner(n=80, k=3)
            learner.extend(samples[0])
            store = SynopsisStore()
            store.register_stream("live", learner)
            return store

        control = fresh_store()
        persisted = fresh_store()
        persisted.save(tmp_path / "store")
        loaded = SynopsisStore.load(tmp_path / "store")
        entry = loaded["live"]
        assert not entry.is_hydrated
        assert entry.describe()["samples_seen"] == 400
        assert run(loaded) == run(control)
        assert loaded["live"].learner.samples_seen == control["live"].learner.samples_seen
        assert loaded["live"].built_at_samples == control["live"].built_at_samples

    def test_learner_cached_histogram_round_trips(self):
        # The cached build and its watermark survive, so histogram() and
        # the refresh cadence are identical after a round trip (regression).
        rng = np.random.default_rng(21)
        learner = StreamingHistogramLearner(n=60, k=3)
        learner.extend(rng.integers(0, 60, 400))
        cached = learner.histogram()  # cache at m=400
        learner.extend(rng.integers(0, 60, 300))  # 700 < 2*400: not stale
        revived = StreamingHistogramLearner.from_state(
            json.loads(json.dumps(learner.state_dict()))
        )
        assert revived.histogram() == cached == learner.histogram()
        for extra in (rng.integers(0, 60, 50), rng.integers(0, 60, 100)):
            learner.extend(extra), revived.extend(extra)
            assert revived.histogram() == learner.histogram()

    def test_summary_mutation_does_not_corrupt_frozen_meta(
        self, populated_store, tmp_path
    ):
        populated_store.save(tmp_path / "store")
        loaded = SynopsisStore.load(tmp_path / "store")
        meta = loaded["merging"].describe()
        meta["options"]["delta"] = -1.0
        meta["family"] = "tampered"
        assert loaded["merging"].describe()["options"]["delta"] == 500.0
        assert loaded["merging"].describe()["family"] == "merging"

    def test_save_of_lazy_store_is_faithful_copy(self, populated_store, tmp_path):
        populated_store.save(tmp_path / "a")
        loaded = SynopsisStore.load(tmp_path / "a")
        loaded.save(tmp_path / "b")  # hydrates on demand while copying
        copy = SynopsisStore.load(tmp_path / "b")
        assert summary_metadata(copy) == summary_metadata(populated_store)

    def test_save_overwrites_only_stores(self, populated_store, tmp_path):
        target = tmp_path / "precious"
        target.mkdir()
        (target / "data.txt").write_text("do not clobber")
        with pytest.raises(ValueError, match="not a\n?.*synopsis store"):
            populated_store.save(target)
        assert (target / "data.txt").read_text() == "do not clobber"
        empty = tmp_path / "empty"
        empty.mkdir()
        populated_store.save(empty)  # empty directories are fair game
        assert set(SynopsisStore.load(empty).names()) == set(populated_store.names())

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["merging", "wavelet", "exact", "hierarchical"]),
                positive_dense_arrays(min_size=2, max_size=24),
                st.integers(min_value=1, max_value=4),
                st.integers(min_value=0, max_value=2),  # extra version bumps
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_random_store_round_trips(self, specs):
        store = SynopsisStore()
        for index, (family, values, k, bumps) in enumerate(specs):
            name = f"entry{index}"
            for _ in range(bumps + 1):
                store.register(name, values, family=family, k=k)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "store")
            save_store(store, path)
            loaded = load_store(path)
            assert summary_metadata(loaded) == summary_metadata(store)
            engine = QueryEngine(loaded)
            reference = QueryEngine(store)
            for name in store.names():
                n = store[name].result.n
                np.testing.assert_array_equal(
                    engine.range_sum(name, np.zeros(n, dtype=np.int64), np.arange(n)),
                    reference.range_sum(name, np.zeros(n, dtype=np.int64), np.arange(n)),
                )


class TestSurvivesNewProcess:
    """The acceptance criterion: one entry per family, save, fresh process,
    load — every query kind answers bitwise-identically."""

    def test_every_family_round_trips_across_processes(self, tmp_path):
        import subprocess
        import sys

        from repro import SYNOPSIS_FAMILIES

        signal = ((np.arange(150) * 37) % 53 + 1) / 53.0
        store = SynopsisStore()
        for family in SYNOPSIS_FAMILIES:
            store.register(family, signal, family=family, k=4)
        engine = QueryEngine(store)

        script = r"""
import json, sys
import numpy as np
from repro import QueryEngine, SynopsisStore

store = SynopsisStore.load(sys.argv[1])
engine = QueryEngine(store)
out = {}
for name in store.names():
    out[name] = {
        "range_sum": engine.range_sum(name, np.asarray([0, 10, 75]),
                                      np.asarray([149, 60, 149])).tolist(),
        "point_mass": engine.point_mass(name, np.asarray([0, 74, 149])).tolist(),
        "cdf": engine.cdf(name, np.asarray([0, 74, 149])).tolist(),
        "quantile": engine.quantile(name, np.asarray([0.1, 0.5, 0.9])).tolist(),
        "top_k": engine.top_k_buckets(name, 2),
        "meta": store[name].describe(),
    }
print(json.dumps(out))
"""
        expected = {}
        for name in store.names():
            expected[name] = {
                "range_sum": engine.range_sum(
                    name, np.asarray([0, 10, 75]), np.asarray([149, 60, 149])
                ).tolist(),
                "point_mass": engine.point_mass(name, np.asarray([0, 74, 149])).tolist(),
                "cdf": engine.cdf(name, np.asarray([0, 74, 149])).tolist(),
                "quantile": engine.quantile(name, np.asarray([0.1, 0.5, 0.9])).tolist(),
                "top_k": [list(b) for b in engine.top_k_buckets(name, 2)],
                "meta": store[name].describe(),
            }

        store.save(tmp_path / "store")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "store")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert set(got) == set(expected)
        for name in expected:
            for kind in ("range_sum", "point_mass", "cdf", "quantile"):
                assert got[name][kind] == expected[name][kind], (name, kind)
            assert [list(b) for b in got[name]["top_k"]] == expected[name]["top_k"]
            assert got[name]["meta"] == expected[name]["meta"]


# --------------------------------------------------------------------- #
# Golden fixture: the on-disk schema must not drift silently
# --------------------------------------------------------------------- #


class TestGoldenFixture:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(FIXTURES / "golden_expected.json", "r", encoding="utf-8") as handle:
            expected = json.load(handle)
        store = SynopsisStore.load(FIXTURES / "golden_store")
        return store, expected

    def test_schema_version_matches(self):
        # The npz golden fixture is frozen at the legacy schema 3 (nothing
        # writes that layout any more); the schema-4 mmap golden lives in
        # test_mmap.py.
        manifest = read_manifest(FIXTURES / "golden_store")
        assert manifest["schema"] == 3, (
            "the frozen npz golden fixture changed: restore it from git"
        )

    def test_summary_matches(self, golden):
        store, expected = golden
        want = [dict(row) for row in expected["summary"]]
        for row in want:  # the golden predates the residency keys
            row.pop("hydrated", None)
            row.pop("resident_bytes", None)
        assert summary_metadata(store) == want

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
                    # The poly prefix table is rebuilt through a least-squares
                    # interpolation whose last bits may vary across LAPACK
                    # builds; everything else must be byte-exact.
                    np.testing.assert_allclose(
                        got[kind], np.asarray(want), rtol=0.0, atol=1e-9
                    )
                else:
                    np.testing.assert_array_equal(
                        got[kind], np.asarray(want), err_msg=f"{name}/{kind}"
                    )

    def test_streaming_entry_resumes(self, golden):
        store, expected = golden
        entry = store["live"]
        entry.hydrate()
        assert entry.learner.samples_seen == 500
        assert entry.built_at_samples == 500


# --------------------------------------------------------------------- #
# Crash safety
# --------------------------------------------------------------------- #


@pytest.fixture
def saved_store(tmp_path):
    """A copy of the frozen schema-3 golden store, plus the golden itself
    loaded as the reference.

    This class exercises the npz reader's corruption handling (the mmap
    layout's is in test_mmap.py).  In the copy, ``merging`` is
    ``entry-0000.npz`` and ``wavelet`` is ``entry-0001.npz``; ``exact``
    (``entry-0003.npz``) is a second histogram-kind payload.
    """
    path = tmp_path / "store"
    shutil.copytree(FIXTURES / "golden_store", path)
    return load_store(FIXTURES / "golden_store"), path


def restamp_store_uid(path):
    """Give an npz store's manifest and payloads a fresh ``store_uid``:
    on disk, exactly what a later save of the same entries leaves."""
    uid = "0" * 32
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["store_uid"] = uid
    (path / "manifest.json").write_text(json.dumps(manifest))
    for record in manifest["entries"]:
        payload = path / record["payload"]
        with np.load(payload) as npz:
            arrays = {key: npz[key] for key in npz.files}
        skeleton = json.loads(str(arrays["__skeleton__"][()]))
        skeleton["store_uid"] = uid
        arrays["__skeleton__"] = np.asarray(json.dumps(skeleton))
        np.savez_compressed(payload, **arrays)


class TestCorruption:
    def test_truncated_manifest(self, saved_store):
        _, path = saved_store
        manifest = path / "manifest.json"
        manifest.write_text(manifest.read_text()[:40])
        with pytest.raises(StoreCorruptionError, match="unreadable store manifest"):
            load_store(path)

    def test_missing_payload(self, saved_store):
        _, path = saved_store
        (path / "entry-0001.npz").unlink()
        with pytest.raises(StoreCorruptionError, match="missing entry payload"):
            load_store(path)  # even the lazy load fails up front

    def test_garbage_payload(self, saved_store):
        _, path = saved_store
        (path / "entry-0000.npz").write_bytes(b"definitely not a zip")
        with pytest.raises(StoreCorruptionError, match="truncated or not an npz"):
            load_store(path)

    def test_wrong_format_manifest(self, saved_store):
        _, path = saved_store
        (path / "manifest.json").write_text(json.dumps({"format": "parquet"}))
        with pytest.raises(StoreCorruptionError, match="manifest"):
            load_store(path)

    def test_future_store_schema(self, saved_store):
        _, path = saved_store
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["schema"] = STORE_SCHEMA_VERSION + 1
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreCorruptionError, match="newer than"):
            load_store(path)

    def test_legacy_schema_2_store_still_loads(self, saved_store):
        """A pre-windowed manifest (schema 2, no windowed fields) must load."""
        store, path = saved_store
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["entries"] = [
            r for r in manifest["entries"] if not r.get("windowed")
        ]
        assert all("windowed" not in r for r in manifest["entries"])
        manifest["schema"] = 2
        (path / "manifest.json").write_text(json.dumps(manifest))
        loaded = load_store(path)
        kept = {r["name"] for r in manifest["entries"]}
        assert summary_metadata(loaded) == [
            row for row in summary_metadata(store) if row["name"] in kept
        ]

    def test_mismatched_payload_content(self, saved_store):
        # Swap the two entries' payload files: manifest and payload disagree.
        _, path = saved_store
        a, b = path / "entry-0000.npz", path / "entry-0001.npz"
        tmp = path / "swap.npz"
        a.rename(tmp), b.rename(a), tmp.rename(b)
        loaded = load_store(path)  # both files are valid npz: lazy load passes
        with pytest.raises(StoreCorruptionError):
            QueryEngine(loaded).range_sum("merging", 0, 10)

    def test_corrupt_entry_raises_again_not_half_hydrated(self, saved_store):
        _, path = saved_store
        with np.load(path / "entry-0000.npz") as npz:
            arrays = {key: npz[key] for key in npz.files}
        arrays["__skeleton__"] = np.asarray(json.dumps({"synopsis": {"kind": "martian"}}))
        np.savez_compressed(path / "entry-0000.npz", **arrays)
        loaded = load_store(path)
        engine = QueryEngine(loaded)
        for _ in range(2):  # same clear error every time, never half-hydrated
            with pytest.raises(StoreCorruptionError, match="entry payload"):
                engine.range_sum("merging", 0, 10)
        assert not loaded["merging"].is_hydrated

    def test_missing_array_in_payload(self, saved_store):
        # Zip-valid npz whose skeleton references an array that is gone:
        # must be corruption, not a bare KeyError (regression).
        _, path = saved_store
        with np.load(path / "entry-0000.npz") as npz:
            arrays = {key: npz[key] for key in npz.files}
        arrays.pop("payload.synopsis.rights")
        np.savez_compressed(path / "entry-0000.npz", **arrays)
        with pytest.raises(StoreCorruptionError, match="unreadable entry payload"):
            load_store(path, lazy=False)

    def test_serve_loop_survives_corrupt_entry(self, saved_store):
        # A hydration failure mid-session prints an error line and keeps
        # serving the healthy entries (regression: loop used to die).
        import io

        from repro.serve.cli import serve_main

        _, path = saved_store
        with np.load(path / "entry-0000.npz") as npz:
            arrays = {key: npz[key] for key in npz.files}
        arrays["__skeleton__"] = np.asarray(json.dumps({"synopsis": {"kind": "bad"}}))
        np.savez_compressed(path / "entry-0000.npz", **arrays)
        out = io.StringIO()
        commands = io.StringIO("range merging 0 10\nrange wavelet 0 10\nquit\n")
        assert serve_main(
            ["--store-dir", str(path)], stdin=commands, stdout=out
        ) == 0
        text = out.getvalue()
        assert "error:" in text and "entry payload" in text
        assert len(text.splitlines()) >= 3  # banner, error, then a real answer

    def test_corrupt_manifest_fields(self, saved_store):
        # Parseable JSON with rotted values must still be corruption, not a
        # raw ValueError/AttributeError (regression).
        _, path = saved_store
        good = json.loads((path / "manifest.json").read_text())

        bad = json.loads(json.dumps(good))
        bad["entries"][0]["built_at_samples"] = "??"
        (path / "manifest.json").write_text(json.dumps(bad))
        with pytest.raises(StoreCorruptionError, match="invalid manifest entry"):
            load_store(path)

        bad = json.loads(json.dumps(good))
        bad["last_versions"] = {"merging": "newest"}
        (path / "manifest.json").write_text(json.dumps(bad))
        with pytest.raises(StoreCorruptionError, match="invalid last_versions"):
            load_store(path)

    def test_payload_path_confined_to_store(self, saved_store, tmp_path):
        # A tampered payload reference must not escape the store directory.
        _, path = saved_store
        outside = tmp_path / "outside.npz"
        shutil.copy(path / "entry-0000.npz", outside)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["entries"][0]["payload"] = "../outside.npz"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreCorruptionError, match="invalid entry payload name"):
            load_store(path)

    def test_unhydrated_result_to_dict_raises_clearly(self, saved_store):
        _, path = saved_store
        loaded = load_store(path)
        with pytest.raises(ValueError, match="unhydrated"):
            loaded["merging"].result.to_dict()
        assert (
            loaded["merging"].result.to_dict(include_synopsis=False)["family"]
            == "merging"
        )

    def test_bitflipped_payload_is_corruption(self, saved_store):
        # A bit-flip inside the deflate stream keeps zipfile.is_zipfile
        # happy but must still surface as StoreCorruptionError (regression:
        # zlib.error used to escape raw).
        _, path = saved_store
        payload = path / "entry-0000.npz"
        raw = bytearray(payload.read_bytes())
        mid = len(raw) // 2
        for offset in range(mid, mid + 8):
            raw[offset] ^= 0xFF
        payload.write_bytes(bytes(raw))
        with pytest.raises(StoreCorruptionError):
            load_store(path, lazy=False)

    def test_load_respects_subclass(self, saved_store):
        _, path = saved_store

        class MyStore(SynopsisStore):
            pass

        assert type(MyStore.load(path)) is MyStore
        assert type(SynopsisStore.load(path)) is SynopsisStore

    def test_swapped_same_family_payloads_detected(self, saved_store):
        # Two same-kind same-n entries whose payload files are swapped on
        # disk must fail hydration, not serve crossed data (regression).
        _, path = saved_store
        a, b = path / "entry-0000.npz", path / "entry-0003.npz"
        tmp = path / "swap.npz"
        a.rename(tmp), b.rename(a), tmp.rename(b)
        loaded = load_store(path)
        with pytest.raises(StoreCorruptionError, match="swapped"):
            QueryEngine(loaded).range_sum("merging", 0, 10)

    def test_inspect_rotted_record_errors_cleanly(self, saved_store, capsys):
        _, path = saved_store
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["entries"][0] = "rotted"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SystemExit, match="invalid manifest entry"):
            main(["inspect", str(path)])

    def test_replaced_directory_detected_at_hydration(self, saved_store):
        # A lazy reader must not silently serve payloads from a *newer*
        # save of the same directory under the old metadata (regression).
        _, path = saved_store
        loaded = SynopsisStore.load(path)  # lazy: nothing hydrated yet
        restamp_store_uid(path)  # same entries, different generation
        engine = QueryEngine(loaded)
        with pytest.raises(StoreCorruptionError, match="different\n?.*save"):
            engine.range_sum("merging", 0, 10)
        # A fresh load of the replaced directory works, of course.
        assert QueryEngine(SynopsisStore.load(path)).range_sum("merging", 0, 10)

    def test_missing_store(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no synopsis store"):
            load_store(tmp_path / "nowhere")

    def test_failed_save_leaves_previous_store_intact(
        self, saved_store, monkeypatch
    ):
        store, path = saved_store
        from repro.serve import mmap_store

        calls = {"count": 0}
        real = mmap_store.SegmentWriter.add

        def exploding_add(self, payload):
            if calls["count"] >= 1:  # first payload lands, then the disk "fills"
                raise OSError("disk full (simulated)")
            calls["count"] += 1
            return real(self, payload)

        monkeypatch.setattr(mmap_store.SegmentWriter, "add", exploding_add)
        replacement = SynopsisStore()
        replacement.register("other", small_signal(60, seed=1), family="merging", k=2)
        replacement.register("more", small_signal(60, seed=2), family="merging", k=2)
        with pytest.raises(OSError, match="disk full"):
            replacement.save(path)
        monkeypatch.undo()
        again = load_store(path)  # the old store is untouched
        assert set(again.names()) == set(store.names())
        assert summary_metadata(again) == summary_metadata(store)
        leftovers = [p.name for p in path.parent.iterdir() if "tmp" in p.name]
        assert leftovers == []  # no temp directories left behind


# --------------------------------------------------------------------- #
# CLI: save / load / inspect / serve --store-dir
# --------------------------------------------------------------------- #


class TestPersistenceCLI:
    def test_save_load_inspect(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(
            ["save", "--n", "256", "--k", "4", "--families", "merging,wavelet",
             "--store-dir", store_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "saved 2 entries" in out

        assert main(["inspect", store_dir]) == 0
        out = capsys.readouterr().out
        assert "repro-synopsis-store schema=6 entries=2 segments=1" in out
        assert "payload=segment-0000.bin" in out

        assert main(["load", store_dir]) == 0
        out = capsys.readouterr().out
        assert "2 prefix tables warm" in out

    def test_serve_from_store_dir(self, tmp_path):
        import io

        from repro.serve.cli import serve_main

        store_dir = str(tmp_path / "store")
        assert main(
            ["save", "--n", "256", "--k", "4", "--families", "merging",
             "--store-dir", store_dir]
        ) == 0
        copy_dir = str(tmp_path / "copy")
        commands = io.StringIO(
            f"summary\nrange merging 0 100\nquantile merging 0.5\n"
            f"save {copy_dir}\nquit\n"
        )
        out = io.StringIO()
        assert serve_main(
            ["--store-dir", store_dir], stdin=commands, stdout=out
        ) == 0
        text = out.getvalue()
        assert "serving 1 synopses of store" in text
        assert "family=merging" in text
        assert f"saved 1 entries to {copy_dir}" in text
        assert set(SynopsisStore.load(copy_dir).names()) == {"merging"}

    def test_inspect_missing_store_errors_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no synopsis store"):
            main(["inspect", str(tmp_path / "nope")])
        with pytest.raises(SystemExit, match="no synopsis store"):
            main(["load", str(tmp_path / "nope")])

    def test_serve_corrupt_store_errors_cleanly(self, tmp_path):
        from repro.serve.cli import serve_main

        store_dir = tmp_path / "store"
        assert main(
            ["save", "--n", "128", "--k", "2", "--families", "merging",
             "--store-dir", str(store_dir)]
        ) == 0
        (store_dir / "manifest.json").write_text("{ truncated")
        with pytest.raises(SystemExit, match="unreadable store manifest"):
            serve_main(["--store-dir", str(store_dir)])
