"""Disk persistence for :class:`~repro.serve.store.SynopsisStore` and
sharded stores (:class:`~repro.serve.router.ShardRouter`).

A persisted store is a directory in the **mmap layout** (schema 4 and
up): entries are grouped into segments of raw little-endian array data
plus a per-segment manifest, indexed by a small top-level manifest::

    store_dir/
      manifest.json       # format tag, schema 6, segment index
      segment-0000.json   # entry records + shared plan table for the segment
      segment-0000.bin    # raw little-endian arrays, memory-mappable
      segment-0001.json
      segment-0001.bin
      ...

Payload arrays are ``np.memmap``-ed straight off disk, so a cold entry
hydrates in O(1) — no decompression — and processes mapping the same
store share one OS page cache.  The segment index means
loading or inspecting a subset of a huge store touches only the
segments holding the requested names.

Stores saved before schema 4 use the legacy **npz layout** (schema <= 3),
one npz payload per entry::

    store_dir/
      manifest.json     # format tag, schema version, per-entry metadata
      entry-0000.npz    # one payload per entry: synopsis (+ learner) arrays
      entry-0001.npz
      ...

Nothing writes it any more; a frozen reader keeps such stores loadable.
Both layouts split the universal type-tagged ``to_dict`` payloads of
:mod:`repro.serve.builders` into the same JSON skeleton plus exact
float64/int64 arrays (see :mod:`repro.serve.mmap_store`), so reloaded
synopses answer queries bitwise-identically to the originals regardless
of layout.

A persisted *sharded* store is a parent directory whose manifest names
the shard map and one ordinary store directory per shard::

    sharded_dir/
      manifest.json     # sharded format tag, num_shards, shard map, dirs
      shard-0000/       # a regular store directory (manifest + payloads)
      shard-0001/
      ...

so a shard is just a persisted store: :func:`load_sharded` revives each
shard with the same lazy-hydration machinery as :func:`load_store`, and
the parent manifest's explicit name-to-shard assignments make placement a
persisted fact rather than a hash recomputation.

The manifest carries everything ``summary()`` / ``describe()`` report —
family, k, options, error, version, streaming counters, and the
:class:`~repro.serve.planner.BuildPlan` decision record of auto-planned
entries — so a store loads *lazily*: :func:`load_store` materializes
only the manifest(s), and each entry's payload hydrates on its first
query (or eagerly with ``lazy=False``).  A plan that entries share (a
``register_many`` cohort's) is written once per segment, in the segment
manifest's ``"plans"`` table (:class:`_PlanTable`).  Stores and sharded
parents may additionally carry a ``"cohorts"`` table naming registered
entry groups for group-by queries, written and validated by the owner's
:class:`~repro.serve.cohorts.CohortRegistry` (``to_manifest`` /
``load_manifest``), the one form for stores and sharded parents alike.
Every save stamps the current schema, whatever the store holds.

Writes are crash-safe: everything lands in a temporary sibling directory
first and the final directory is swapped in by rename, so a failed or
interrupted save leaves the previous store intact.  :func:`load_store`
validates the manifest and the presence/integrity of every payload up
front and raises :exc:`StoreCorruptionError` — never a half-hydrated store.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import uuid
import zipfile
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..sampling.streaming import StreamingHistogramLearner
from ..sampling.windowed import WindowedStreamLearner
from .builders import (
    BuildResult,
    synopsis_from_dict,
    synopsis_kind,
    synopsis_to_dict,
)
from .mmap_store import (
    SegmentFormatError,
    SegmentReader,
    SegmentWriter,
    read_segment_header,
    restore_payload as _restore_payload,
)
from .planner import BuildPlan, CandidateSpec
from .store import StoreEntry, SynopsisStore

__all__ = [
    "LEARNER_KINDS",
    "MANIFEST_NAME",
    "MMAP_SCHEMA_VERSION",
    "SHARDED_FORMAT",
    "SHARDED_SCHEMA_VERSION",
    "STORE_FORMAT",
    "STORE_SCHEMA_VERSION",
    "StoreCorruptionError",
    "detect_store_format",
    "entry_plan",
    "iter_manifest_entries",
    "learner_from_state",
    "load_sharded",
    "load_store",
    "read_manifest",
    "read_sharded_manifest",
    "save_sharded",
    "save_store",
]

MANIFEST_NAME = "manifest.json"
STORE_FORMAT = "repro-synopsis-store"
# Schema 2 (build planner): entry records may carry a "plan" field — the
# serialized BuildPlan decision record of an auto-planned entry.
# Schema 3 (windowed streaming): a streaming entry's payload may carry a
# ``windowed_stream_learner`` state (epoch ring + per-epoch Misra–Gries
# sketches) instead of the growing-stream learner's, and its manifest
# record then adds "windowed"/"window_total".
# Schema 4 (mmap layout): the top-level manifest holds a *segment index*
# instead of an entry list; entry records live in per-segment JSON
# manifests and reference raw little-endian arrays by offset into the
# segment's memory-mappable ``.bin`` file.  It is the only layout saves
# write; schema 1-3 (per-entry npz) stores load unchanged through the
# frozen npz reader, and loaders older than the bump refuse newer stores
# cleanly.
# Schema 5 (fleet cohorts): the top-level manifest may carry a
# ``"cohorts"`` table mapping cohort names to member-entry lists.  The
# layout is otherwise schema 4.
# Schema 6 (shared plans): each segment manifest carries a ``"plans"``
# table and an entry's ``"plan"`` refers to a row of it (see _PlanTable);
# schema 2-5 records carry the whole plan inline.  Every save stamps
# STORE_SCHEMA_VERSION (up to schema 5, saves without cohorts stamped 4).
STORE_SCHEMA_VERSION = 6
MMAP_SCHEMA_VERSION = 4
PLAN_TABLE_SCHEMA_VERSION = 6
SHARDED_FORMAT = "repro-synopsis-store-sharded"
# Sharded schema 2: the shard map carries a map version.  Schema-1 parent
# manifests still load with version 0, and loaders older than the bump
# refuse newer stores cleanly, exactly like the per-store schema history.
# Schema-2 maps saved while read replicas existed also hold a
# ``replicas`` key; loads ignore it (the primaries hold every payload)
# and saves no longer write it.
# Sharded schema 3: the parent manifest may carry a router-level
# ``"cohorts"`` table (members may span shards).  Schema 1-2 manifests
# load unchanged with no cohorts.  Every sharded save stamps schema 3
# (until store schema 6, saves without cohorts stamped 2).
SHARDED_SCHEMA_VERSION = 3

#: Entries per segment.  Small enough that selective loads of a
#: million-entry store touch a sliver of it, large enough that the
#: per-segment file-count overhead stays negligible.
SEGMENT_SIZE = 256

# Streaming-learner payload dispatch: the "kind" tag of a persisted
# learner state names its class, exactly like SYNOPSIS_CODECS for
# synopses.  New learner kinds register here.
LEARNER_KINDS = {
    StreamingHistogramLearner.kind: StreamingHistogramLearner,
    WindowedStreamLearner.kind: WindowedStreamLearner,
}


def learner_from_state(state: Any):
    """Revive any registered streaming learner from its ``state_dict``."""
    kind = state.get("kind") if isinstance(state, dict) else None
    cls = LEARNER_KINDS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown streaming learner kind {kind!r}; "
            f"registered: {', '.join(LEARNER_KINDS)}"
        )
    return cls.from_state(state)


class StoreCorruptionError(RuntimeError):
    """A persisted store directory is missing, truncated, or inconsistent."""


# --------------------------------------------------------------------- #
# npz payload files (legacy layout, schema <= 3; read only)
# --------------------------------------------------------------------- #


def _read_payload(path: Path) -> Dict[str, Any]:
    try:
        with np.load(path) as npz:
            skeleton = json.loads(str(npz["__skeleton__"][()]))
            arrays = {key: npz[key] for key in npz.files if key != "__skeleton__"}
        # Inside the try: a skeleton referencing an array missing from the
        # npz is corruption too, not a bare KeyError.
        return _restore_payload(skeleton, arrays)
    except (OSError, KeyError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise StoreCorruptionError(
            f"unreadable entry payload {path.name!r}: {exc}"
        ) from exc


# --------------------------------------------------------------------- #
# Shared plan tables (schema 6)
# --------------------------------------------------------------------- #


class _PlanTable:
    """One segment's ``"plans"`` table: each plan its entries share, once.

    A row is the :class:`BuildPlan` record of the first entry to use it.
    An entry record's ``"plan"`` is ``{"row", "n", "chosen"}``: the row's
    plan with the entry's own length and chosen candidate
    (:meth:`BuildPlan.with_chosen`).  Plans share a row when they differ
    at most there and share every other candidate object.  A row is
    parsed once, on first use, so its entries share it in memory again.
    """

    def __init__(self, rows: Any = None) -> None:
        self.rows: List[Any] = rows if isinstance(rows, list) else []
        self._row_of: Dict[Tuple[Any, ...], int] = {}
        self._parsed: Dict[int, BuildPlan] = {}

    def ref(self, plan: BuildPlan) -> Dict[str, Any]:
        """The entry record's ``"plan"`` for ``plan``, adding its row."""
        others: List[Any] = [id(c) for c in plan.candidates]
        others[plan.chosen_index] = None
        key = (plan.budget, plan.objective, plan.families, plan.k_grid, *others)
        row = self._row_of.get(key)
        if row is None:
            row = self._row_of[key] = len(self.rows)
            self.rows.append(plan.to_dict())
        return {"row": row, "n": plan.n, "chosen": plan.chosen.to_dict()}

    def plan(self, ref: Dict[str, Any]) -> BuildPlan:
        """The plan an entry record's ``"plan"`` refers to."""
        row = int(ref["row"])
        shared = self._parsed.get(row)
        if shared is None:
            if not 0 <= row < len(self.rows):
                raise ValueError(
                    f"plan row {row} outside the segment's "
                    f"{len(self.rows)}-row plan table"
                )
            shared = self._parsed[row] = BuildPlan.from_dict(self.rows[row])
        return shared.with_chosen(
            CandidateSpec.from_dict(ref["chosen"]), int(ref["n"])
        )


def _decode_plan(payload: Any, table: Optional[_PlanTable]) -> Optional[BuildPlan]:
    """An entry record's plan: a row reference on schema 6, inline before."""
    if payload is None:
        return None
    return BuildPlan.from_dict(payload) if table is None else table.plan(payload)


def entry_plan(record: Dict[str, Any]) -> Optional[BuildPlan]:
    """The plan of an entry record from :func:`iter_manifest_entries`
    (None when not auto-planned); a rotted record raises ``KeyError``,
    ``TypeError`` or ``ValueError``."""
    return _decode_plan(record.get("plan"), record.get("plan_table"))


# --------------------------------------------------------------------- #
# Save
# --------------------------------------------------------------------- #


def _entry_payload(entry: StoreEntry, store_uid: str) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "store_uid": store_uid,
        "name": entry.name,  # guards against payload files swapped on disk
        "synopsis": synopsis_to_dict(entry.synopsis),
    }
    if entry.learner is not None:
        payload["learner"] = entry.learner.state_dict()
    return payload


def _manifest_entry(
    entry: StoreEntry, payload: Any, plans: _PlanTable
) -> Dict[str, Any]:
    record = {
        "name": entry.name,
        "version": entry.version,
        "built_at_samples": entry.built_at_samples,
        "streaming": entry.is_streaming,
        "payload": payload,
        "synopsis_kind": synopsis_kind(entry.synopsis),
        "result": entry.result.to_dict(include_synopsis=False),
    }
    if entry.learner is not None:
        record["samples_seen"] = entry.learner.samples_seen
        if isinstance(entry.learner, WindowedStreamLearner):
            # Mirrored into frozen_meta on load so a cold summary() shows
            # the windowed counters without reading the payload.
            record["windowed"] = True
            record["window_total"] = entry.learner.window_total
    if entry.plan is not None:
        # The planner's decision record is manifest metadata (schema 2):
        # available without reading any payload, so a reloaded store can
        # explain and re-derive its choices without rebuilding candidates.
        record["plan"] = plans.ref(entry.plan)
    return record


def _looks_like_store(path: Path) -> bool:
    return (path / MANIFEST_NAME).is_file()


def _check_replace_target(path: Path) -> None:
    """Refuse to replace anything that is not a synopsis store directory."""
    if path.exists():
        if not path.is_dir():
            raise ValueError(f"refusing to replace non-directory {path}")
        if not _looks_like_store(path) and any(path.iterdir()):
            raise ValueError(
                f"refusing to replace {path}: existing directory is not a "
                f"synopsis store"
            )


def _write_store_contents(store: SynopsisStore, target: Path) -> None:
    """Write one store's segments + manifest into ``target`` (no atomicity).

    Callers own crash safety: ``target`` must be inside a temporary
    directory that is atomically published afterwards.
    """
    store_uid = uuid.uuid4().hex
    names = store.names()
    segments = []
    for seg_index, start in enumerate(range(0, len(names), SEGMENT_SIZE)):
        chunk = names[start : start + SEGMENT_SIZE]
        manifest_name = f"segment-{seg_index:04d}.json"
        data_name = f"segment-{seg_index:04d}.bin"
        records = []
        plans = _PlanTable()
        with SegmentWriter(target / data_name, store_uid) as writer:
            for name in chunk:
                entry = store[name]
                entry.hydrate()
                spec = writer.add(_entry_payload(entry, store_uid))
                records.append(_manifest_entry(entry, spec, plans))
            data_bytes = writer.bytes_written
        segment_manifest = {
            "format": STORE_FORMAT + "-segment",
            "store_uid": store_uid,
            "plans": plans.rows,
            "entries": records,
        }
        with open(target / manifest_name, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(segment_manifest))
        segments.append(
            {
                "manifest": manifest_name,
                "data": data_name,
                "count": len(chunk),
                "bytes": data_bytes,
                "names": chunk,
            }
        )
    cohorts = store._cohorts.to_manifest(set(names))
    manifest = {
        "format": STORE_FORMAT,
        "schema": STORE_SCHEMA_VERSION,
        "layout": "mmap",
        "store_uid": store_uid,
        "segment_size": SEGMENT_SIZE,
        "segments": segments,
        "last_versions": dict(store._last_versions),
    }
    if cohorts:
        manifest["cohorts"] = cohorts
    with open(target / MANIFEST_NAME, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest))


def _atomic_publish(tmp: Path, path: Path, token: str) -> None:
    """Swap the fully-written ``tmp`` directory into place at ``path``.

    Any error during the swap rolls the previous directory back, so a
    failure leaves the previous store intact — except for a hard process
    kill inside the two-rename window itself (microseconds; the previous
    store then survives in a ``.<name>.old-*`` sibling).
    """
    if path.exists():
        old = path.parent / f".{path.name}.old-{token}"
        os.rename(path, old)
        try:
            os.rename(tmp, path)
        except BaseException:
            os.rename(old, path)  # roll the previous store back in
            raise
        shutil.rmtree(old)
    else:
        os.rename(tmp, path)


def save_store(store: SynopsisStore, path: Union[str, Path]) -> None:
    """Persist ``store`` to directory ``path``, atomically replacing it.

    Writes the segmented layout (schema :data:`STORE_SCHEMA_VERSION`),
    whose payloads memory-map, in segments of :data:`SEGMENT_SIZE`
    entries.

    All payloads and the manifest are written to a temporary sibling
    directory first; only after every byte is on disk is the target swapped
    in by rename (see :func:`_atomic_publish`).  Refuses to replace an
    existing directory that is not a synopsis store (and not empty), so a
    typo cannot clobber other data.

    Each save stamps a fresh ``store_uid`` into the manifest AND every
    payload: a lazy reader whose directory is replaced by a later save
    fails hydration loudly instead of silently serving the new payloads
    under the old metadata.

    Lazily-loaded entries are hydrated as they are serialized, so saving a
    loaded-but-unqueried store is a faithful copy.
    """
    path = Path(path)
    _check_replace_target(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    token = uuid.uuid4().hex[:8]
    tmp = path.parent / f".{path.name}.tmp-{token}"
    tmp.mkdir()
    try:
        _write_store_contents(store, tmp)
        _atomic_publish(tmp, path, token)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def save_sharded(router, path: Union[str, Path]) -> None:
    """Persist a :class:`~repro.serve.router.ShardRouter` atomically.

    Writes one ordinary store directory per shard plus a parent manifest
    carrying the shard count and the explicit name-to-shard map, all into
    a temporary sibling swapped in by rename — the whole sharded store
    appears (or is replaced) as one atomic unit, with the same
    crash-safety contract as :func:`save_store`.

    Every shard's write lock is held (in shard order) for the duration of
    the save, so the saved shards and the serialized shard map form one
    point-in-time snapshot: a concurrent ``register`` cannot slip an
    entry into the map after its shard directory was already written.
    Queries are never blocked — only writers wait.
    """
    path = Path(path)
    _check_replace_target(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    token = uuid.uuid4().hex[:8]
    tmp = path.parent / f".{path.name}.tmp-{token}"
    tmp.mkdir()
    try:
        with contextlib.ExitStack() as stack:
            # Writers only ever hold one shard lock at a time, so taking
            # them all in index order cannot deadlock against them.
            for shard in router.shards:
                stack.enter_context(shard.write_lock)
            shard_dirs = []
            for shard in router.shards:
                shard_dir = f"shard-{shard.index:04d}"
                (tmp / shard_dir).mkdir()
                _write_store_contents(shard.store, tmp / shard_dir)
                shard_dirs.append(shard_dir)
            cohorts = router._cohorts.to_manifest(router)
            manifest = {
                "format": SHARDED_FORMAT,
                "schema": SHARDED_SCHEMA_VERSION,
                "num_shards": router.num_shards,
                "shard_dirs": shard_dirs,
                "shard_map": router.shard_map.to_dict(),
            }
            if cohorts:
                manifest["cohorts"] = cohorts
        with open(tmp / MANIFEST_NAME, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(manifest))
        _atomic_publish(tmp, path, token)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# --------------------------------------------------------------------- #
# Load
# --------------------------------------------------------------------- #


def _read_raw_manifest(path: Path) -> Dict[str, Any]:
    """Parse a directory's ``manifest.json`` with corruption wrapping."""
    manifest_path = path / MANIFEST_NAME
    if not path.is_dir() or not manifest_path.is_file():
        raise FileNotFoundError(f"no synopsis store at {path}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreCorruptionError(
            f"unreadable store manifest {manifest_path}: {exc}"
        ) from exc
    if not isinstance(manifest, dict):
        raise StoreCorruptionError(f"{manifest_path} is not a manifest object")
    return manifest


def detect_store_format(path: Union[str, Path]) -> str:
    """``"store"`` or ``"sharded"``, from the directory's manifest tag.

    Lets the CLI route ``load`` / ``inspect`` / ``serve --store-dir``
    transparently without the operator naming the layout.
    """
    manifest = _read_raw_manifest(Path(path))
    fmt = manifest.get("format")
    if fmt == STORE_FORMAT:
        return "store"
    if fmt == SHARDED_FORMAT:
        return "sharded"
    raise StoreCorruptionError(
        f"{Path(path) / MANIFEST_NAME} has unknown store format {fmt!r}"
    )


def _confined_name(value: Any) -> bool:
    """True when ``value`` names a file inside the store directory: no
    separators, no '..', no absolute paths."""
    return isinstance(value, str) and bool(value) and Path(value).name == value


def read_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a store directory's manifest (no payload reads).

    For schema <= 3 the manifest carries the entry records directly
    (``manifest["entries"]``); from schema 4 it carries the segment index
    (``manifest["segments"]``) and entry records live in per-segment
    manifests — use :func:`iter_manifest_entries` to read them.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    manifest = _read_raw_manifest(path)
    if manifest.get("format") == SHARDED_FORMAT:
        raise StoreCorruptionError(
            f"{path} is a sharded store; load it with load_sharded / "
            f"ShardRouter.load"
        )
    if manifest.get("format") != STORE_FORMAT:
        raise StoreCorruptionError(
            f"{manifest_path} is not a {STORE_FORMAT!r} manifest"
        )
    schema = manifest.get("schema")
    if not isinstance(schema, int) or schema < 1:
        raise StoreCorruptionError(f"{manifest_path} has invalid schema {schema!r}")
    if schema > STORE_SCHEMA_VERSION:
        raise StoreCorruptionError(
            f"store schema {schema} is newer than supported schema "
            f"{STORE_SCHEMA_VERSION}; upgrade the library to load it"
        )
    if schema >= MMAP_SCHEMA_VERSION:
        if not isinstance(manifest.get("segments"), list):
            raise StoreCorruptionError(f"{manifest_path} has no segment index")
        for segment in manifest["segments"]:
            if (
                not isinstance(segment, dict)
                or not _confined_name(segment.get("manifest"))
                or not _confined_name(segment.get("data"))
            ):
                raise StoreCorruptionError(
                    f"invalid segment index entry in {manifest_path}"
                )
    elif not isinstance(manifest.get("entries"), list):
        raise StoreCorruptionError(f"{manifest_path} has no entry list")
    return manifest


def _read_segment_manifest(
    path: Path, segment_name: str, store_uid: Optional[str]
) -> Dict[str, Any]:
    """Parse one segment's JSON manifest with corruption wrapping."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreCorruptionError(
            f"unreadable segment manifest {segment_name!r}: {exc}"
        ) from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise StoreCorruptionError(
            f"segment manifest {segment_name!r} has no entry list"
        )
    if store_uid is not None and doc.get("store_uid") != store_uid:
        raise StoreCorruptionError(
            f"segment manifest {segment_name!r} belongs to a different "
            f"save of this store"
        )
    return doc


def iter_manifest_entries(
    path: Union[str, Path],
    manifest: Optional[Dict[str, Any]] = None,
    names: Optional[Sequence[str]] = None,
) -> List[Dict[str, Any]]:
    """Entry records of a store directory, in manifest order.

    For schema <= 3 this is just ``manifest["entries"]``; from schema 4
    it reads the per-segment manifests — **only** the segments whose
    index row names one of ``names`` when a filter is given, so
    inspecting one entry of a million-entry store touches one segment.
    Records from the mmap layout carry an extra ``"segment"`` key naming
    their data file (payload specs alone do not identify it), and from
    schema 6 a ``"plan_table"`` key holding their segment's shared plan
    table; decode a record's plan with :func:`entry_plan`.
    """
    path = Path(path)
    if manifest is None:
        manifest = read_manifest(path)
    wanted = None if names is None else {str(name) for name in names}
    if manifest.get("schema", 0) < MMAP_SCHEMA_VERSION:
        records = list(manifest["entries"])
        if wanted is not None:
            records = [
                record
                for record in records
                if isinstance(record, dict) and record.get("name") in wanted
            ]
        return records
    store_uid = manifest.get("store_uid")
    records = []
    for segment in manifest["segments"]:
        segment_names = segment.get("names")
        if wanted is not None and isinstance(segment_names, list):
            if not any(name in wanted for name in segment_names):
                continue
        doc = _read_segment_manifest(
            path / segment["manifest"], segment["manifest"], store_uid
        )
        plans = _segment_plan_table(manifest, doc)
        for record in doc["entries"]:
            if wanted is not None and (
                not isinstance(record, dict) or record.get("name") not in wanted
            ):
                continue
            if isinstance(record, dict):
                record.setdefault("segment", segment["data"])
                if plans is not None:
                    record["plan_table"] = plans
            records.append(record)
    return records


def _segment_plan_table(
    manifest: Dict[str, Any], doc: Dict[str, Any]
) -> Optional[_PlanTable]:
    """A segment's shared plan table, or None where plans are inline."""
    if manifest.get("schema", 0) < PLAN_TABLE_SCHEMA_VERSION:
        return None
    return _PlanTable(doc.get("plans"))


def _install_payload(
    entry: StoreEntry,
    payload: Any,
    label: str,
    expected_kind: Optional[str],
    expected_uid: Optional[str],
) -> None:
    """Validate a revived payload and install it on ``entry``.

    Shared by both layouts' hydrators: every cross-check (store uid,
    entry name, synopsis kind, domain size, streaming state) behaves the
    same whether the payload came from an npz file or a mapped segment.
    """
    if not isinstance(payload, dict) or "synopsis" not in payload:
        raise StoreCorruptionError(f"entry payload {label!r} has no synopsis")
    if expected_uid is not None and payload.get("store_uid") != expected_uid:
        raise StoreCorruptionError(
            f"entry payload {label!r} belongs to a different "
            f"save of this store (the directory was replaced after load); "
            f"reload the store"
        )
    if "name" in payload and payload["name"] != entry.name:
        raise StoreCorruptionError(
            f"entry payload {label!r} holds entry "
            f"{payload['name']!r}, not {entry.name!r}; payload files were "
            f"swapped or the manifest was rewritten"
        )
    if (
        expected_kind is not None
        and isinstance(payload["synopsis"], dict)
        and payload["synopsis"].get("kind") != expected_kind
    ):
        raise StoreCorruptionError(
            f"entry payload {label!r} holds a "
            f"{payload['synopsis'].get('kind')!r} synopsis but the manifest "
            f"expects {expected_kind!r}"
        )
    try:
        synopsis = synopsis_from_dict(payload["synopsis"])
        learner_state = payload.get("learner")
        learner = (
            learner_from_state(learner_state)
            if learner_state is not None
            else None
        )
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise StoreCorruptionError(
            f"invalid entry payload {label!r}: {exc}"
        ) from exc
    if getattr(synopsis, "n", entry.result.n) != entry.result.n:
        raise StoreCorruptionError(
            f"entry payload {label!r} disagrees with the manifest on n"
        )
    streaming = entry.frozen_meta is not None and entry.frozen_meta.get(
        "streaming", False
    )
    if streaming and learner is None:
        raise StoreCorruptionError(
            f"entry payload {label!r} is marked streaming but "
            f"has no learner state"
        )
    entry.result.synopsis = synopsis
    entry.learner = learner


def _hydrate_entry(
    entry: StoreEntry,
    payload_path: Path,
    expected_kind: Optional[str] = None,
    expected_uid: Optional[str] = None,
) -> None:
    """Fill ``entry.result.synopsis`` (and learner) from its npz payload."""
    payload = _read_payload(payload_path)
    _install_payload(entry, payload, payload_path.name, expected_kind, expected_uid)


def _hydrate_entry_mmap(
    entry: StoreEntry,
    reader: SegmentReader,
    spec: Dict[str, Any],
    expected_kind: Optional[str],
    expected_uid: Optional[str],
) -> None:
    """Fill ``entry.result.synopsis`` (and learner) from mapped arrays.

    Synopsis arrays stay zero-copy read-only views into the segment map
    (synopses are immutable once built); learner arrays are copied out,
    because streaming learners mutate their state in place.
    """
    label = f"{reader.path.name}:{entry.name}"
    try:
        arrays = {}
        for key, array_spec in spec["arrays"].items():
            view = reader.array(array_spec)
            if key.startswith("payload.learner"):
                view = np.array(view)
            arrays[key] = view
        payload = _restore_payload(spec["skeleton"], arrays)
    except (SegmentFormatError, OSError, KeyError, TypeError) as exc:
        raise StoreCorruptionError(
            f"unreadable entry payload {label!r}: {exc}"
        ) from exc
    _install_payload(entry, payload, label, expected_kind, expected_uid)


def _frozen_meta(record: Dict[str, Any], result: BuildResult) -> Dict[str, Any]:
    """The metadata snapshot ``describe()`` serves before hydration."""
    meta = result.describe()
    meta["name"] = record["name"]
    meta["version"] = int(record["version"])
    meta["streaming"] = bool(record.get("streaming", False))
    if meta["streaming"]:
        meta["samples_seen"] = int(record.get("samples_seen", 0))
        if record.get("windowed"):
            meta["windowed"] = True
            meta["window_total"] = int(record.get("window_total", 0))
    if record.get("plan") is not None:
        meta["planned"] = True
    return meta


def _parse_record(
    record: Any, path: Path, plans: Optional[_PlanTable] = None
) -> Tuple[Any, ...]:
    """Shared manifest-record parse: every rotted field is corruption."""
    try:
        name = record["name"]
        version = int(record["version"])
        result = BuildResult.from_dict(record["result"])
        built_at_samples = int(record.get("built_at_samples", 0))
        frozen_meta = _frozen_meta(record, result)
        plan = _decode_plan(record.get("plan"), plans)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise StoreCorruptionError(
            f"invalid manifest entry in {path}: {exc}"
        ) from exc
    return name, version, result, built_at_samples, frozen_meta, plan


def _parse_last_versions(manifest: Dict[str, Any], path: Path) -> Dict[str, int]:
    raw_versions = manifest.get("last_versions") or {}
    if not isinstance(raw_versions, dict):
        raise StoreCorruptionError(f"invalid last_versions table in {path}")
    try:
        return {str(k): int(v) for k, v in raw_versions.items()}
    except (TypeError, ValueError) as exc:
        raise StoreCorruptionError(
            f"invalid last_versions table in {path}: {exc}"
        ) from exc


def load_store(
    path: Union[str, Path],
    lazy: bool = True,
    store_cls: type = SynopsisStore,
    names: Optional[Sequence[str]] = None,
) -> SynopsisStore:
    """Load a store directory in either layout (see the module docstring).

    With ``lazy=True`` (the default) only the manifest(s) are
    materialized; each entry's payload hydrates on its first query, so a
    warm engine can start serving a large store immediately.  Every
    payload's existence and basic integrity is still verified up front
    (zip structure for npz payloads; segment headers and sizes for the
    mmap layout), so a truncated or partially-deleted store fails here
    with :exc:`StoreCorruptionError` rather than mid-query.

    ``names`` restricts the load to the given entries; on a segmented
    store only the segments holding those names are read or checked at
    all, so a selective load of a million-entry store is O(selection).
    ``store_cls`` lets :meth:`SynopsisStore.load` return subclasses.
    """
    path = Path(path)
    manifest = read_manifest(path)
    last_versions = _parse_last_versions(manifest, path)
    wanted = None if names is None else {str(name) for name in names}
    store = store_cls()
    if manifest.get("schema", 0) >= MMAP_SCHEMA_VERSION:
        _load_mmap_entries(store, path, manifest, lazy, wanted, last_versions)
    else:
        _load_npz_entries(store, path, manifest, lazy, wanted, last_versions)
    if wanted is not None:
        missing = wanted - set(store.names())
        if missing:
            raise KeyError(
                f"store {path} has no entries named "
                f"{', '.join(sorted(repr(m) for m in missing))}"
            )
    store._cohorts.load_manifest(manifest.get("cohorts"), store, path)
    # Names that were removed after their last registration keep their
    # version floor, so re-registering them never reissues a served version.
    for name, last in last_versions.items():
        if name not in store:
            store._last_versions[name] = last
    return store


def _load_npz_entries(
    store: SynopsisStore,
    path: Path,
    manifest: Dict[str, Any],
    lazy: bool,
    wanted: Optional[set],
    last_versions: Dict[str, int],
) -> None:
    seen = set()
    for record in manifest["entries"]:
        name, version, result, built_at_samples, frozen_meta, plan = (
            _parse_record(record, path)
        )
        if name in seen:
            raise StoreCorruptionError(f"duplicate entry name {name!r} in {path}")
        seen.add(name)
        if wanted is not None and name not in wanted:
            continue
        payload_name = record.get("payload")
        if not _confined_name(payload_name):
            raise StoreCorruptionError(
                f"invalid entry payload name {payload_name!r} in {path}"
            )
        payload_path = path / payload_name
        if not payload_path.is_file():
            raise StoreCorruptionError(
                f"store {path} is missing entry payload {payload_name!r}"
            )
        if not zipfile.is_zipfile(payload_path):
            raise StoreCorruptionError(
                f"entry payload {payload_name!r} in {path} is truncated or "
                f"not an npz file"
            )
        entry = StoreEntry(
            name=name,
            result=result,
            version=version,
            learner=None,
            built_at_samples=built_at_samples,
            plan=plan,
            hydrator=lambda e, p=payload_path, k=record.get(
                "synopsis_kind"
            ), u=manifest.get("store_uid"): _hydrate_entry(e, p, k, u),
            frozen_meta=frozen_meta,
        )
        if not lazy:
            entry.hydrate()
        store._adopt(entry, last_version=last_versions.get(name))


def _load_mmap_entries(
    store: SynopsisStore,
    path: Path,
    manifest: Dict[str, Any],
    lazy: bool,
    wanted: Optional[set],
    last_versions: Dict[str, int],
) -> None:
    store_uid = manifest.get("store_uid")
    seen = set()
    for segment in manifest["segments"]:
        segment_names = segment.get("names")
        if wanted is not None and isinstance(segment_names, list):
            if not any(name in wanted for name in segment_names):
                continue  # untouched segments are never read or checked
        data_name = segment["data"]
        data_path = path / data_name
        manifest_path = path / segment["manifest"]
        if not manifest_path.is_file():
            raise StoreCorruptionError(
                f"store {path} is missing segment manifest "
                f"{segment['manifest']!r}"
            )
        if not data_path.is_file():
            raise StoreCorruptionError(
                f"store {path} is missing segment data file {data_name!r}"
            )
        expected_bytes = segment.get("bytes")
        if isinstance(expected_bytes, int) and (
            data_path.stat().st_size < expected_bytes
        ):
            raise StoreCorruptionError(
                f"segment data file {data_name!r} in {path} is truncated "
                f"({data_path.stat().st_size} of {expected_bytes} bytes)"
            )
        try:
            read_segment_header(data_path, store_uid)
        except SegmentFormatError as exc:
            raise StoreCorruptionError(str(exc)) from exc
        doc = _read_segment_manifest(manifest_path, segment["manifest"], store_uid)
        reader = SegmentReader(data_path, store_uid=store_uid)
        plans = _segment_plan_table(manifest, doc)
        for record in doc["entries"]:
            name, version, result, built_at_samples, frozen_meta, plan = (
                _parse_record(record, path, plans)
            )
            if name in seen:
                raise StoreCorruptionError(
                    f"duplicate entry name {name!r} in {path}"
                )
            seen.add(name)
            if wanted is not None and name not in wanted:
                continue
            spec = record.get("payload")
            if (
                not isinstance(spec, dict)
                or "skeleton" not in spec
                or not isinstance(spec.get("arrays"), dict)
            ):
                raise StoreCorruptionError(
                    f"invalid entry payload spec for {name!r} in {path}"
                )
            entry = StoreEntry(
                name=name,
                result=result,
                version=version,
                learner=None,
                built_at_samples=built_at_samples,
                plan=plan,
                hydrator=lambda e, r=reader, s=spec, k=record.get(
                    "synopsis_kind"
                ), u=store_uid: _hydrate_entry_mmap(e, r, s, k, u),
                frozen_meta=frozen_meta,
            )
            if not lazy:
                entry.hydrate()
            store._adopt(entry, last_version=last_versions.get(name))


# --------------------------------------------------------------------- #
# Sharded stores
# --------------------------------------------------------------------- #


def read_sharded_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a sharded store's parent manifest (no shard reads)."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    manifest = _read_raw_manifest(path)
    if manifest.get("format") == STORE_FORMAT:
        raise StoreCorruptionError(
            f"{path} is an unsharded store; load it with load_store / "
            f"SynopsisStore.load"
        )
    if manifest.get("format") != SHARDED_FORMAT:
        raise StoreCorruptionError(
            f"{manifest_path} is not a {SHARDED_FORMAT!r} manifest"
        )
    schema = manifest.get("schema")
    if not isinstance(schema, int) or schema < 1:
        raise StoreCorruptionError(f"{manifest_path} has invalid schema {schema!r}")
    if schema > SHARDED_SCHEMA_VERSION:
        raise StoreCorruptionError(
            f"sharded store schema {schema} is newer than supported schema "
            f"{SHARDED_SCHEMA_VERSION}; upgrade the library to load it"
        )
    num_shards = manifest.get("num_shards")
    shard_dirs = manifest.get("shard_dirs")
    if not isinstance(num_shards, int) or num_shards < 1:
        raise StoreCorruptionError(
            f"{manifest_path} has invalid num_shards {num_shards!r}"
        )
    if not isinstance(shard_dirs, list) or len(shard_dirs) != num_shards:
        raise StoreCorruptionError(
            f"{manifest_path} names {len(shard_dirs) if isinstance(shard_dirs, list) else '??'} "
            f"shard dirs for {num_shards} shards"
        )
    for shard_dir in shard_dirs:
        if not isinstance(shard_dir, str) or Path(shard_dir).name != shard_dir:
            # Confine shard reads to the parent directory, like payloads.
            raise StoreCorruptionError(
                f"invalid shard directory name {shard_dir!r} in {manifest_path}"
            )
    if not isinstance(manifest.get("shard_map"), dict):
        raise StoreCorruptionError(f"{manifest_path} has no shard map")
    return manifest


def load_sharded(
    path: Union[str, Path],
    lazy: bool = True,
    router_cls: Optional[type] = None,
):
    """Load a sharded store persisted by :func:`save_sharded`.

    Each shard directory loads through :func:`load_store` with the same
    lazy-hydration semantics, and the parent manifest's explicit shard
    map drives placement — loading never re-derives a name's shard from
    the hash, so entries stay where they were saved even across library
    versions.  Raises :exc:`StoreCorruptionError` when a shard directory
    is missing, a shard holds an entry the map places elsewhere, or the
    map names a shard out of range.
    """
    from .router import ShardMap, ShardRouter

    path = Path(path)
    manifest = read_sharded_manifest(path)
    try:
        shard_map = ShardMap.from_dict(manifest["shard_map"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreCorruptionError(f"invalid shard map in {path}: {exc}") from exc
    if shard_map.num_shards != manifest["num_shards"]:
        raise StoreCorruptionError(
            f"shard map in {path} covers {shard_map.num_shards} shards, "
            f"manifest says {manifest['num_shards']}"
        )
    stores = []
    for shard_dir in manifest["shard_dirs"]:
        shard_path = path / shard_dir
        if not shard_path.is_dir():
            raise StoreCorruptionError(
                f"sharded store {path} is missing shard directory {shard_dir!r}"
            )
        stores.append(load_store(shard_path, lazy=lazy))
    cls = ShardRouter if router_cls is None else router_cls
    try:
        router = cls.from_stores(stores, shard_map=shard_map)
    except ValueError as exc:
        raise StoreCorruptionError(
            f"inconsistent sharded store {path}: {exc}"
        ) from exc
    router._cohorts.load_manifest(manifest.get("cohorts"), router, path)
    return router
