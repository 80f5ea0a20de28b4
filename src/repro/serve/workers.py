"""Multi-process shard serving: worker processes over mmap'd stores.

:class:`AsyncServingFrontend` fans a batch out on a *thread* pool, so
Python-side dispatch (routing, coalescing, result assembly) caps out at
one core no matter how many shards there are.  This module moves the
shard boundary across the process line: :class:`ProcessShardRouter`
spawns N worker processes, each owning the stores + engines + front end
for a contiguous slice of the persisted shards, and speaks the existing
:class:`~repro.serve.frontend.QueryRequest` /
:class:`~repro.serve.frontend.QueryResult` batch protocol over a
**pickle-free** message layer (JSON skeleton + raw little-endian array
blobs — see :func:`encode_message`).  Combined with the schema-4 mmap
store layout, the workers ``np.memmap`` the same segment files, so N
processes share one OS page cache instead of holding N decompressed
copies.

Design points:

* **The store on disk is the snapshot.**  Workers serve a persisted
  (immutable) store directory; every answer carries the per-entry
  version from the worker's engine snapshot, exactly as in-process
  serving does.  That immutability is also what makes crash recovery
  trivially correct: a worker that dies mid-batch is respawned from the
  same directory and its sub-batch re-dispatched verbatim — no answer is
  lost and none can be duplicated, because each request index is owned
  by exactly one worker and a redispatch replaces that worker's whole
  sub-batch.
* **Metrics merge, not stream.**  Each worker keeps an ordinary
  per-process :class:`~repro.obs.metrics.MetricsRegistry`; on demand it
  ships the registry as pure-JSON state
  (:meth:`~repro.obs.metrics.MetricsRegistry.to_state`) and the parent
  folds every worker's series — stamped with a ``worker=<i>`` label —
  into one fleet view via the existing ``merge_from()`` mergeability
  discipline.  States are cumulative, so the parent merges into a
  *fresh* registry per collection.
* **No pickle on the wire.**  Messages are a 4-byte length-prefixed
  JSON header plus concatenated raw little-endian array payloads; a
  corrupt or malicious peer can produce garbage values but never code
  execution.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import struct
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs.metrics import MetricsRegistry, get_default_registry
from .frontend import _GROUP_KINDS, QueryRequest, QueryResult
from .persistence import (
    StoreCorruptionError,
    _parse_cohorts,
    _parse_record,
    detect_store_format,
    iter_manifest_entries,
    read_manifest,
    read_sharded_manifest,
)
from .planner import BuildBudget, BuildPlan
from .store import duplicate_entry_message

__all__ = [
    "ProcessShardRouter",
    "WireFormatError",
    "WorkerCrashError",
    "decode_message",
    "encode_message",
]


class WireFormatError(ValueError):
    """A worker message is malformed or uses an unsupported payload type."""


class WorkerCrashError(RuntimeError):
    """A worker process died and exhausted its restart budget."""


# --------------------------------------------------------------------- #
# Pickle-free wire codec
# --------------------------------------------------------------------- #
#
# encode_message(obj) -> bytes:
#
#     <u32 header length> <JSON header> <array 0 bytes> <array 1 bytes> ...
#
# The header is the object with every ndarray replaced by a placeholder
# ``{"__nd__": i, "dtype": "<f8", "shape": [...]}`` (arrays are written
# little-endian and contiguous, in placeholder order), tuples tagged as
# ``{"__t__": [...]}`` so request args and (bucket, weight) pair lists
# survive the round trip with their exact Python shape.

_LENGTH_PREFIX = struct.Struct("<I")


def encode_message(obj: Any) -> bytes:
    """Serialize a message object (JSON scalars/containers + ndarrays)."""
    arrays: List[np.ndarray] = []

    def walk(value: Any) -> Any:
        if isinstance(value, np.ndarray):
            array = np.ascontiguousarray(value)
            if array.dtype.hasobject or array.dtype.itemsize == 0:
                raise WireFormatError(
                    f"cannot encode array of dtype {array.dtype}"
                )
            array = array.astype(array.dtype.newbyteorder("<"), copy=False)
            arrays.append(array)
            return {
                "__nd__": len(arrays) - 1,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
            }
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.bool_):
            return bool(value)
        if isinstance(value, tuple):
            return {"__t__": [walk(v) for v in value]}
        if isinstance(value, list):
            return [walk(v) for v in value]
        if isinstance(value, dict):
            out = {}
            for key, val in value.items():
                if not isinstance(key, str):
                    raise WireFormatError(
                        f"message keys must be strings, got {type(key).__name__}"
                    )
                out[key] = walk(val)
            return out
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        raise WireFormatError(
            f"cannot encode {type(value).__name__} on the worker wire"
        )

    header = json.dumps(walk(obj)).encode("utf-8")
    parts = [_LENGTH_PREFIX.pack(len(header)), header]
    parts.extend(array.tobytes() for array in arrays)
    return b"".join(parts)


def decode_message(data: bytes) -> Any:
    """Inverse of :func:`encode_message`.  Arrays come back as fresh
    (writable) ndarrays, so decoded results behave like in-process ones."""
    if len(data) < _LENGTH_PREFIX.size:
        raise WireFormatError("message shorter than its length prefix")
    (header_length,) = _LENGTH_PREFIX.unpack_from(data)
    body_start = _LENGTH_PREFIX.size + header_length
    if body_start > len(data):
        raise WireFormatError("message header extends past the message")
    try:
        header = json.loads(data[_LENGTH_PREFIX.size : body_start])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"malformed message header: {exc}") from exc
    blob = memoryview(data)[body_start:]
    cursor = {"offset": 0, "index": 0}

    def next_array(dtype: np.dtype, shape: Tuple[int, ...]) -> np.ndarray:
        count = 1
        for dim in shape:
            count *= dim
        nbytes = count * dtype.itemsize
        start = cursor["offset"]
        if start + nbytes > len(blob):
            raise WireFormatError("message truncated inside an array payload")
        cursor["offset"] = start + nbytes
        flat = np.frombuffer(blob[start : start + nbytes], dtype=dtype)
        return flat.reshape(shape).copy()

    def walk(value: Any) -> Any:
        if isinstance(value, dict):
            if "__nd__" in value:
                try:
                    index = int(value["__nd__"])
                    dtype = np.dtype(str(value["dtype"]))
                    shape = tuple(int(d) for d in value["shape"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise WireFormatError(
                        f"invalid array placeholder {value!r}"
                    ) from exc
                if dtype.hasobject or index != cursor["index"]:
                    raise WireFormatError(
                        f"invalid array placeholder {value!r}"
                    )
                cursor["index"] += 1
                return next_array(dtype, shape)
            if "__t__" in value and len(value) == 1:
                return tuple(walk(v) for v in value["__t__"])
            return {key: walk(val) for key, val in value.items()}
        if isinstance(value, list):
            return [walk(v) for v in value]
        return value

    return walk(header)


# --------------------------------------------------------------------- #
# Worker process
# --------------------------------------------------------------------- #


def _worker_main(
    conn: multiprocessing.connection.Connection,
    store_dir: str,
    cache_size: int,
) -> None:
    """Entry point of one worker process.

    Loads the persisted store (lazily — payloads mmap on first query),
    builds a local router + front end over it, acknowledges readiness,
    then answers commands until ``shutdown`` or EOF.  Sharded stores
    load through :func:`load_sharded`, so the worker's router carries
    the *persisted* shard map — sticky assignments included — and a
    ``reload`` after an external rebalance picks the new placement up
    from disk.
    """
    import os

    from .frontend import AsyncServingFrontend
    from .persistence import load_store
    from .router import ShardRouter

    def build():
        path = Path(store_dir)
        if detect_store_format(path) == "sharded":
            router = ShardRouter.load(path, cache_size=cache_size)
        else:
            store = load_store(path, lazy=True)
            router = ShardRouter.from_stores([store], cache_size=cache_size)
        frontend = AsyncServingFrontend(router)
        return router, frontend

    try:
        router, frontend = build()
    except BaseException as exc:  # report the load failure, then die
        try:
            conn.send_bytes(
                encode_message({"ok": False, "error": f"worker load failed: {exc}"})
            )
        finally:
            os._exit(1)
        return
    conn.send_bytes(encode_message({"ok": True, "ready": True}))
    while True:
        try:
            raw = conn.recv_bytes()
        except (EOFError, OSError):
            break  # parent went away
        try:
            message = decode_message(raw)
            cmd = message.get("cmd")
            if cmd == "query":
                requests = [
                    QueryRequest(
                        kind=str(row["kind"]),
                        name=str(row["name"]),
                        args=tuple(row.get("args", ())),
                    )
                    for row in message["requests"]
                ]
                results = frontend.serve(requests)
                reply = {
                    "ok": True,
                    "results": [
                        {
                            "index": r.index,
                            "name": r.name,
                            "kind": r.kind,
                            "value": r.value,
                            "version": r.version,
                            "error": r.error,
                        }
                        for r in results
                    ],
                }
            elif cmd == "metrics":
                merged = MetricsRegistry()
                merged.merge_from(frontend.registry)
                merged.merge_from(get_default_registry())
                reply = {"ok": True, "state": merged.to_state()}
            elif cmd == "register_many":
                from .planner import BuildBudget as _BuildBudget

                budget = _BuildBudget.from_dict(message["budget"])
                items = [
                    (str(row["name"]), row["data"])
                    for row in message["datasets"]
                ]
                entries = router.register_many(
                    items,
                    budget,
                    cohort=message.get("cohort"),
                    families=message.get("families"),
                    k_grid=message.get("k_grid"),
                )
                reply = {
                    "ok": True,
                    "registered": [
                        {
                            "name": entry.name,
                            "version": entry.version,
                            "meta": entry.describe(),
                        }
                        for entry in entries
                    ],
                }
            elif cmd == "warm":
                reply = {"ok": True, "resident": router.warm()}
            elif cmd == "reload":
                frontend.close()
                router, frontend = build()
                reply = {"ok": True}
            elif cmd == "ping":
                reply = {"ok": True, "pid": os.getpid()}
            elif cmd == "shutdown":
                conn.send_bytes(encode_message({"ok": True}))
                break
            else:
                reply = {"ok": False, "error": f"unknown worker command {cmd!r}"}
        except BaseException as exc:
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        try:
            conn.send_bytes(encode_message(reply))
        except (BrokenPipeError, OSError):
            break
    frontend.close()
    conn.close()


def _map_assignments(shard_map: Dict[str, Any]) -> Dict[str, int]:
    """A persisted shard map's ``{name: shard}`` assignments."""
    return {
        str(name): int(shard)
        for name, shard in shard_map.get("assignments", {}).items()
    }


class _Worker:
    """Parent-side handle on one worker process."""

    __slots__ = ("index", "process", "conn", "restarts")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.conn = None
        self.restarts = 0


class ProcessShardRouter:
    """Serve a persisted store from N worker processes.

    Mirrors the read-side surface of
    :class:`~repro.serve.router.ShardRouter` +
    :class:`~repro.serve.frontend.AsyncServingFrontend` — ``serve()``,
    ``names()``, ``summary()``, ``describe()``, ``plan_of()`` — but the
    stores and engines live in worker processes, so shard evaluation
    *and* its Python-side dispatch run on separate cores.  The parent
    process never reads a payload: entry metadata comes from the
    manifests alone, and queries travel the wire codec above.

    Parameters
    ----------
    store_dir:
        A persisted store directory — sharded or plain (a plain store is
        served by a single worker).
    workers:
        Worker process count; defaults to (and is clamped to) the shard
        count, each worker owning a contiguous slice of the shards.
    cache_size:
        Forwarded to each worker's engines.
    max_restarts:
        Per-worker crash budget: a worker that dies is respawned from
        the (immutable) store directory and its in-flight sub-batch
        re-dispatched; after this many restarts the next crash raises
        :class:`WorkerCrashError` instead.
    """

    def __init__(
        self,
        store_dir: Union[str, Path],
        workers: Optional[int] = None,
        cache_size: int = 32,
        max_restarts: int = 3,
    ) -> None:
        self.store_dir = Path(store_dir)
        self.cache_size = int(cache_size)
        self.max_restarts = int(max_restarts)
        self.registry = MetricsRegistry()
        self._c_batches = self.registry.counter(
            "process_router_batches_total", "batches dispatched to workers"
        )
        self._c_requests = self.registry.counter(
            "process_router_requests_total", "requests dispatched to workers"
        )
        self._c_restarts = self.registry.counter(
            "process_worker_restarts_total", "worker processes respawned"
        )
        self._load_parent_records()
        shard_count = len(self._shard_dirs)
        requested = shard_count if workers is None else int(workers)
        if requested < 1:
            raise ValueError(f"workers must be >= 1, got {requested}")
        self.num_workers = min(requested, shard_count)
        self._ctx = multiprocessing.get_context("spawn")
        self._compute_worker_of_shard()
        self._workers = [_Worker(w) for w in range(self.num_workers)]
        try:
            for worker in self._workers:
                self._spawn(worker)
        except BaseException:
            self.close()
            raise

    def _compute_worker_of_shard(self) -> None:
        # Contiguous shard slices: worker w owns shards
        # [w * S / W, (w+1) * S / W).
        shard_count = len(self._shard_dirs)
        self._worker_of_shard = [
            shard_index * self.num_workers // shard_count
            for shard_index in range(shard_count)
        ]

    # ------------------------------------------------------------------ #
    # Parent-side metadata (manifests only — no payload reads)
    # ------------------------------------------------------------------ #

    def _load_parent_records(self) -> None:
        kind = detect_store_format(self.store_dir)
        raw_cohorts: Dict[str, List[str]] = {}
        if kind == "sharded":
            manifest = read_sharded_manifest(self.store_dir)
            raw_cohorts = _parse_cohorts(manifest, self.store_dir)
            self._shard_dirs = [
                self.store_dir / d for d in manifest["shard_dirs"]
            ]
            self._shard_of_name = _map_assignments(manifest["shard_map"])
            self.num_shards = int(manifest["num_shards"])
            name_order = list(self._shard_of_name)
        else:
            raw_cohorts = _parse_cohorts(
                read_manifest(self.store_dir), self.store_dir
            )
            self._shard_dirs = [self.store_dir]
            self._shard_of_name = {}
            self.num_shards = 1
            name_order = []
        # A copy: maybe_reload() compares the persisted map against it,
        # and _shard_of_name also gains unmapped names below.
        self._loaded_assignments = dict(self._shard_of_name)
        self._records: Dict[str, Tuple[int, Dict[str, Any], Optional[BuildPlan]]] = {}
        for shard_index, shard_dir in enumerate(self._shard_dirs):
            for record in iter_manifest_entries(shard_dir):
                name, version, _result, _built, meta, plan = _parse_record(
                    record, shard_dir
                )
                self._records[str(name)] = (version, meta, plan)
                self._shard_of_name.setdefault(str(name), shard_index)
                if kind != "sharded":
                    name_order.append(str(name))
        self._names = [n for n in name_order if n in self._records]
        # Entries present on disk but absent from the shard map (or vice
        # versa) surface here rather than as misrouted queries later.
        for name in self._records:
            if name not in self._names:
                self._names.append(name)
        # Cohorts whose members all loaded mirror the workers' routers.
        self._cohorts: Dict[str, Tuple[str, ...]] = {
            cohort: tuple(members)
            for cohort, members in raw_cohorts.items()
            if all(member in self._records for member in members)
        }

    def names(self) -> List[str]:
        return list(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def __len__(self) -> int:
        return len(self._records)

    def summary(self) -> List[Dict[str, Any]]:
        """Manifest metadata for every entry (no worker round trip)."""
        return [dict(self._records[name][1]) for name in self._names]

    def describe(self, name: str) -> Dict[str, Any]:
        """One entry's manifest metadata plus its (global) shard index."""
        if name not in self._records:
            raise KeyError(f"no synopsis registered under {name!r}")
        meta = dict(self._records[name][1])
        meta["shard"] = self._shard_index(name)
        return meta

    def plan_of(self, name: str) -> Optional[BuildPlan]:
        if name not in self._records:
            raise KeyError(f"no synopsis registered under {name!r}")
        return self._records[name][2]

    def cohorts(self) -> Dict[str, Tuple[str, ...]]:
        """Cohorts known to the parent (manifest + live registrations)."""
        return dict(self._cohorts)

    def resolve_members(self, spec: Any) -> List[str]:
        """Member names for a group query (mirrors the in-process
        router's: cohort name, comma list, or bare entry name)."""
        if isinstance(spec, str):
            members = self._cohorts.get(spec)
            if members is not None:
                return list(members)
            if "," in spec:
                return [part.strip() for part in spec.split(",") if part.strip()]
            return [spec]
        return [str(name) for name in spec]

    def describe_shards(self) -> List[Dict[str, Any]]:
        """Per-shard placement: global shard index, owning worker, names."""
        by_shard: Dict[int, List[str]] = {i: [] for i in range(self.num_shards)}
        for name in self._names:
            by_shard.setdefault(self._shard_index(name), []).append(name)
        return [
            {
                "shard": shard,
                "worker": self._worker_of_shard[shard],
                "entries": len(names),
                "names": names,
            }
            for shard, names in sorted(by_shard.items())
        ]

    def _shard_index(self, name: str) -> int:
        shard = self._shard_of_name.get(name)
        if shard is None:
            # Unknown names hash like ShardMap does, so the "no synopsis
            # registered" error comes back from a deterministic worker.
            from .router import stable_shard

            shard = (
                0 if self.num_shards == 1 else stable_shard(name, self.num_shards)
            )
        return shard

    def _route_shard(self, request: QueryRequest) -> int:
        """The shard owning ``request``'s entry.  Group-by kinds go to the
        first member's shard — every worker opens all shard directories,
        so that worker's local router can resolve the whole member set."""
        if request.kind in _GROUP_KINDS:
            members = self.resolve_members(request.name)
            return self._shard_index(members[0]) if members else 0
        return self._shard_index(request.name)

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #

    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # Every worker opens ALL shard directories: loading is lazy (only
        # manifests are parsed; payloads memory-map on first touch and the
        # mapped pages are shared across processes), and it lets a worker
        # resolve cross-shard partners (inner_product) locally.  The
        # parent's routing still sends each entry's queries to the one
        # worker owning its shard, so caches and hydration stay
        # partitioned in the steady state.
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                str(self.store_dir),
                self.cache_size,
            ),
            daemon=True,
            name=f"repro-shard-worker-{worker.index}",
        )
        process.start()
        child_conn.close()
        try:
            ready = decode_message(parent_conn.recv_bytes())
        except (EOFError, OSError) as exc:
            parent_conn.close()
            raise StoreCorruptionError(
                f"shard worker {worker.index} died during startup"
            ) from exc
        if not ready.get("ok"):
            parent_conn.close()
            process.join(timeout=5)
            raise StoreCorruptionError(
                f"shard worker {worker.index} failed to load: "
                f"{ready.get('error')}"
            )
        worker.process = process
        worker.conn = parent_conn

    def _restart(self, worker: _Worker) -> None:
        if worker.restarts >= self.max_restarts:
            raise WorkerCrashError(
                f"shard worker {worker.index} crashed {worker.restarts + 1} "
                f"times (max_restarts={self.max_restarts})"
            )
        worker.restarts += 1
        self._c_restarts.inc()
        # The labeled series makes *which* worker is crash-looping
        # visible in the exposition, not just that one is.
        self.registry.counter(
            "worker_restarts_total",
            "respawns of one worker process",
            worker=str(worker.index),
        ).inc()
        if worker.conn is not None:
            worker.conn.close()
        if worker.process is not None:
            if worker.process.is_alive():
                worker.process.terminate()
            worker.process.join(timeout=5)
        self._spawn(worker)

    def close(self) -> None:
        """Shut every worker down; idempotent."""
        for worker in self._workers:
            if worker.conn is not None:
                try:
                    worker.conn.send_bytes(encode_message({"cmd": "shutdown"}))
                    worker.conn.recv_bytes()
                except (BrokenPipeError, EOFError, OSError):
                    pass
                worker.conn.close()
                worker.conn = None
            if worker.process is not None:
                worker.process.join(timeout=5)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=5)
                worker.process = None

    def __enter__(self) -> "ProcessShardRouter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def restarts_total(self) -> int:
        return sum(worker.restarts for worker in self._workers)

    # ------------------------------------------------------------------ #
    # Round trips
    # ------------------------------------------------------------------ #

    def _send(self, worker: _Worker, message: bytes) -> None:
        try:
            worker.conn.send_bytes(message)
        except (BrokenPipeError, EOFError, OSError):
            self._restart(worker)
            worker.conn.send_bytes(message)

    def _recv(self, worker: _Worker, message: bytes) -> Dict[str, Any]:
        """Receive a reply; on a crash, respawn and re-dispatch once.

        Safe because the store directory is immutable: re-dispatching
        the identical sub-batch to the fresh worker yields the same
        answers the dead one owed, so no request index is lost or
        answered twice.
        """
        while True:
            try:
                reply = decode_message(worker.conn.recv_bytes())
            except (EOFError, OSError):
                self._restart(worker)
                worker.conn.send_bytes(message)
                continue
            if not reply.get("ok"):
                raise RuntimeError(
                    f"shard worker {worker.index} error: {reply.get('error')}"
                )
            return reply

    def ping(self) -> List[int]:
        """Liveness check; returns each worker's pid."""
        message = encode_message({"cmd": "ping"})
        for worker in self._workers:
            self._send(worker, message)
        return [
            int(self._recv(worker, message)["pid"]) for worker in self._workers
        ]

    def reload(self) -> None:
        """Re-open the store directory from disk, everywhere.

        The parent re-reads the manifests (placement, entry metadata)
        and every worker rebuilds its router, so an
        external rebalance — another process migrating entries and
        saving — takes effect without respawning anything.
        """
        self._load_parent_records()
        self._compute_worker_of_shard()
        message = encode_message({"cmd": "reload"})
        for worker in self._workers:
            self._send(worker, message)
        for worker in self._workers:
            self._recv(worker, message)

    def maybe_reload(self) -> bool:
        """Reload iff the persisted shard map changed; returns whether it
        did.  This is the versioned-reload hook a rebalance loop polls:
        cheap when nothing moved (one manifest read, no worker round
        trips), a full :meth:`reload` when the assignments differ from
        what the parent routed by."""
        try:
            if detect_store_format(self.store_dir) != "sharded":
                return False
            manifest = read_sharded_manifest(self.store_dir)
        except (StoreCorruptionError, OSError):
            return False  # mid-publish or gone; keep serving the old map
        if _map_assignments(manifest["shard_map"]) == self._loaded_assignments:
            return False
        self.reload()
        return True

    def warm(self) -> int:
        """Prefetch prefix tables in every worker; returns resident total."""
        message = encode_message({"cmd": "warm"})
        for worker in self._workers:
            self._send(worker, message)
        return sum(
            int(self._recv(worker, message)["resident"])
            for worker in self._workers
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def serve(self, requests: Sequence[QueryRequest]) -> List[QueryResult]:
        """Answer a multi-name batch; results come back in request order.

        Requests are grouped per worker (by each name's persisted shard),
        all sub-batches are written before any reply is awaited — workers
        evaluate concurrently on their own cores — and per-request errors
        come back in ``QueryResult.error`` exactly as with the in-process
        front end.
        """
        indexed = list(enumerate(requests))
        self._c_batches.inc()
        self._c_requests.inc(len(indexed))
        by_worker: Dict[int, List[Tuple[int, QueryRequest]]] = {}
        for index, request in indexed:
            w = self._worker_of_shard[self._route_shard(request)]
            by_worker.setdefault(w, []).append((index, request))
        messages: Dict[int, bytes] = {}
        for w, items in by_worker.items():
            messages[w] = encode_message(
                {
                    "cmd": "query",
                    "requests": [
                        {
                            "kind": request.kind,
                            "name": request.name,
                            "args": request.args,
                        }
                        for _, request in items
                    ],
                }
            )
        for w in by_worker:
            self._send(self._workers[w], messages[w])
        results: List[Optional[QueryResult]] = [None] * len(indexed)
        for w, items in by_worker.items():
            reply = self._recv(self._workers[w], messages[w])
            rows = reply.get("results", [])
            if len(rows) != len(items):
                raise RuntimeError(
                    f"shard worker {w} answered {len(rows)} of "
                    f"{len(items)} requests"
                )
            for row in rows:
                # row["index"] is the position within the worker's
                # sub-batch; map it back to the caller's request order.
                global_index = items[int(row["index"])][0]
                version = row["version"]
                # Group-by answers carry a {member: version} dict; scalar
                # kinds carry one int.
                if isinstance(version, dict):
                    version = {str(k): int(v) for k, v in version.items()}
                else:
                    version = int(version)
                results[global_index] = QueryResult(
                    index=global_index,
                    name=row["name"],
                    kind=row["kind"],
                    value=row["value"],
                    version=version,
                    error=row["error"],
                )
        return [r for r in results if r is not None]

    def _query_one(self, kind: str, name: str, *args: Any) -> Any:
        """One request, unwrapped: the single-query convenience surface
        (mirrors ``ShardRouter``'s, so the CLI REPL is oblivious to which
        router it drives).  Per-request errors re-raise as ValueError."""
        (result,) = self.serve([QueryRequest(kind, name, args)])
        if result.error is not None:
            raise ValueError(result.error)
        return result.value

    def range_sum(self, name: str, a, b):
        return self._query_one("range_sum", name, a, b)

    def range_mean(self, name: str, a, b):
        return self._query_one("range_mean", name, a, b)

    def point_mass(self, name: str, x):
        return self._query_one("point_mass", name, x)

    def cdf(self, name: str, x):
        return self._query_one("cdf", name, x)

    def quantile(self, name: str, q):
        return self._query_one("quantile", name, q)

    def top_k_buckets(self, name: str, m: int):
        return self._query_one("top_k", name, int(m))

    def heavy_hitters(self, name: str, phi: float):
        return self._query_one("heavy_hitters", name, float(phi))

    def inner_product(self, name_a: str, name_b: str) -> float:
        return self._query_one("inner_product", name_a, str(name_b))

    def _group_query(self, kind: str, names: Any, *args: Any):
        """One group-by round trip; returns ``(value, {member: version})``."""
        spec = (
            names
            if isinstance(names, str)
            else ",".join(str(name) for name in names)
        )
        (result,) = self.serve([QueryRequest(kind, spec, args)])
        if result.error is not None:
            raise ValueError(result.error)
        return result.value, result.version

    def group_range_sum(self, names: Any, a, b):
        return self._group_query("group_range_sum", names, a, b)

    def group_range_mean(self, names: Any, a, b):
        return self._group_query("group_range_mean", names, a, b)

    def group_top_k(self, names: Any, m: int):
        return self._group_query("group_top_k", names, int(m))

    # ------------------------------------------------------------------ #
    # Bulk registration (broadcast)
    # ------------------------------------------------------------------ #

    def register_many(
        self,
        named_datasets: Any,
        budget: BuildBudget,
        cohort: Optional[str] = None,
        families: Optional[Sequence[str]] = None,
        k_grid: Optional[Sequence[int]] = None,
    ) -> List[Dict[str, Any]]:
        """Bulk-register a cohort into every worker's in-memory router.

        The batch is broadcast: each worker's local router spans *all*
        shards (that is what makes name routing and whole-group dispatch
        correct), so each worker plans and installs the full cohort in
        its own memory.  That duplicates build work and resident plan
        metadata per worker — the bulk path is meant for fleet bring-up
        followed by a ``save`` + ``reload`` once the cohort should become
        part of the persisted store.  The parent mirrors the new entries
        into its records; returns ``[{"name", "version", ...}, ...]``.
        """
        if hasattr(named_datasets, "items"):
            items = [(str(n), d) for n, d in named_datasets.items()]
        else:
            items = [(str(n), d) for n, d in named_datasets]
        for name, _ in items:
            if name in self._records:
                raise ValueError(duplicate_entry_message(name))
        message = encode_message(
            {
                "cmd": "register_many",
                "datasets": [
                    {
                        "name": name,
                        "data": np.asarray(data, dtype=np.float64),
                    }
                    for name, data in items
                ],
                "budget": budget.to_dict(),
                "cohort": cohort,
                "families": None if families is None else list(families),
                "k_grid": None if k_grid is None else [int(k) for k in k_grid],
            }
        )
        for worker in self._workers:
            self._send(worker, message)
        rows: List[Dict[str, Any]] = []
        for worker in self._workers:
            rows = self._recv(worker, message)["registered"]
        from .router import stable_shard

        for row in rows:
            name = str(row["name"])
            self._records[name] = (int(row["version"]), dict(row["meta"]), None)
            self._shard_of_name.setdefault(
                name,
                0
                if self.num_shards == 1
                else stable_shard(name, self.num_shards),
            )
            if name not in self._names:
                self._names.append(name)
        if cohort is not None:
            self._cohorts[str(cohort)] = tuple(name for name, _ in items)
        return rows

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #

    def collect_metrics(self) -> MetricsRegistry:
        """One merged fleet registry: parent counters + every worker's
        series stamped with a ``worker=<i>`` label.

        Built fresh on every call (worker states are cumulative, so
        merging into a long-lived registry would double-count).  A worker
        that crashed and restarted reports only its post-restart counts.
        """
        merged = MetricsRegistry()
        merged.merge_from(self.registry)
        message = encode_message({"cmd": "metrics"})
        for worker in self._workers:
            self._send(worker, message)
        for worker in self._workers:
            state = self._recv(worker, message)["state"]
            for row in state.get("series", []):
                row.setdefault("labels", {})["worker"] = str(worker.index)
            merged.merge_from(MetricsRegistry.from_state(state))
        return merged
