"""Name-sharded serving: route entries across per-shard store/engine pairs.

One :class:`~repro.serve.store.SynopsisStore` plus one
:class:`~repro.serve.engine.QueryEngine` is a *shard*; a
:class:`ShardRouter` owns N of them and routes every entry name to
exactly one shard.  The assignment comes from a :class:`ShardMap` —
stable hashing of the name for *new* registrations, but every assignment
is recorded explicitly and persisted with the store, so loading a
sharded store never re-derives placement from the hash: resharding is a
deliberate migration (:meth:`ShardRouter.reshard`), not an accident of
changing the shard count.

The lock discipline that makes concurrent serving safe:

* Queries take no router-level lock at all.  They go through the shard
  engine's ``table_versioned``, which reads a consistent
  ``(version, table)`` snapshot under the store's internal lock.
  Group queries on a named cohort hold the router's
  :class:`~repro.serve.cohorts.CohortRegistry` lock only to look up or
  store the cohort's cached table; they read the members' versions under
  each shard store's lock, never under the registry lock.
* Writes (``register`` / ``extend`` / ``refresh``) hold the target
  shard's ``write_lock``, serializing multi-step read-modify-write
  sequences per shard while leaving the other N-1 shards fully
  concurrent.
* ``define_cohort`` checks membership and inserts under the registry
  lock, and ``remove`` prunes cohorts only after the shard store has
  dropped the entry, so a cohort never names a removed entry.

Each shard may be backed by its own persisted store directory (see
``save_sharded`` / ``load_sharded`` in :mod:`repro.serve.persistence`);
shard stores load lazily, so a shard hydrates only the entries it
actually serves.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.serialize import check_payload_tag
from ..core.sparse import SparseFunction
from ..obs.metrics import MetricsRegistry
from ..sampling.streaming import StreamingHistogramLearner
from .cohorts import CohortOwner, CohortRegistry
from .engine import PrefixTable, QueryEngine
from .planner import BuildBudget, BuildPlan, plan_cohort
from .store import StoreEntry, SynopsisStore, duplicate_entry_message

__all__ = ["Shard", "ShardMap", "ShardRouter", "stable_shard"]


def stable_shard(name: str, num_shards: int) -> int:
    """Deterministic shard index for ``name`` (stable across processes).

    Python's builtin ``hash`` is salted per process, so placement must
    come from a cryptographic digest of the UTF-8 name: the first 8 bytes
    of its SHA-1, reduced mod the shard count.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    digest = hashlib.sha1(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


class ShardMap:
    """Explicit name-to-shard assignments over a fixed shard count.

    New names default to :func:`stable_shard`, but the chosen index is
    recorded at assignment time and serialized with the store, so a
    loaded map reproduces placement exactly even if the hash function or
    shard count of a future version differs.  Assignments are sticky
    across ``remove``: re-registering a name lands on its original shard,
    matching the store's never-repeat version discipline.

    Schema 2 adds ``map_version``, a monotone placement generation
    bumped on every effective mutation (new assignment, targeted
    migration), so two persisted maps can be compared by generation.
    Schema-1 payloads load with version 0.  Schema-2 payloads written
    while read replicas existed also carry a ``replicas`` key; it is
    ignored, because the primaries always held every payload.
    """

    kind = "shard_map"
    schema_version = 2

    def __init__(
        self,
        num_shards: int,
        assignments: Optional[Dict[str, int]] = None,
        version: int = 0,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)
        self.version = int(version)
        self._assignments: Dict[str, int] = {}
        for name, shard in (assignments or {}).items():
            self._assignments[str(name)] = self._check_shard(name, shard)

    def _check_shard(self, name: str, shard: Any) -> int:
        shard = int(shard)
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"assignment {name!r} -> {shard} is outside "
                f"[0, {self.num_shards})"
            )
        return shard

    def shard_of(self, name: str) -> int:
        """The shard for ``name``: its recorded assignment, else the hash."""
        existing = self._assignments.get(name)
        return stable_shard(name, self.num_shards) if existing is None else existing

    def assign(self, name: str) -> int:
        """Record (and return) the shard assignment for ``name``."""
        shard = self.shard_of(name)
        if self._assignments.get(name) != shard:
            self._assignments[name] = shard
            self.version += 1
        return shard

    def assign_many(self, names: Sequence[str]) -> Dict[str, int]:
        """Record assignments for a whole batch under one version bump.

        The fleet-registration path: a 100k-series cohort moves the map
        one generation forward, not 100k.
        """
        placed: Dict[str, int] = {}
        changed = False
        for name in names:
            shard = self.shard_of(name)
            if self._assignments.get(name) != shard:
                self._assignments[name] = shard
                changed = True
            placed[name] = shard
        if changed:
            self.version += 1
        return placed

    def assign_to(self, name: str, shard: int) -> None:
        """Record an explicit placement for ``name`` (the migration path)."""
        shard = self._check_shard(name, shard)
        if self._assignments.get(name) != shard:
            self._assignments[name] = shard
            self.version += 1

    def names(self) -> List[str]:
        """Assigned names in assignment order (the router's global order)."""
        return list(self._assignments)

    def assignments(self) -> Dict[str, int]:
        return dict(self._assignments)

    def __contains__(self, name: str) -> bool:
        return name in self._assignments

    def __len__(self) -> int:
        return len(self._assignments)

    def to_dict(self) -> Dict[str, Any]:
        """Type-tagged JSON payload (assignment order preserved)."""
        return {
            "kind": self.kind,
            "schema": self.schema_version,
            "num_shards": self.num_shards,
            "assignments": dict(self._assignments),
            "map_version": self.version,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ShardMap":
        check_payload_tag(payload, cls)
        assignments = payload.get("assignments", {})
        if not isinstance(assignments, dict):
            raise ValueError("shard map assignments must be a mapping")
        return cls(
            int(payload["num_shards"]),
            assignments,
            version=int(payload.get("map_version", 0)),
        )


@dataclass
class Shard:
    """One serving unit: a store, its engine, and the per-shard write lock."""

    index: int
    store: SynopsisStore
    engine: QueryEngine
    write_lock: threading.RLock = field(default_factory=threading.RLock)

    def __len__(self) -> int:
        return len(self.store)


class ShardRouter(CohortOwner):
    """Route named synopses across N concurrent store/engine shards.

    The router exposes the same registration and query surface as a
    single ``(SynopsisStore, QueryEngine)`` pair — ``register``,
    ``extend``, ``range_sum``, ``quantile``, ... — so callers (the CLI
    serve loop, the async front end) are oblivious to the shard count; a
    one-shard router is a drop-in replacement for the unsharded pair.
    """

    def __init__(
        self,
        num_shards: int = 1,
        shard_map: Optional[ShardMap] = None,
        stores: Optional[Sequence[SynopsisStore]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if shard_map is None:
            shard_map = ShardMap(num_shards)
        elif shard_map.num_shards != num_shards:
            raise ValueError(
                f"shard map covers {shard_map.num_shards} shards, "
                f"router was asked for {num_shards}"
            )
        if stores is not None and len(stores) != num_shards:
            raise ValueError(
                f"{len(stores)} stores provided for {num_shards} shards"
            )
        self.shard_map = shard_map
        # One registry for the whole router: each shard's store and
        # engine report into it under a ``shard=<index>`` label, so the
        # fleet view is one mergeable document instead of N disjoint
        # registries (the paper's mergeability discipline applied to
        # operational metrics).
        self.registry = MetricsRegistry() if registry is None else registry
        self._c_reshards = self.registry.counter(
            "router_reshards_total", "reshard migrations performed"
        )
        self._c_migrated = self.registry.counter(
            "router_entries_migrated_total",
            "entries whose shard changed (reshard or live migrate)",
        )
        # Router-level cohorts and their cached stacked tables: members
        # may span shards, and the member-order reduction interleaves
        # them, so the registry lives here, not in any single shard store.
        self._cohorts = CohortRegistry()
        self.shards: List[Shard] = [
            self._make_shard(
                index, SynopsisStore() if stores is None else stores[index]
            )
            for index in range(num_shards)
        ]

    def _make_shard(self, index: int, store: SynopsisStore) -> Shard:
        labels = {"shard": str(index)}
        store.bind_registry(self.registry, labels)
        return Shard(
            index=index,
            store=store,
            engine=QueryEngine(store, registry=self.registry, labels=labels),
        )

    @classmethod
    def from_stores(
        cls,
        stores: Sequence[SynopsisStore],
        shard_map: Optional[ShardMap] = None,
    ) -> "ShardRouter":
        """Adopt existing stores as shards (the persistence load path).

        Without an explicit map, every name present in a store is
        assigned to that store's shard, in shard-major order; with one,
        each store's names must agree with the map's placement.
        """
        if not stores:
            raise ValueError("at least one store is required")
        router = cls(len(stores), shard_map=shard_map, stores=list(stores))
        for index, store in enumerate(stores):
            for name in store.names():
                if shard_map is None:
                    previous = router.shard_map._assignments.get(name)
                    if previous is not None and previous != index:
                        raise ValueError(
                            f"entry {name!r} appears in both shard {previous} "
                            f"and shard {index}"
                        )
                    router.shard_map._assignments[name] = index
                elif router.shard_map.shard_of(name) != index:
                    raise ValueError(
                        f"entry {name!r} lives in shard {index} but the shard "
                        f"map places it on shard "
                        f"{router.shard_map.shard_of(name)}"
                    )
                else:
                    router.shard_map.assign(name)
        # Adopt store-level cohorts whose members all resolve — the
        # one-shard plain-store load path; a sharded load layers the
        # parent manifest's router-level cohorts on top.
        for store in stores:
            router._cohorts.adopt(store.cohorts(), router)
        return router

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, name: str) -> Shard:
        """The shard serving ``name`` (assignment recorded or hashed)."""
        return self.shards[self.shard_map.shard_of(name)]

    def group_by_shard(
        self, names: Sequence[str]
    ) -> Dict[int, List[str]]:
        """Partition ``names`` by shard index (front-end fan-out helper)."""
        groups: Dict[int, List[str]] = {}
        for name in names:
            groups.setdefault(self.shard_map.shard_of(name), []).append(name)
        return groups

    # ------------------------------------------------------------------ #
    # Registration and writes (serialized per shard)
    # ------------------------------------------------------------------ #

    def register(
        self,
        name: str,
        data: Union[np.ndarray, SparseFunction],
        family: str = "merging",
        k: int = 8,
        **options: Any,
    ) -> StoreEntry:
        # The map assignment happens under the shard's write lock, so a
        # sharded save (which holds every write lock) can never observe a
        # name in the map whose entry is not yet in its shard store.
        shard = self.shards[self.shard_map.shard_of(name)]
        with shard.write_lock:
            self.shard_map.assign(name)
            entry = shard.store.register(name, data, family=family, k=k, **options)
        return entry

    def register_stream(
        self,
        name: str,
        learner: StreamingHistogramLearner,
        family: str = "merging",
        k: Optional[int] = None,
        **options: Any,
    ) -> StoreEntry:
        shard = self.shards[self.shard_map.shard_of(name)]
        with shard.write_lock:
            self.shard_map.assign(name)
            entry = shard.store.register_stream(
                name, learner, family=family, k=k, **options
            )
        return entry

    def register_auto(
        self,
        name: str,
        data: Union[np.ndarray, SparseFunction],
        budget: BuildBudget,
        **plan_options: Any,
    ) -> StoreEntry:
        """Auto-plan the family/k for ``data`` on ``name``'s shard.

        See :meth:`SynopsisStore.register_auto`; the decision record is
        persisted with the shard's store.
        """
        shard = self.shards[self.shard_map.shard_of(name)]
        with shard.write_lock:
            self.shard_map.assign(name)
            entry = shard.store.register_auto(name, data, budget, **plan_options)
        return entry

    def register_stream_auto(
        self,
        name: str,
        learner: StreamingHistogramLearner,
        budget: BuildBudget,
        **plan_options: Any,
    ) -> StoreEntry:
        """Auto-plan a streaming-backed entry on ``name``'s shard."""
        shard = self.shards[self.shard_map.shard_of(name)]
        with shard.write_lock:
            self.shard_map.assign(name)
            entry = shard.store.register_stream_auto(
                name, learner, budget, **plan_options
            )
        return entry

    def register_many(
        self,
        named_datasets: Any,
        budget: BuildBudget,
        cohort: Optional[str] = None,
        families: Optional[Sequence[str]] = None,
        k_grid: Optional[Sequence[int]] = None,
        **plan_options: Any,
    ) -> List[StoreEntry]:
        """Bulk auto-planned registration across shards.

        Planning is amortized over the whole batch first (see
        :func:`~repro.serve.planner.plan_cohort`); then every involved
        shard's write lock is taken (in index order, so the batch cannot
        deadlock against a concurrent sharded save) and the map absorbs
        all assignments under **one** version bump before the entries are
        installed shard by shard.  A duplicate name or an infeasible
        member aborts before anything is installed.  With ``cohort=...``
        the batch is also registered as a router-level cohort for
        group-by queries.  Returns the entries in input order.
        """
        if hasattr(named_datasets, "items"):
            items = [(str(n), d) for n, d in named_datasets.items()]
        else:
            items = [(str(n), d) for n, d in named_datasets]
        for name, _ in items:
            if name in self:
                raise ValueError(duplicate_entry_message(name))
        planned = plan_cohort(
            items, budget, families=families, k_grid=k_grid, **plan_options
        )
        names = [name for name, _ in planned]
        plans = dict(planned)
        groups = self.group_by_shard(names)
        entries: Dict[str, StoreEntry] = {}
        with contextlib.ExitStack() as stack:
            for index in sorted(groups):
                stack.enter_context(self.shards[index].write_lock)
            self.shard_map.assign_many(names)
            for index, group in groups.items():
                store = self.shards[index].store
                for name in group:
                    entries[name] = store._install_planned(name, plans[name])
        if cohort is not None:
            self.define_cohort(cohort, names)
        return [entries[name] for name in names]

    def plan_of(self, name: str) -> Optional[BuildPlan]:
        """The persisted decision record of ``name`` (None if not planned)."""
        return self._shard_for_registered(name).store[name].plan

    def extend(self, name: str, samples: np.ndarray) -> StoreEntry:
        shard = self._shard_for_registered(name)
        with shard.write_lock:
            entry = shard.store.extend(name, samples)
        return entry

    def refresh(self, name: str) -> StoreEntry:
        shard = self._shard_for_registered(name)
        with shard.write_lock:
            entry = shard.store.refresh(name)
        return entry

    def remove(self, name: str) -> None:
        """Remove an entry (the assignment stays sticky)."""
        shard = self._shard_for_registered(name)
        with shard.write_lock:
            shard.store.remove(name)
        # Pruned after the store removal, never under a store lock.
        self._cohorts.prune(name)

    def _shard_for_registered(self, name: str) -> Shard:
        shard = self.shard_of(name)
        if name not in shard.store:
            raise KeyError(
                f"no synopsis named {name!r}; "
                f"registered: {', '.join(self.names()) or '(none)'}"
            )
        return shard

    # ------------------------------------------------------------------ #
    # Lookup and metadata
    # ------------------------------------------------------------------ #

    def __contains__(self, name: str) -> bool:
        return name in self.shard_of(name).store

    def __len__(self) -> int:
        return sum(len(shard.store) for shard in self.shards)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __getitem__(self, name: str) -> StoreEntry:
        return self._shard_for_registered(name).store[name]

    def names(self) -> List[str]:
        """Entry names in global registration order (across shards)."""
        return [name for name in self.shard_map.names() if name in self]

    def summary(self) -> List[Dict[str, Any]]:
        """Metadata for every entry, in global registration order."""
        return [self[name].describe() for name in self.names()]

    def describe(self, name: str) -> Dict[str, Any]:
        """One entry's metadata plus its shard index."""
        meta = self[name].describe()
        meta["shard"] = self.shard_map.shard_of(name)
        return meta

    def residency(self) -> Dict[str, int]:
        """Hydrated vs cold counts and resident bytes summed over shards."""
        totals = {"entries": 0, "hydrated": 0, "cold": 0, "resident_bytes": 0}
        for shard in self.shards:
            row = shard.store.residency()
            for key in totals:
                totals[key] += row[key]
        return totals

    def warm(self, names: Optional[Sequence[str]] = None) -> int:
        """Build prefix tables shard by shard; returns the entries warmed."""
        groups = self.group_by_shard(self.names() if names is None else list(names))
        return sum(
            self.shards[index].engine.warm(group) for index, group in groups.items()
        )

    def cache_info(self) -> Dict[str, Any]:
        """Table hits and misses summed over shards, plus each shard's."""
        per_shard = [shard.engine.cache_info() for shard in self.shards]
        return {
            "hits": sum(info["hits"] for info in per_shard),
            "misses": sum(info["misses"] for info in per_shard),
            "shards": per_shard,
        }

    # ------------------------------------------------------------------ #
    # Queries (thread-safe; no router-level locking)
    # ------------------------------------------------------------------ #

    def table_versioned(self, name: str) -> Tuple[int, PrefixTable]:
        return self._shard_for_registered(name).engine.table_versioned(name)

    def range_sum(self, name: str, a, b):
        return self._shard_for_registered(name).engine.range_sum(name, a, b)

    def range_mean(self, name: str, a, b):
        return self._shard_for_registered(name).engine.range_mean(name, a, b)

    def point_mass(self, name: str, x):
        return self._shard_for_registered(name).engine.point_mass(name, x)

    def cdf(self, name: str, x):
        return self._shard_for_registered(name).engine.cdf(name, x)

    def quantile(self, name: str, q):
        return self._shard_for_registered(name).engine.quantile(name, q)

    def top_k_buckets(self, name: str, m: int):
        return self._shard_for_registered(name).engine.top_k_buckets(name, m)

    def heavy_hitters(self, name: str, phi: float):
        """Sliding-window ``phi``-heavy hitters of entry ``name`` (see
        :meth:`~repro.serve.engine.QueryEngine.heavy_hitters`)."""
        return self._shard_for_registered(name).engine.heavy_hitters(name, phi)

    def inner_product(self, name_a: str, name_b: str) -> float:
        """``<f_a, f_b>`` between two stored synopses, pairing across shards.

        Each name's prefix table comes from its *own* shard's engine, and
        the closed-form product runs on the caller's thread — no
        cross-shard locking, the same consistency unit as two independent
        reads.
        """
        table_a = self._shard_for_registered(name_a).engine.table(name_a)
        table_b = self._shard_for_registered(name_b).engine.table(name_b)
        return table_a.inner_product(table_b)

    # ------------------------------------------------------------------ #
    # Group-by queries (one stacked table per cohort, member-order sums)
    # ------------------------------------------------------------------ #

    def _member_versions(self, names: List[str]) -> List[int]:
        """The members' versions as their shard stores hold them now, read
        under each shard's store lock: no hydration, no engine-cache
        traffic.  Raises the router's ``KeyError`` for an unknown member.
        """
        versions: Dict[str, Optional[int]] = {}
        for index, group in self.group_by_shard(names).items():
            versions.update(zip(group, self.shards[index].store.versions(group)))
        # None: unknown (self[name] raises) or migrated since the map read.
        return [
            self[name].version if versions[name] is None else versions[name]
            for name in names
        ]

    def _group(
        self, kind: str, names: Any, evaluate: Callable
    ) -> Tuple[Any, Dict[str, int]]:
        """Evaluate a group target's stacked table from the cohort registry,
        fed by per-shard version reads and the shard engines'
        ``table_versioned``; returns ``(value, {member: version})``."""
        members = self.resolve_members(names)
        start = time.perf_counter()
        table, versions = self._cohorts.table(
            names, members, self._member_versions, self.table_versioned
        )
        value = evaluate(table)
        # The evaluation ran on the caller's thread, not inside any one
        # engine; attribute its latency to the first member's shard so the
        # per-kind series exist exactly once per query.
        self.shard_of(members[0]).engine.observe_query(
            kind, time.perf_counter() - start
        )
        return value, versions

    def group_range_sum(self, names: Any, a, b) -> Tuple[Any, Dict[str, int]]:
        """Pooled range sum over a cohort / member list; returns
        ``(value, {member: version})``."""
        return self._group("group_range_sum", names, lambda t: t.range_sum(a, b))

    def group_range_mean(self, names: Any, a, b) -> Tuple[Any, Dict[str, int]]:
        """Pooled range mean over a cohort / member list."""
        return self._group("group_range_mean", names, lambda t: t.range_mean(a, b))

    def group_top_k(
        self, names: Any, m: int
    ) -> Tuple[List[Tuple[int, int, float]], Dict[str, int]]:
        """Heaviest merged-partition pieces of the pooled member set."""
        return self._group("group_top_k", names, lambda t: t.top_k(m))

    # ------------------------------------------------------------------ #
    # Live migration
    # ------------------------------------------------------------------ #

    def migrate(self, names: Union[str, Sequence[str]], shard: int) -> List[str]:
        """Move entries to ``shard`` live, without dropping queries.

        For each name, the entry is adopted into the target store (same
        object — synopsis, learner, version, and version floor all move),
        the shard map's assignment swaps atomically under both shards'
        write locks, and only then is the source copy removed.  A batch
        routed against the old placement drains against the source copy
        until the swap; one routed before the swap but executed after the
        removal gets a KeyError, which the front end answers by re-routing
        against the *current* map — so no query is ever dropped.

        Names already on ``shard`` are skipped; the returned list holds
        the names actually moved.
        """
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"target shard {shard} is outside [0, {self.num_shards})"
            )
        target = self.shards[shard]
        moved: List[str] = []
        for name in [names] if isinstance(names, str) else list(names):
            source = self._shard_for_registered(name)
            if source.index == shard:
                continue
            first, second = sorted((source, target), key=lambda s: s.index)
            with first.write_lock, second.write_lock:
                entry = source.store[name]
                entry.hydrate()
                floor = source.store._last_versions.get(name, entry.version)
                target.store._adopt(entry, last_version=floor)
                # The map swap is the linearization point: batches routed
                # from here on find the entry on the target, earlier ones
                # drain against the source copy (or re-route on miss).
                self.shard_map.assign_to(name, shard)
                source.store.remove(name)
            moved.append(name)
            self._c_migrated.inc()
        return moved

    # ------------------------------------------------------------------ #
    # Resharding: a deliberate migration
    # ------------------------------------------------------------------ #

    def reshard(self, num_shards: int) -> "ShardRouter":
        """Rebuild this router over ``num_shards`` shards.

        Entries are *moved*, not rebuilt: each keeps its synopsis,
        learner, version, version floor and prefix table, so the new
        router serves them exactly as if they had always lived there.
        Sticky assignments that still name a live shard are preserved —
        growing the shard count moves nothing, shrinking it moves only
        the entries whose shard disappeared (re-derived from the new
        count's stable hash) — so a reshard never scrambles placements
        an operator chose with :meth:`migrate`.  Cohorts name members,
        not shards, so they carry over unchanged.
        """
        new = ShardRouter(num_shards, registry=self.registry)
        self._c_reshards.inc()
        for name in self.names():
            source = self.shard_of(name)
            with source.write_lock:
                entry = source.store[name]
                entry.hydrate()
                floor = source.store._last_versions.get(name, entry.version)
            index = self._sticky_index(name, num_shards)
            new.shard_map.assign_to(name, index)
            new.shards[index].store._adopt(entry, last_version=floor)
            if index != source.index:
                self._c_migrated.inc()
        # Removed names keep their sticky assignment and version floor, so
        # re-registering them after the migration never reissues a served
        # version either.
        for name in self.shard_map.names():
            if name in self:
                continue
            floor = self.shard_of(name).store._last_versions.get(name)
            if floor is not None:
                index = self._sticky_index(name, num_shards)
                new.shard_map.assign_to(name, index)
                new.shards[index].store._last_versions[name] = floor
        # The new router builds its own stacked tables on first query.
        new._cohorts.adopt(self.cohorts(), new)
        return new

    def _sticky_index(self, name: str, num_shards: int) -> int:
        """A name's post-reshard shard: its sticky assignment if that
        shard survives, else the new count's stable hash."""
        existing = self.shard_map._assignments.get(name)
        if existing is not None and existing < num_shards:
            return existing
        return stable_shard(name, num_shards)

    # ------------------------------------------------------------------ #
    # Persistence (implementation in repro.serve.persistence)
    # ------------------------------------------------------------------ #

    def save(self, path) -> None:
        """Persist as a sharded store directory (atomic replace); see
        :func:`repro.serve.persistence.save_sharded`."""
        from .persistence import save_sharded

        save_sharded(self, path)

    @classmethod
    def load(cls, path, lazy: bool = True) -> "ShardRouter":
        """Load a directory persisted by :meth:`save` / ``save_sharded``.

        Each shard store hydrates lazily (``lazy=True``), so a shard pays
        deserialization only for the entries it actually serves.
        """
        from .persistence import load_sharded

        return load_sharded(path, lazy=lazy, router_cls=cls)
