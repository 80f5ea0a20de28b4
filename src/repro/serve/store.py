"""A named store of built synopses, with streaming-backed refresh.

:class:`SynopsisStore` is the registration side of the serving engine:
each entry couples a name with a built synopsis (any family from
:mod:`repro.serve.builders`) and a monotone version number.  Entries can be
backed by a :class:`~repro.sampling.streaming.StreamingHistogramLearner`;
absorbing samples through :meth:`SynopsisStore.extend` re-synopsizes the
entry once the learner's refresh policy says the cached summary is stale,
bumping the version and dropping exactly that entry's prefix table.

Thread-safety contract (the sharded serving architecture's per-shard lock
discipline): every mutation of the registry and of an entry's
``(result, version)`` pair happens under the store's internal lock, and
readers take :meth:`SynopsisStore.snapshot` to observe a *consistent*
``(version, synopsis)`` pair — a query can never see a half-bumped entry
where the synopsis was swapped but the version was not (or vice versa).
Writers that perform multi-step read-modify-write sequences (``extend``'s
absorb-then-maybe-refresh) must additionally be serialized among
themselves by an external per-shard write lock; the store lock alone only
guarantees reader consistency.

Each entry also holds the :class:`~repro.serve.engine.PrefixTable` of its
current synopsis.  The first reader builds it from a
:meth:`SynopsisStore.table_snapshot` and offers it back through
:meth:`SynopsisStore.keep_table`, which keeps it only while that synopsis
is still the entry's; a re-register, refresh, cool or remove drops it
with the synopsis.

Named cohorts (ordered member lists for the group-by query kinds) and
their cached stacked tables live in the
:class:`~repro.serve.cohorts.CohortRegistry` the store holds, the same
class a :class:`~repro.serve.router.ShardRouter` holds; :meth:`remove`
prunes them after the entry is gone, never under the store lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.sparse import SparseFunction
from ..obs.metrics import MetricsRegistry, timer
from ..sampling.streaming import StreamingHistogramLearner
from ..sampling.windowed import WindowedStreamLearner
from .builders import BuildResult, build_synopsis
from .cohorts import CohortOwner, CohortRegistry
from .planner import (
    BYTES_PER_NUMBER,
    BudgetInfeasibleError,
    BuildBudget,
    BuildPlan,
    plan_build,
    plan_cohort,
    replan,
)

if TYPE_CHECKING:
    from .engine import PrefixTable

__all__ = [
    "StoreEntry",
    "StreamLearner",
    "SynopsisStore",
    "duplicate_entry_message",
]


def duplicate_entry_message(name: str) -> str:
    """The one duplicate-registration error message, store and router alike."""
    return (
        f"an entry named {name!r} is already registered; remove() it first "
        f"or use register() to replace it"
    )

#: Either streaming backend: the growing-stream learner or the
#: sliding-window learner.  Both expose the same refresh surface
#: (``extend`` / ``empirical`` / ``stale_since`` / ``samples_seen`` /
#: ``state_dict``), so the store's streaming machinery is agnostic; the
#: windowed one additionally answers ``heavy_hitters(phi)``.
StreamLearner = Union[StreamingHistogramLearner, WindowedStreamLearner]


@dataclass
class StoreEntry:
    """One named synopsis plus build metadata and refresh plumbing.

    An entry loaded lazily from a persisted store carries a ``hydrator``
    callback instead of a materialized synopsis; the first access to
    :attr:`synopsis` (i.e. the first query) invokes it to fill in
    ``result.synopsis`` and, for streaming-backed entries, ``learner``.
    Until then :meth:`describe` serves the metadata snapshot persisted in
    the manifest, so ``summary()`` over a cold store reads no payloads.
    """

    name: str
    result: BuildResult
    version: int = 0
    learner: Optional[StreamLearner] = None
    built_at_samples: int = 0
    # The decision record of an auto-planned entry (register_auto /
    # register_stream_auto); None for entries with an explicit family.
    # Plans are metadata: persisted in the manifest, available before
    # hydration, and replaced only when a refresh re-plans.
    plan: Optional[BuildPlan] = field(default=None, repr=False, compare=False)
    hydrator: Optional[Callable[["StoreEntry"], None]] = field(
        default=None, repr=False, compare=False
    )
    # The last hydrator that ran successfully, stashed so cool() can
    # demote the entry back to its lazy payload (tiered residency).  The
    # persistence hydrators are re-invokable — they re-read the payload
    # from the mmap segment / npz file every call — which is what makes
    # hydrate -> cool -> hydrate a cycle rather than a one-shot.
    rehydrator: Optional[Callable[["StoreEntry"], None]] = field(
        default=None, repr=False, compare=False
    )
    frozen_meta: Optional[Dict[str, Any]] = field(
        default=None, repr=False, compare=False
    )
    # The one prefix table of the current synopsis, kept by the first
    # read (SynopsisStore.keep_table) and dropped with that synopsis.
    table: Optional["PrefixTable"] = field(default=None, repr=False, compare=False)
    _hydrate_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def is_hydrated(self) -> bool:
        return self.hydrator is None

    @property
    def resident_bytes(self) -> int:
        """Approximate payload bytes this entry keeps in memory right now."""
        if self.hydrator is not None or self.result.synopsis is None:
            return 0
        return self.result.stored_numbers * BYTES_PER_NUMBER

    @property
    def evictable(self) -> bool:
        """Whether :meth:`cool` can demote this entry to its lazy payload.

        Streaming entries never cool (re-running the persisted hydrator
        would resurrect a stale learner over the live one), and an entry
        built in memory has no payload on disk to fall back to.
        """
        return (
            self.learner is None
            and self.rehydrator is not None
            and self.hydrator is None
            and self.result.synopsis is not None
        )

    def hydrate(self) -> None:
        """Materialize a lazily-loaded payload (idempotent, thread-safe).

        The hydrator is cleared only after it succeeds, so a corrupt
        payload raises the same clear error on every access instead of
        leaving a half-hydrated entry behind.  The per-entry lock keeps two
        concurrent first queries from both reading the payload.
        """
        if self.hydrator is None:
            return
        with self._hydrate_lock:
            if self.hydrator is not None:
                hydrator = self.hydrator
                hydrator(self)
                self.rehydrator = hydrator
                self.hydrator = None

    def cool(self) -> int:
        """Demote a hydrated, evictable entry back to its lazy payload.

        Returns the payload bytes freed (0 when the entry is not
        evictable).  The synopsis slot is cleared *in place* on the
        entry's :class:`BuildResult`, the slot the rehydrator refills.
        Callers must serialize against readers (the store does, under
        its lock) so no snapshot can observe the half-cooled state.
        """
        with self._hydrate_lock:
            if not self.evictable:
                return 0
            freed = self.resident_bytes
            self.result.synopsis = None
            self.table = None
            self.hydrator = self.rehydrator
            return freed

    @property
    def synopsis(self):
        self.hydrate()
        return self.result.synopsis

    @property
    def options(self) -> Dict[str, Any]:
        return self.result.options

    @property
    def family(self) -> str:
        return self.result.family

    @property
    def k(self) -> int:
        return self.result.k

    @property
    def is_streaming(self) -> bool:
        if not self.is_hydrated and self.frozen_meta is not None:
            return bool(self.frozen_meta.get("streaming", False))
        return self.learner is not None

    def describe(self) -> Dict[str, Any]:
        if not self.is_hydrated and self.frozen_meta is not None:
            # Copy the nested options too: callers may mutate the returned
            # dict, and the frozen snapshot must stay pristine.
            meta = dict(self.frozen_meta)
            meta["options"] = dict(meta.get("options", {}))
            meta["hydrated"] = False
            meta["resident_bytes"] = 0
            return meta
        meta = self.result.describe()
        meta["name"] = self.name
        meta["version"] = self.version
        meta["streaming"] = self.is_streaming
        meta["hydrated"] = True
        meta["resident_bytes"] = self.resident_bytes
        if self.learner is not None:
            meta["samples_seen"] = self.learner.samples_seen
            if isinstance(self.learner, WindowedStreamLearner):
                meta["windowed"] = True
                meta["window_total"] = self.learner.window_total
        if self.plan is not None:
            meta["planned"] = True
        return meta


class SynopsisStore(CohortOwner):
    """Registry of named series, each summarized by a chosen synopsis family."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._entries: Dict[str, StoreEntry] = {}
        # Last version ever issued per name, surviving remove(): a name's
        # (name, version) pairs must never repeat, or a cohort table keyed
        # by versions would serve a stale member after remove-then-register.
        self._last_versions: Dict[str, int] = {}
        # Named cohorts for group-by queries and their cached stacked
        # tables, persisted with the store (manifest "cohorts" key).
        self._cohorts = CohortRegistry()
        # Guards _entries/_last_versions and every (result, version) swap;
        # RLock so refresh() can run under a caller already holding it.
        self._lock = threading.RLock()
        # Approximate hydrated payload bytes across all entries, kept
        # incrementally under its own leaf lock (never taken while
        # acquiring another lock) so the residency budget check is a
        # plain read, not a scan.
        self._resident_bytes = 0
        self._resident_lock = threading.Lock()
        # The ResidencyManager watching this store, if any (set by
        # ResidencyManager.watch); consulted after snapshots to enforce
        # the global max_resident_bytes budget.
        self._residency: Optional[Any] = None
        self.bind_registry(
            MetricsRegistry() if registry is None else registry, labels
        )

    def bind_registry(
        self,
        registry: MetricsRegistry,
        labels: Optional[Dict[str, Any]] = None,
    ) -> None:
        """(Re)bind this store's instruments into ``registry``.

        A :class:`~repro.serve.router.ShardRouter` calls this to point a
        shard's store at the router-wide registry with a ``shard`` label;
        instruments are re-minted there, and timing closures installed
        earlier (the hydrator wrappers) pick them up dynamically.
        """
        self.registry = registry
        if labels is not None:
            self._labels = {k: str(v) for k, v in labels.items()}
        elif not hasattr(self, "_labels"):
            self._labels = {}
        self._h_register = registry.histogram(
            "store_register_seconds",
            "synopsis build+install time at registration",
            **self._labels,
        )
        self._h_refresh = registry.histogram(
            "store_refresh_seconds",
            "streaming re-synopsize time",
            **self._labels,
        )
        self._h_hydrate = registry.histogram(
            "store_hydrate_seconds",
            "lazy payload hydration time",
            **self._labels,
        )
        self._c_version_bumps = registry.counter(
            "store_version_bumps_total",
            "entry version bumps (installs and refreshes)",
            **self._labels,
        )
        self._g_resident = registry.gauge(
            "store_resident_bytes",
            "approximate hydrated payload bytes resident in memory",
            **self._labels,
        )
        self._g_resident.set(self._resident_bytes)
        self._c_evictions = registry.counter(
            "store_evictions_total",
            "entries cooled back to their lazy payload",
            **self._labels,
        )

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def register(
        self,
        name: str,
        data: Union[np.ndarray, SparseFunction],
        family: str = "merging",
        k: int = 8,
        **options: Any,
    ) -> StoreEntry:
        """Build a synopsis of ``data`` and store it under ``name``.

        Re-registering an existing name replaces the entry, its synopsis
        and its prefix table, and bumps the version.
        """
        with timer(self._h_register):
            result = build_synopsis(data, family, k, **options)
            return self._install(name, result, learner=None)

    def register_auto(
        self,
        name: str,
        data: Union[np.ndarray, SparseFunction],
        budget: BuildBudget,
        families: Optional[Any] = None,
        k_grid: Optional[Any] = None,
        **plan_options: Any,
    ) -> StoreEntry:
        """Plan the family/k for ``data`` under ``budget`` and store it.

        The planner's full decision record (:class:`BuildPlan`) is kept on
        the entry and persisted with the store, so a reloaded store can
        explain and re-derive the choice without rebuilding candidates.
        Raises :exc:`~repro.serve.planner.BudgetInfeasibleError` when no
        family satisfies the budget, and :exc:`ValueError` when ``name``
        is already registered — auto-registration never silently replaces
        an entry (use :meth:`register` to replace, or :meth:`remove`
        first).
        """
        with timer(self._h_register):
            with self._lock:
                if name in self._entries:
                    raise ValueError(duplicate_entry_message(name))
            plan = plan_build(
                data, budget, families=families, k_grid=k_grid, **plan_options
            )
            return self._install_planned(name, plan)

    def register_many(
        self,
        named_datasets: Any,
        budget: BuildBudget,
        cohort: Optional[str] = None,
        families: Optional[Any] = None,
        k_grid: Optional[Any] = None,
        **plan_options: Any,
    ) -> List[StoreEntry]:
        """Bulk-register a cohort of series with one amortized plan.

        ``named_datasets`` is a mapping ``{name: data}`` or an iterable of
        ``(name, data)`` pairs.  Planning is amortized via
        :func:`~repro.serve.planner.plan_cohort`: the first series gets a
        full grid probe, members whose measured build stays in budget
        reuse the chosen ``(family, k)``, and only violators escalate to
        their own probe.  All planning happens *before* any entry is
        installed, so a mid-cohort :exc:`BudgetInfeasibleError` (or a
        duplicate name) leaves the store untouched.

        With ``cohort=...`` the member names are also registered as a
        named cohort for group-by queries (persisted with the store).
        Returns the installed entries in input order.
        """
        with timer(self._h_register):
            if hasattr(named_datasets, "items"):
                items = [(str(n), d) for n, d in named_datasets.items()]
            else:
                items = [(str(n), d) for n, d in named_datasets]
            with self._lock:
                for name, _ in items:
                    if name in self._entries:
                        raise ValueError(duplicate_entry_message(name))
            planned = plan_cohort(
                items, budget, families=families, k_grid=k_grid, **plan_options
            )
            entries = [
                self._install_planned(name, plan) for name, plan in planned
            ]
            if cohort is not None:
                self.define_cohort(cohort, [name for name, _ in planned])
            return entries

    def _install_planned(self, name: str, plan: BuildPlan) -> StoreEntry:
        """Install a planned build, refusing to replace an existing entry."""
        with self._lock:
            if name in self._entries:
                raise ValueError(duplicate_entry_message(name))
            return self._install(name, plan.result, learner=None, plan=plan)

    def register_stream_auto(
        self,
        name: str,
        learner: StreamLearner,
        budget: BuildBudget,
        families: Optional[Any] = None,
        k_grid: Optional[Any] = None,
        **plan_options: Any,
    ) -> StoreEntry:
        """Auto-plan a synopsis of a streaming learner's current state.

        Combines :meth:`register_auto` with :meth:`register_stream`: the
        plan is derived from the learner's empirical distribution, and
        :meth:`refresh` re-plans (same budget, families, and k-grid)
        whenever the learner's drift watermark has moved.
        """
        with timer(self._h_register):
            plan = plan_build(
                learner.empirical(),
                budget,
                families=families,
                k_grid=k_grid,
                **plan_options,
            )
            entry = self._install(name, plan.result, learner=learner, plan=plan)
            entry.built_at_samples = learner.samples_seen
            return entry

    def register_stream(
        self,
        name: str,
        learner: StreamLearner,
        family: str = "merging",
        k: Optional[int] = None,
        **options: Any,
    ) -> StoreEntry:
        """Store a synopsis backed by a streaming learner.

        The synopsis is built from the learner's current empirical
        distribution (the learner must have seen at least one sample) and
        rebuilt by :meth:`refresh` / :meth:`extend` as the stream grows.
        ``k`` defaults to the learner's own piece budget.
        """
        with timer(self._h_register):
            budget = learner.k if k is None else int(k)
            result = build_synopsis(
                learner.empirical(), family, budget, **options
            )
            entry = self._install(name, result, learner=learner)
            entry.built_at_samples = learner.samples_seen
            return entry

    def _install(
        self,
        name: str,
        result: BuildResult,
        learner: Optional[StreamLearner],
        plan: Optional[BuildPlan] = None,
    ) -> StoreEntry:
        if plan is not None:
            # The chosen build now lives in entry.result; keeping the
            # duplicate reference on the plan would pin the synopsis (an
            # O(n) copy for the lossless family) even after later
            # refreshes replace the entry's own result.
            plan.result = None
        with self._lock:
            version = self._last_versions.get(name, -1) + 1
            self._last_versions[name] = version
            entry = StoreEntry(
                name=name,
                result=result,
                version=version,
                learner=learner,
                plan=plan,
            )
            previous = self._entries.get(name)
            self._entries[name] = entry
            self._c_version_bumps.inc()
            self._resident_add(
                entry.resident_bytes
                - (previous.resident_bytes if previous is not None else 0)
            )
            return entry

    def _resident_add(self, delta: int) -> None:
        """Adjust the resident-bytes accounting (and gauge) by ``delta``."""
        if not delta:
            return
        with self._resident_lock:
            self._resident_bytes = max(0, self._resident_bytes + delta)
            self._g_resident.set(self._resident_bytes)

    def _note_hydrated(self, entry: StoreEntry) -> None:
        """Post-hydration bookkeeping (called by the _adopt timing wrapper).

        Runs *inside* hydrate()'s critical section, before the hydrator
        slot is cleared, so it reads the payload directly rather than the
        ``resident_bytes`` property (which reports 0 while the slot is
        still set).
        """
        if entry.result.synopsis is None:
            return
        self._resident_add(entry.result.stored_numbers * BYTES_PER_NUMBER)
        residency = self._residency
        if residency is not None and entry.learner is None:
            residency.note(self, entry.name)

    # ------------------------------------------------------------------ #
    # Streaming refresh
    # ------------------------------------------------------------------ #

    def refresh(self, name: str) -> StoreEntry:
        """Rebuild a streaming-backed entry from its learner's current state.

        An auto-planned entry (:meth:`register_stream_auto`) *re-plans* —
        same budget, families, and k-grid — but only when the learner's
        drift watermark has moved (``stale_since`` the last build); a
        forced refresh on an undrifted stream just rebuilds the
        previously chosen ``(family, k)`` and keeps the plan, so planning
        cost is paid at the learner's amortized refresh cadence, not per
        call.  If the drifted distribution makes the frozen budget
        infeasible, the refresh degrades gracefully instead of failing
        data ingestion: the incumbent ``(family, k)`` is rebuilt on the
        fresh data and the previous decision record is kept — the entry
        keeps serving, and the next watermark crossing re-plans again.

        The (possibly expensive) synopsis build runs outside the store
        lock — concurrent writers are serialized by the caller's per-shard
        write lock — and the ``(result, version, plan)`` swap is atomic
        under it, so a concurrent :meth:`snapshot` sees either the old
        state or the new state, never a half-bumped entry.
        """
        with timer(self._h_refresh):
            entry = self[name]
            entry.hydrate()
            if entry.learner is None:
                raise ValueError(f"entry {name!r} is not backed by a stream")
            plan = entry.plan
            result = None
            if plan is not None and entry.learner.stale_since(
                entry.built_at_samples
            ):
                try:
                    plan = replan(plan, entry.learner.empirical())
                    result = plan.result
                except BudgetInfeasibleError:
                    # The stream drifted somewhere the budget can't follow.
                    # Raising here would poison extend() — the samples are
                    # already absorbed — so keep serving with the incumbent
                    # spec (and its decision record) instead of wedging the
                    # entry; the next watermark crossing re-plans again.
                    plan = entry.plan
            if result is None:
                result = build_synopsis(
                    entry.learner.empirical(),
                    entry.family,
                    entry.k,
                    **entry.options,
                )
            if plan is not None:
                plan.result = None  # entry.result owns the synopsis (_install)
            with self._lock:
                before = entry.resident_bytes
                entry.result = result
                entry.table = None
                entry.plan = plan
                entry.version = self._last_versions[name] = entry.version + 1
                entry.built_at_samples = entry.learner.samples_seen
                self._c_version_bumps.inc()
                self._resident_add(entry.resident_bytes - before)
            return entry

    def extend(self, name: str, samples: np.ndarray) -> StoreEntry:
        """Absorb a sample batch and refresh lazily.

        The entry is re-synopsized only once the sample count has grown by
        the learner's ``refresh_factor`` since the last build, mirroring the
        learner's own amortized-O(1) policy; between refreshes queries keep
        hitting the entry's prefix table.
        """
        entry = self[name]
        entry.hydrate()
        if entry.learner is None:
            raise ValueError(f"entry {name!r} is not backed by a stream")
        entry.learner.extend(samples)
        if entry.learner.stale_since(entry.built_at_samples):
            self.refresh(name)
        return entry

    def heavy_hitters(self, name: str, phi: float) -> List[Tuple[int, int]]:
        """Approximate ``phi``-heavy hitters of a windowed streaming entry.

        Answered straight from the live :class:`WindowedStreamLearner`
        (merged per-epoch Misra–Gries sketches), not from the built
        synopsis — the answer reflects every sample absorbed so far, even
        between refreshes.  Raises :exc:`ValueError` for entries not
        backed by a windowed stream.
        """
        entry = self[name]
        entry.hydrate()
        if not isinstance(entry.learner, WindowedStreamLearner):
            raise ValueError(
                f"entry {name!r} is not backed by a sliding-window stream; "
                f"heavy_hitters needs register_stream(name, "
                f"WindowedStreamLearner(...))"
            )
        return entry.learner.heavy_hitters(phi)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def __getitem__(self, name: str) -> StoreEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                f"no synopsis named {name!r}; "
                f"registered: {', '.join(self._entries) or '(none)'}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def names(self) -> List[str]:
        return list(self._entries)

    def remove(self, name: str) -> None:
        with self._lock:
            entry = self._entries.pop(name)
            self._resident_add(-entry.resident_bytes)
        # Prune after the removal and outside the store lock (the registry
        # lock is never taken under it), so no cohort names a removed entry.
        self._cohorts.prune(name)
        residency = self._residency
        if residency is not None:
            residency.discard(self, name)

    def snapshot(self, name: str) -> Tuple[int, Any]:
        """A consistent ``(version, synopsis)`` pair for entry ``name``.

        This is the query-side read primitive: the pair is read atomically
        under the store lock, so a concurrent :meth:`refresh` can never
        yield a version paired with the wrong synopsis.  Hydrates lazily
        loaded entries as a side effect.
        """
        version, synopsis, _ = self.table_snapshot(name)
        return version, synopsis

    def table_snapshot(
        self, name: str
    ) -> Tuple[int, Any, Optional["PrefixTable"]]:
        """:meth:`snapshot` plus the prefix table the entry holds for that
        synopsis (None until a reader builds one and :meth:`keep_table`
        stores it), all read under one store-lock acquisition."""
        entry = self[name]
        entry.hydrate()
        with self._lock:
            # Re-read through the registry: the entry may have been
            # replaced by a re-register between lookup and lock.
            entry = self[name]
            entry.hydrate()  # idempotent; a replaced entry is already live
            out = entry.version, entry.result.synopsis, entry.table
        # Enforce the residency budget with no store lock held: eviction
        # re-acquires it, and the snapshot above already owns its synopsis
        # reference, so cooling the entry we just read is harmless.
        residency = self._residency
        if residency is not None:
            residency.enforce()
        return out

    def keep_table(self, name: str, synopsis: Any, table: "PrefixTable") -> None:
        """Hold ``table``, built from ``synopsis``, on entry ``name``.

        Kept only while ``synopsis`` is still the entry's own: a table
        built from a snapshot that a re-register, refresh, cool or remove
        has since replaced is dropped, never held.
        """
        with self._lock:
            entry = self._entries.get(name)
            if (
                entry is not None
                and entry.table is None
                and entry.result.synopsis is synopsis
            ):
                entry.table = table

    def versions(self, names: Sequence[str]) -> List[Optional[int]]:
        """The current version of each name (None if absent), read under
        one lock acquisition and without hydrating any payload.

        A cached table built from snapshots at exactly these versions is
        still current: a name's versions never repeat.
        """
        with self._lock:
            entries = self._entries
            return [
                None if entry is None else entry.version
                for entry in map(entries.get, names)
            ]

    def summary(self) -> List[Dict[str, Any]]:
        """Metadata for every entry (name, family, size, error, version...).

        Each row carries ``hydrated`` and ``resident_bytes`` so callers
        can see the residency tier per entry; :meth:`residency` gives the
        aggregated hydrated/cold counts.
        """
        with self._lock:
            entries = list(self._entries.values())
        return [entry.describe() for entry in entries]

    def residency(self) -> Dict[str, int]:
        """Hydrated vs cold entry counts plus approximate resident bytes."""
        with self._lock:
            entries = list(self._entries.values())
        hydrated = sum(1 for entry in entries if entry.is_hydrated)
        return {
            "entries": len(entries),
            "hydrated": hydrated,
            "cold": len(entries) - hydrated,
            "resident_bytes": int(self._resident_bytes),
        }

    def cool(self, name: str) -> int:
        """Demote one entry to its lazy payload; returns the bytes freed.

        Runs under the store lock so no concurrent :meth:`snapshot` can
        observe the half-cooled state; a non-evictable or already-cold
        entry returns 0.  Unknown names also return 0 (the residency
        manager races benignly against :meth:`remove`).
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                return 0
            freed = entry.cool()
            if freed:
                self._resident_add(-freed)
                self._c_evictions.inc()
            return freed

    # ------------------------------------------------------------------ #
    # Persistence (implementation in repro.serve.persistence)
    # ------------------------------------------------------------------ #

    def save(self, path) -> None:
        """Persist the store to directory ``path`` (atomic replace); see
        :func:`repro.serve.persistence.save_store`."""
        from .persistence import save_store

        save_store(self, path)

    @classmethod
    def load(cls, path, lazy: bool = True) -> "SynopsisStore":
        """Load a store persisted by :meth:`save`.

        With ``lazy=True`` entry payloads hydrate on first query; see
        :func:`repro.serve.persistence.load_store`.
        """
        from .persistence import load_store

        return load_store(path, lazy=lazy, store_cls=cls)

    def _adopt(self, entry: StoreEntry, last_version: Optional[int] = None) -> None:
        """Install a fully-formed entry (the persistence load path).

        Keeps the never-repeat version invariant: the recorded last version
        for the name is at least the entry's own version.
        """
        if entry.hydrator is not None:
            # Time first-query hydration.  The wrapper reads the store's
            # current histogram at call time (not capture time), so a
            # later bind_registry() — the router re-homing this store
            # under a shard label — is still observed.  It also does the
            # post-hydration residency bookkeeping (resident-bytes
            # accounting, ResidencyManager LRU touch), and because the
            # wrapper is what hydrate() stashes as the rehydrator, a
            # cooled entry re-accounts on every rehydration too.
            inner = entry.hydrator

            def timed_hydrator(
                target: StoreEntry, _inner=inner, _store=self
            ) -> None:
                with timer(_store._h_hydrate):
                    _inner(target)
                _store._note_hydrated(target)

            entry.hydrator = timed_hydrator
        with self._lock:
            previous = self._entries.get(entry.name)
            self._entries[entry.name] = entry
            floor = entry.version if last_version is None else int(last_version)
            self._last_versions[entry.name] = max(entry.version, floor)
            self._resident_add(
                entry.resident_bytes
                - (previous.resident_bytes if previous is not None else 0)
            )
