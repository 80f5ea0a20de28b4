"""Asynchronous serving front end over a :class:`~repro.serve.router.ShardRouter`.

:class:`AsyncServingFrontend` accepts one *multi-name batch* — a list of
:class:`QueryRequest` objects, each itself a vectorized query (range_sum /
range_mean / point_mass / cdf / quantile / top_k / inner_product /
heavy_hitters) addressed to one entry —
fans the batch out per shard, runs each shard's work on a thread pool
(NumPy releases the GIL in the hot kernels, so shards evaluate truly
concurrently on multicore hosts), and reassembles the answers in request
order.

Within a shard the front end *coalesces*: requests addressed to the same
``(name, kind)`` are concatenated into a single vectorized engine call and
the answer is split back per request.  That amortizes the per-request
Python dispatch across the group — the dominant cost for real serving
traffic, where millions of users each send small batches — and is why the
sharded front end beats a request-at-a-time single engine even on one
core.  A request that fails validation inside a coalesced group is
retried individually, so one bad range cannot poison its neighbors.

Every :class:`QueryResult` carries the store *version* its answer was
computed from.  Versions come from the engine's atomic
``table_versioned`` snapshot, and writes (:meth:`AsyncServingFrontend.extend`
/ :meth:`~AsyncServingFrontend.refresh`) run on the same thread pool
holding the target shard's write lock — so a streaming refresh can never
race a query against a half-bumped entry, and every answer is
attributable to one consistent ``(name, version)`` snapshot.

Every request is routed to the one shard its entry lives on.  Because
``ShardRouter.migrate`` can move an entry between the route decision and
the evaluation, a miss on the routed shard re-resolves against the
*current* map and retries there, so live migration never drops a query.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.jsonlog import SlowQueryLog
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceContext, span
from .persistence import StoreCorruptionError
from .router import Shard, ShardRouter
from .store import StoreEntry

__all__ = ["QUERY_KINDS", "AsyncServingFrontend", "QueryRequest", "QueryResult"]

# kind -> expected args shape.  The single source of truth: arities
# (QUERY_KINDS) and error-message forms both derive from it, so a new
# kind cannot update one and silently miss the other.
_ARG_FORMS: Dict[str, str] = {
    "range_sum": "(a, b)",
    "range_mean": "(a, b)",
    "point_mass": "(x,)",
    "cdf": "(x,)",
    "quantile": "(q,)",
    "top_k": "(m,)",
    # args = (name_b,): the second stored synopsis to pair with.  Routed
    # by name_a's shard; the pairing itself may cross shards.
    "inner_product": "(name_b,)",
    # args = (phi,): sliding-window heavy hitters of a windowed
    # streaming entry (answered by the live learner, not a prefix table).
    "heavy_hitters": "(phi,)",
    # Group-by kinds: ``name`` addresses a member *set* — a registered
    # cohort name, a comma-separated name list, or one entry name (see
    # ShardRouter.resolve_members).  The answer's ``version`` is a
    # ``{member: version}`` dict, one snapshot version per member.
    "group_range_sum": "(a, b)",
    "group_range_mean": "(a, b)",
    "group_top_k": "(m,)",
}

# Kinds served by the router's cross-shard group fan-out rather than a
# single shard's engine.
_GROUP_KINDS = ("group_range_sum", "group_range_mean", "group_top_k")

# kind -> number of positional query arguments
QUERY_KINDS: Dict[str, int] = {
    kind: sum(1 for name in form.strip("()").split(",") if name.strip())
    for kind, form in _ARG_FORMS.items()
}

# Kinds whose array arguments can be concatenated across requests and the
# stacked answer split back per request.  top_k returns a bucket list per
# request (inner_product pairs two entries, heavy_hitters returns a
# hitter list from the live learner), so those always evaluate
# individually.
_COALESCIBLE = ("range_sum", "range_mean", "point_mass", "cdf", "quantile")

_REQUEST_ERRORS = (KeyError, ValueError, IndexError, TypeError, StoreCorruptionError)


@dataclass(frozen=True)
class QueryRequest:
    """One vectorized query addressed to one entry name."""

    kind: str
    name: str
    args: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ValueError(
                f"unknown query kind {self.kind!r}; "
                f"supported: {', '.join(QUERY_KINDS)}"
            )
        # Normalize args to a tuple of positional arguments up front.  A
        # dict or a string has a len() too, so without this check a
        # request like args={"q": 0.5} or args="ab" would sail past the
        # arity test below only to die deep inside evaluation with a
        # baffling dtype error ("could not convert string to float: 'q'").
        if isinstance(self.args, (str, bytes)) or isinstance(self.args, Mapping):
            raise TypeError(
                f"args must be a tuple of positional arguments "
                f"(e.g. {self._positional_form()}), got "
                f"{type(self.args).__name__} {self.args!r}"
            )
        try:
            object.__setattr__(self, "args", tuple(self.args))
        except TypeError:
            raise TypeError(
                f"args must be a tuple of positional arguments "
                f"(e.g. {self._positional_form()}), got "
                f"{type(self.args).__name__}"
            ) from None
        if len(self.args) != QUERY_KINDS[self.kind]:
            raise ValueError(
                f"{self.kind} takes {QUERY_KINDS[self.kind]} positional "
                f"argument(s) {self._positional_form()}, got {len(self.args)}"
            )

    def _positional_form(self) -> str:
        """The expected ``args`` shape for this kind, for error messages."""
        return _ARG_FORMS[self.kind]


@dataclass
class QueryResult:
    """One answer, tagged with the snapshot version that produced it.

    For group-by kinds ``version`` is a ``{member: version}`` dict — one
    snapshot version per cohort member — instead of a single int.
    """

    index: int
    name: str
    kind: str
    value: Any = None
    version: Any = -1
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _evaluate(table, kind: str, args: Tuple[Any, ...]):
    if kind == "top_k":
        return table.top_k_buckets(int(args[0]))
    return getattr(table, kind)(*args)


class AsyncServingFrontend:
    """Concurrent batched queries and writes over a sharded store.

    Parameters
    ----------
    router:
        The shard router to serve, with one pool thread per shard.  A
        one-shard router is fine; the front end then degenerates to
        coalescing plus a single worker.
    registry:
        Metrics registry to report into; defaults to the router's, so the
        front end's counters live next to the per-shard engine series in
        one exposition document.
    slow_query_log:
        Where batches slower than the threshold get recorded; a default
        100 ms :class:`~repro.obs.jsonlog.SlowQueryLog` if omitted.
    """

    def __init__(
        self,
        router: ShardRouter,
        registry: Optional[MetricsRegistry] = None,
        slow_query_log: Optional[SlowQueryLog] = None,
    ) -> None:
        self.router = router
        self.registry = router.registry if registry is None else registry
        self.slow_log = (
            SlowQueryLog() if slow_query_log is None else slow_query_log
        )
        #: The trace of the most recent batch (REPL / debugging surface).
        self.last_trace: Optional[TraceContext] = None
        self._c_requests = self.registry.counter(
            "frontend_requests_total", "individual query requests accepted"
        )
        self._c_batches = self.registry.counter(
            "frontend_batches_total", "multi-name batches served"
        )
        self._c_coalesced = self.registry.counter(
            "frontend_coalesced_requests_total",
            "requests answered from a >1-request coalesced engine call",
        )
        self._c_errors = self.registry.counter(
            "frontend_request_errors_total",
            "requests that returned a per-request error",
        )
        self._c_migrated_retries = self.registry.counter(
            "frontend_migrated_retries_total",
            "requests re-served on the current shard after a live migration",
        )
        # Batch sizes are counts, not seconds: buckets 1..~1M instead of
        # the latency range.
        self._h_batch_size = self.registry.histogram(
            "frontend_batch_size",
            "requests per batch",
            exp_range=(0, 20),
        )
        self._h_batch_seconds = self.registry.histogram(
            "frontend_batch_seconds", "end-to-end batch latency"
        )
        # Per-shard series, pre-minted so the per-batch hot path never
        # builds a registry key.  These count *requests routed* (before
        # coalescing), so summing across shards must equal
        # frontend_requests_total — the mergeability check the tests pin.
        # A router's shards are fixed at construction (reshard returns a
        # new router), so this list is indexed by shard index.
        self._per_shard = [
            (
                self.registry.histogram(
                    "frontend_shard_seconds",
                    "per-shard evaluation time within a batch",
                    shard=str(shard.index),
                ),
                self.registry.counter(
                    "frontend_shard_requests_total",
                    "requests routed to the shard",
                    shard=str(shard.index),
                ),
            )
            for shard in router.shards
        ]
        self._executor = ThreadPoolExecutor(
            max_workers=router.num_shards, thread_name_prefix="repro-serve"
        )

    # ------------------------------------------------------------------ #
    # Migration drain
    # ------------------------------------------------------------------ #

    def _migration_target(
        self, shard: Shard, name: str, exc: Exception
    ) -> Optional[Shard]:
        """Where to retry after a miss caused by a live migration.

        A KeyError on the routed shard when the *current* map places the
        name elsewhere means the entry moved between routing and
        evaluation — the defining race of ``ShardRouter.migrate``.  Any
        other failure returns None.
        """
        if not isinstance(exc, KeyError):
            return None
        current = self.router.shard_map.shard_of(name)
        if current == shard.index:
            return None
        return self.router.shards[current]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "AsyncServingFrontend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    async def query_batch(
        self, requests: Sequence[QueryRequest]
    ) -> List[QueryResult]:
        """Answer a multi-name batch; results come back in request order.

        Requests are grouped per shard and each shard's group runs as one
        thread-pool job; the ``asyncio.gather`` below is the only
        synchronization point, so slow shards never block fast ones from
        *starting*.  Per-request failures (unknown name, bad range,
        corrupt payload) are reported in ``QueryResult.error`` rather
        than raised, keeping one poisoned request from failing the batch.
        """
        started = time.perf_counter()
        trace = TraceContext("query_batch")
        indexed = list(enumerate(requests))
        self._c_batches.inc()
        self._c_requests.inc(len(indexed))
        self._h_batch_size.observe(max(len(indexed), 1))
        with trace.span("route", requests=len(indexed)):
            shard_of = self.router.shard_map.shard_of
            by_shard: Dict[int, List[Tuple[int, QueryRequest]]] = {}
            group_items: List[Tuple[int, QueryRequest]] = []
            for index, request in indexed:
                if request.kind in _GROUP_KINDS:
                    # Group kinds span shards; they run as their own
                    # pool job instead of landing on any one shard.
                    group_items.append((index, request))
                    continue
                by_shard.setdefault(shard_of(request.name), []).append(
                    (index, request)
                )
        loop = asyncio.get_running_loop()
        jobs = [
            loop.run_in_executor(
                self._executor,
                self._serve_shard,
                self.router.shards[s],
                items,
                trace,
            )
            for s, items in by_shard.items()
        ]
        if group_items:
            jobs.append(
                loop.run_in_executor(
                    self._executor, self._serve_groups, group_items, trace
                )
            )
        gathered = await asyncio.gather(*jobs)
        with trace.span("reassemble"):
            results: List[Optional[QueryResult]] = [None] * len(indexed)
            for shard_results in gathered:
                for result in shard_results:
                    results[result.index] = result
            ordered = [r for r in results if r is not None]
        errors = sum(1 for r in ordered if not r.ok)
        if errors:
            self._c_errors.inc(errors)
        elapsed = time.perf_counter() - started
        self._h_batch_seconds.observe(elapsed)
        self.last_trace = trace
        with trace.bound():  # attach the trace id to the slow-log entry
            self.slow_log.record(
                "query_batch",
                f"batch[{len(indexed)}]",
                elapsed,
                requests=len(indexed),
                shards=len(by_shard),
                errors=errors,
            )
        return ordered

    def serve(self, requests: Sequence[QueryRequest]) -> List[QueryResult]:
        """Synchronous convenience wrapper around :meth:`query_batch`.

        Runs its own event loop, so it must not be called from a
        coroutine — use ``await query_batch(...)`` there.
        """
        return asyncio.run(self.query_batch(requests))

    # ------------------------------------------------------------------ #
    # Writes (serialized by the per-shard write lock)
    # ------------------------------------------------------------------ #

    async def extend(self, name: str, samples: np.ndarray) -> StoreEntry:
        """Absorb a sample batch into a streaming entry, off the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self.router.extend, name, samples
        )

    async def refresh(self, name: str) -> StoreEntry:
        """Force-rebuild a streaming entry, off the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, self.router.refresh, name)

    async def register_auto(
        self, name: str, data, budget, **plan_options: Any
    ) -> StoreEntry:
        """Auto-plan and register ``name`` (see ``ShardRouter.register_auto``),
        off the event loop — candidate builds can take a while.  Planner
        keywords (``families=``, ``k_grid=``, ...) pass through, so the
        front end mirrors the store/router surface 1:1."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor,
            lambda: self.router.register_auto(name, data, budget, **plan_options),
        )

    async def register_many(
        self, named_datasets, budget, **plan_options: Any
    ) -> List[StoreEntry]:
        """Bulk-register a cohort (see ``ShardRouter.register_many``),
        off the event loop — one amortized plan covers the whole batch.
        ``cohort=``, ``families=``, ``k_grid=`` pass through."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor,
            lambda: self.router.register_many(
                named_datasets, budget, **plan_options
            ),
        )

    # ------------------------------------------------------------------ #
    # Group-by evaluation (runs on the thread pool)
    # ------------------------------------------------------------------ #

    def _serve_groups(
        self,
        items: List[Tuple[int, QueryRequest]],
        trace: Optional[TraceContext] = None,
    ) -> List[QueryResult]:
        if trace is not None:
            with trace.bound():
                return self._serve_groups_inner(items)
        return self._serve_groups_inner(items)

    def _serve_groups_inner(
        self, items: List[Tuple[int, QueryRequest]]
    ) -> List[QueryResult]:
        with span("evaluate_groups", requests=len(items)):
            return [self._serve_group_one(index, req) for index, req in items]

    def _serve_group_one(
        self, index: int, request: QueryRequest
    ) -> QueryResult:
        """One group-by request through the router's cross-shard fan-out.

        The result's ``version`` is the per-member ``{name: version}``
        dict, so a caller can attribute every contribution to a
        consistent member snapshot.  Member request counters tick once
        per member, mirroring what N individual reads would record.
        """
        try:
            members = self.router.resolve_members(request.name)
            value, versions = getattr(self.router, request.kind)(
                members, *request.args
            )
        except _REQUEST_ERRORS as exc:
            return QueryResult(
                index=index, name=request.name, kind=request.kind, error=str(exc)
            )
        for member in members:
            self.registry.counter(
                "frontend_entry_requests_total",
                "requests addressed to the entry",
                entry=member,
            ).inc()
        return QueryResult(
            index=index,
            name=request.name,
            kind=request.kind,
            value=value,
            version=versions,
        )

    # ------------------------------------------------------------------ #
    # Per-shard evaluation (runs on the thread pool)
    # ------------------------------------------------------------------ #

    def _serve_shard(
        self,
        shard: Shard,
        items: List[Tuple[int, QueryRequest]],
        trace: Optional[TraceContext] = None,
    ) -> List[QueryResult]:
        # Runs on a pool worker: thread pools do not inherit the event
        # loop task's contextvars, so the batch trace must be re-bound
        # here for the coalesce/evaluate spans (and any slow-log entry
        # recorded downstream) to land on the right request.
        if trace is not None:
            with trace.bound():
                return self._serve_shard_inner(shard, items)
        return self._serve_shard_inner(shard, items)

    def _serve_shard_inner(
        self, shard: Shard, items: List[Tuple[int, QueryRequest]]
    ) -> List[QueryResult]:
        started = time.perf_counter()
        histogram, counter = self._per_shard[shard.index]
        counter.inc(len(items))
        try:
            with span("coalesce", shard=shard.index):
                groups: Dict[Tuple[str, str], List[Tuple[int, QueryRequest]]] = {}
                singles: List[Tuple[int, QueryRequest]] = []
                for index, request in items:
                    # Only scalar/1-D arguments coalesce: stacking happens
                    # along axis 0, so higher-dimensional query arrays
                    # (which the engine accepts) would split back
                    # incorrectly — serve those one by one instead.
                    if request.kind in _COALESCIBLE and all(
                        np.ndim(arg) <= 1 for arg in request.args
                    ):
                        groups.setdefault(
                            (request.name, request.kind), []
                        ).append((index, request))
                    else:
                        singles.append((index, request))
            merged = sum(len(group) for group in groups.values() if len(group) > 1)
            if merged:
                self._c_coalesced.inc(merged)
            # Per-entry request volume, for the hotness tracker.  The
            # engine's per-entry cache series counts *table accesses* —
            # one per coalesced group — so under coalescing it
            # undercounts load by the batch size; this series counts
            # requests.  Looked up (not cached) so removal via
            # ``registry.drop(entry=...)`` stays effective across
            # re-registration.
            request_counts: Dict[str, int] = {}
            for (group_name, _kind), group in groups.items():
                request_counts[group_name] = request_counts.get(
                    group_name, 0
                ) + len(group)
            for _index, request in singles:
                request_counts[request.name] = (
                    request_counts.get(request.name, 0) + 1
                )
            for entry_name, count in request_counts.items():
                self.registry.counter(
                    "frontend_entry_requests_total",
                    "requests addressed to the entry",
                    entry=entry_name,
                ).inc(count)
            with span("evaluate", shard=shard.index, requests=len(items)):
                results: List[QueryResult] = []
                for (name, kind), group in groups.items():
                    if len(group) == 1:
                        results.append(self._serve_one(shard, *group[0]))
                    else:
                        results.extend(
                            self._serve_coalesced(shard, name, kind, group)
                        )
                for index, request in singles:
                    results.append(self._serve_one(shard, index, request))
            return results
        finally:
            histogram.observe(time.perf_counter() - started)

    def _serve_one(
        self, shard: Shard, index: int, request: QueryRequest, _hops: int = 0
    ) -> QueryResult:
        try:
            if request.kind == "heavy_hitters":
                # Answered by the entry's live windowed learner, not a
                # prefix table; the reported version is the entry's
                # current synopsis version (the learner is always ahead
                # of or equal to it).
                value = shard.engine.heavy_hitters(
                    request.name, float(request.args[0])
                )
                version = shard.store[request.name].version
                return QueryResult(
                    index=index,
                    name=request.name,
                    kind=request.kind,
                    value=value,
                    version=version,
                )
            version, table = shard.engine.table_versioned(request.name)
            start = time.perf_counter()
            try:
                if request.kind == "inner_product":
                    # The partner entry may live on another shard; pair
                    # its table from that shard's engine.  The reported
                    # version is the primary (routed) entry's snapshot.
                    partner = str(request.args[0])
                    value = table.inner_product(
                        self.router.table_versioned(partner)[1]
                    )
                else:
                    value = _evaluate(table, request.kind, request.args)
            finally:
                # The direct-table path skips the engine's query methods,
                # so feed its per-kind latency series explicitly.
                shard.engine.observe_query(
                    request.kind, time.perf_counter() - start
                )
        except _REQUEST_ERRORS as exc:
            retry = self._migration_target(shard, request.name, exc)
            if retry is not None and _hops < 4:
                self._c_migrated_retries.inc()
                return self._serve_one(retry, index, request, _hops + 1)
            return QueryResult(
                index=index, name=request.name, kind=request.kind, error=str(exc)
            )
        return QueryResult(
            index=index,
            name=request.name,
            kind=request.kind,
            value=value,
            version=version,
        )

    def _serve_coalesced(
        self,
        shard: Shard,
        name: str,
        kind: str,
        group: List[Tuple[int, QueryRequest]],
        _hops: int = 0,
    ) -> List[QueryResult]:
        """One vectorized call for same-(name, kind) requests, split back.

        All answers in the group share one table snapshot, hence one
        version.  If the stacked call fails (one request holds an invalid
        position), every request is retried individually so only the
        offender reports an error.
        """
        try:
            version, table = shard.engine.table_versioned(name)
        except _REQUEST_ERRORS as exc:
            retry = self._migration_target(shard, name, exc)
            if retry is not None and _hops < 4:
                self._c_migrated_retries.inc()
                return self._serve_coalesced(retry, name, kind, group, _hops + 1)
            return [
                QueryResult(index=i, name=name, kind=kind, error=str(exc))
                for i, _ in group
            ]
        # Broadcast each request's own arguments against each other BEFORE
        # concatenating across requests: a request like (scalar a, array b)
        # must occupy the same positions in every stacked argument, or
        # neighbors' a/b pairs would silently cross.
        per_request = []
        for _, req in group:
            try:
                broadcast = np.broadcast_arrays(
                    *[np.atleast_1d(np.asarray(arg)) for arg in req.args]
                )
            except _REQUEST_ERRORS:
                return [self._serve_one(shard, i, r) for i, r in group]
            per_request.append(broadcast)
        lengths = [broadcast[0].size for broadcast in per_request]
        scalar = [
            all(np.ndim(arg) == 0 for arg in req.args) for _, req in group
        ]
        stacked_args = tuple(
            np.concatenate([broadcast[position] for broadcast in per_request])
            for position in range(QUERY_KINDS[kind])
        )
        start = time.perf_counter()
        try:
            stacked = _evaluate(table, kind, stacked_args)
        except _REQUEST_ERRORS:
            return [self._serve_one(shard, i, req) for i, req in group]
        finally:
            # One stacked evaluation = one engine-side observation; the
            # coalescing win shows up as fewer, slightly fatter samples.
            shard.engine.observe_query(kind, time.perf_counter() - start)
        results = []
        offsets = np.cumsum([0] + lengths)
        for g, (index, _) in enumerate(group):
            # Copy the slice out of the stacked group answer: a view would
            # pin the whole group's array alive for as long as any one
            # result is retained.
            value = stacked[offsets[g] : offsets[g + 1]]
            if scalar[g]:
                value = value[0].item()
            elif len(group) > 1:
                value = value.copy()
            results.append(
                QueryResult(
                    index=index, name=name, kind=kind, value=value, version=version
                )
            )
        return results
