"""Asynchronous serving front end over a :class:`~repro.serve.router.ShardRouter`.

:class:`AsyncServingFrontend` accepts one *multi-name batch* — a list of
:class:`QueryRequest` objects, each itself a vectorized query (range_sum /
range_mean / point_mass / cdf / quantile / top_k / inner_product /
heavy_hitters) addressed to one entry — and answers it column by column:

* One Python pass groups the batch by ``(entry, kind)`` and routes each
  group, not each request, to the shard its entry lives on.
* A shard job fetches each touched entry's table once
  (``table_versioned``), stacks the tables for this batch alone
  (:meth:`~repro.serve.engine.PrefixTable.stack`, per-entry key offsets),
  and answers all its requests of one stackable kind (range_sum /
  range_mean / point_mass / cdf / quantile) with one call of the stacked
  table: per kind, an entry-code column plus one argument column per
  position.  Scalar requests pack into those columns with no NumPy call
  per request and unpack with one ``tolist()``; a 1-D request broadcasts
  its own arguments before stacking and copies its slice back out.  A
  table of more than ``_STACK_PIECES`` pieces is not copied into the
  stack and answers its own calls.  N-d or empty arguments and the kinds
  that do not stack (top_k, inner_product, heavy_hitters) are served one
  request at a time.
* A stacked call takes its kind's one check's row mask
  (:meth:`~repro.serve.engine.PrefixTable.check`): a request with a
  rejected row leaves the call and is served on its own, so it fails with
  the message it gets alone, and the rows left pass the very check the
  call runs.
* A *light* batch runs all its shard jobs in order inside one pool job:
  per-request Python, not kernel time, dominates such a batch, and two
  pool threads would only take turns on the interpreter lock.  Only when
  at least two shard jobs each carry :data:`FAN_OUT_POINTS` query points
  does each shard job run as its own pool job, so that the shards'
  NumPy kernels (which release the GIL) overlap on multicore hosts.

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
from functools import partial
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.jsonlog import SlowQueryLog
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceContext, span
from .engine import GROUP_QUERY_KINDS, PrefixTable
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


# kind -> number of positional query arguments
QUERY_KINDS: Dict[str, int] = {
    kind: sum(1 for name in form.strip("()").split(",") if name.strip())
    for kind, form in _ARG_FORMS.items()
}

# Kinds whose requests stack: a shard job answers all its requests of one
# of these kinds with one call of the stacked PrefixTable, and splits the
# answer back per request.  top_k returns a bucket list per request
# (inner_product pairs two entries, heavy_hitters returns a hitter list
# from the live learner), so those always evaluate individually.
_STACKABLE = ("range_sum", "range_mean", "point_mass", "cdf", "quantile")

# Arguments of these types are scalars that pack into one column with no
# NumPy call per request.  Anything else (0-d arrays included) goes
# through the per-request broadcast.
_SCALAR_TYPES = (int, float, np.generic)

# Column dtypes (bool, int, uint, float) a stacked call checks row by row.
_NUMERIC = "biuf"

#: Query points per shard job at which a batch fans out.  A scalar
#: request counts one point, an array request its broadcast length, a
#: request of a kind that does not stack one.  When at least two shard
#: jobs each carry this many points, every shard job runs as its own pool
#: job; otherwise one pool job runs them all in order.  Set from the
#: crossover measured with one stacked call per (shard job, kind), on 2
#: CPUs over 2 shards of 16 entries (median fan-out time / one-thread
#: time): on 17-piece tables 1.66 at ~2k points per shard job, 1.12 at
#: ~8k, 0.76-0.94 at ~12k and 0.71-0.91 at ~16k for array requests, and
#: 0.86-0.95 at ~16k for scalar ones (1.25, 1.13 and 0.92 at ~12k); on
#: 16k-piece tables fan-out won from ~2k points up (0.47-0.77).  Two
#: shard jobs at once hold two working sets: on vector-rw (~16k points
#: per shard job) fanning out raised peak RSS by ~1.8 MB.
FAN_OUT_POINTS = 16_384

#: Pieces above which a table is not copied into its shard job's stack.
#: The stack is built anew each batch and copies every stacked piece,
#: while a table answered by calls of its own pays a fixed cost per call.
#: Measured on 2 CPUs over 2 shards of 16 entries (n = 16,384), as the
#: time with every table stacked over the time with every table on its
#: own: for 1,500 scalar requests 0.54, 0.64, 0.63, 0.97 and 1.66 at 64,
#: 256, 1,024, 4,096 and 16,384 pieces a table; for 512 requests of 32
#: ranges 1.03, 1.06, 1.07, 1.25 and 1.59.
_STACK_PIECES = 1024

_REQUEST_ERRORS = (KeyError, ValueError, IndexError, TypeError, StoreCorruptionError)


@dataclass(frozen=True)
class QueryRequest:
    """One vectorized query addressed to one entry name."""

    kind: str
    name: str
    args: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        arity = QUERY_KINDS.get(self.kind)
        if arity is None:
            raise ValueError(
                f"unknown query kind {self.kind!r}; "
                f"supported: {', '.join(QUERY_KINDS)}"
            )
        # Normalize args to a tuple of positional arguments up front.  A
        # dict or a string has a len() too, so without this check a
        # request like args={"q": 0.5} or args="ab" would sail past the
        # arity test below only to die deep inside evaluation with a
        # baffling dtype error ("could not convert string to float: 'q'").
        # A plain tuple, the common case, needs none of it.
        if type(self.args) is not tuple:
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
        if len(self.args) != arity:
            raise ValueError(
                f"{self.kind} takes {arity} positional "
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
        return table.top_k_buckets(args[0])
    return getattr(table, kind)(*args)


def _run_in_order(
    jobs: List[Callable[[], List[QueryResult]]]
) -> List[List[QueryResult]]:
    """A light batch's one pool job: every shard job, one after another."""
    return [job() for job in jobs]


class AsyncServingFrontend:
    """Concurrent batched queries and writes over a sharded store.

    A batch is grouped by ``(entry, kind)`` and routed once per group;
    each shard's groups form one shard job, which answers each stackable
    kind with one call of its entries' stacked table.  A light batch runs
    its shard jobs in order as one pool job; a batch in which at least two
    shard jobs each carry :data:`FAN_OUT_POINTS` query points runs one
    pool job per shard.  Writes and group-by queries also run on the
    pool, so the event loop never evaluates anything itself.

    Parameters
    ----------
    router:
        The shard router to serve.  The pool holds as many threads as
        the router has shards, so a heavy batch can run every shard job
        at once beside writes.  A one-shard router is fine; the front end
        then degenerates to coalescing plus a single worker.
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

        The batch is grouped by ``(entry, kind)`` in one pass and each
        group is routed once.  A light batch runs every shard job in
        order as one thread-pool job; a heavy one (see
        :data:`FAN_OUT_POINTS`) runs one job per shard, and the
        ``asyncio.gather`` below is then the only synchronization point,
        so slow shards never block fast ones from *starting*.
        Per-request failures (unknown name, bad range, corrupt payload)
        are reported in ``QueryResult.error`` rather than raised,
        keeping one poisoned request from failing the batch.
        """
        started = time.perf_counter()
        trace = TraceContext("query_batch")
        requests = list(requests)
        count = len(requests)
        self._c_batches.inc()
        self._c_requests.inc(count)
        self._h_batch_size.observe(max(count, 1))
        with trace.span("route", requests=count):
            by_shard, points, group_items = self._route(requests)
            jobs: List[Callable[[], List[QueryResult]]] = [
                partial(
                    self._serve_shard,
                    self.router.shards[s],
                    requests,
                    groups,
                    trace,
                )
                for s, groups in by_shard.items()
            ]
            if group_items:
                # Group kinds span shards; they run as their own job
                # instead of landing on any one shard.
                jobs.append(partial(self._serve_groups, group_items, trace))
            fan_out = (
                sum(1 for p in points.values() if p >= FAN_OUT_POINTS) >= 2
            )
        loop = asyncio.get_running_loop()
        if fan_out:
            gathered = await asyncio.gather(
                *(loop.run_in_executor(self._executor, job) for job in jobs)
            )
        else:
            gathered = await loop.run_in_executor(
                self._executor, _run_in_order, jobs
            )
        with trace.span("reassemble"):
            results: List[Optional[QueryResult]] = [None] * count
            for shard_results in gathered:
                for result in shard_results:
                    results[result.index] = result
            ordered = [r for r in results if r is not None]
        errors = sum(1 for r in ordered if r.error is not None)
        if errors:
            self._c_errors.inc(errors)
        elapsed = time.perf_counter() - started
        self._h_batch_seconds.observe(elapsed)
        self.last_trace = trace
        with trace.bound():  # attach the trace id to the slow-log entry
            self.slow_log.record(
                "query_batch",
                f"batch[{count}]",
                elapsed,
                requests=count,
                shards=len(by_shard),
                errors=errors,
            )
        return ordered

    def _route(
        self, requests: Sequence[QueryRequest]
    ) -> Tuple[
        Dict[int, List[_Group]], Dict[int, int], List[Tuple[int, QueryRequest]]
    ]:
        """Group the batch by ``(entry, kind)`` and route each group once.

        Returns the groups per shard index, the query points per shard
        index (for the fan-out rule), and the group-by requests, which
        are served across shards instead.
        """
        keyed: Dict[Tuple[str, str], List[int]] = {}
        group_items: List[Tuple[int, QueryRequest]] = []
        for index, request in enumerate(requests):
            kind = request.kind
            if kind in GROUP_QUERY_KINDS:
                group_items.append((index, request))
                continue
            key = (request.name, kind)
            indices = keyed.get(key)
            if indices is None:
                keyed[key] = [index]
            else:
                indices.append(index)
        shard_of = self.router.shard_map.shard_of
        by_shard: Dict[int, List[_Group]] = {}
        points: Dict[int, int] = {}
        for (name, kind), indices in keyed.items():
            group = _Group(name, kind, indices, [requests[i].args for i in indices])
            shard = shard_of(name)
            by_shard.setdefault(shard, []).append(group)
            points[shard] = points.get(shard, 0) + group.points
        return by_shard, points, group_items

    def serve(self, requests: Sequence[QueryRequest]) -> List[QueryResult]:
        """Synchronous convenience wrapper around :meth:`query_batch`.

        Runs its own event loop, so it must not be called from a
        coroutine — use ``await query_batch(...)`` there.  The loop is a
        bare one, not ``asyncio.run``'s: on the main thread that swaps
        the SIGINT handler, and CPython formats the finished task, its
        first answers included, each time it reads the handler back
        (about 18 ms per batch whose first answers are 256-point arrays).
        """
        loop = asyncio.new_event_loop()
        try:
            return loop.run_until_complete(self.query_batch(requests))
        finally:
            loop.close()

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
        """One group-by request through the router's cohort table.

        The request's target goes to the router as given, so a named
        cohort is answered from the router's cached cohort table.  The
        result's ``version`` is the per-member ``{name: version}`` dict,
        so a caller can attribute every contribution to a consistent
        member snapshot.  No member's request counter ticks: the answer
        is evaluated here, on the front end's group job, not on any
        member's shard.
        """
        try:
            value, versions = getattr(self.router, request.kind)(
                request.name, *request.args
            )
        except _REQUEST_ERRORS as exc:
            return QueryResult(
                index=index, name=request.name, kind=request.kind, error=str(exc)
            )
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
        requests: Sequence[QueryRequest],
        groups: List[_Group],
        trace: Optional[TraceContext] = None,
    ) -> List[QueryResult]:
        # Runs on a pool worker: thread pools do not inherit the event
        # loop task's contextvars, so the batch trace must be re-bound
        # here for the coalesce/evaluate spans (and any slow-log entry
        # recorded downstream) to land on the right request.
        if trace is not None:
            with trace.bound():
                return self._serve_shard_inner(shard, requests, groups)
        return self._serve_shard_inner(shard, requests, groups)

    def _serve_shard_inner(
        self,
        shard: Shard,
        requests: Sequence[QueryRequest],
        groups: List[_Group],
    ) -> List[QueryResult]:
        started = time.perf_counter()
        histogram, counter = self._per_shard[shard.index]
        routed = sum(len(group.indices) for group in groups)
        counter.inc(routed)
        try:
            with span("coalesce", shard=shard.index):
                stackable: List[_Group] = []
                singles: List[int] = []
                for group in groups:
                    if group.kind in _STACKABLE:
                        stackable.append(group)
                    else:
                        singles.extend(group.indices)
                versions, calls, alone = _gather(shard, stackable)
                singles.extend(alone)
            with span("evaluate", shard=shard.index, requests=routed):
                results: List[QueryResult] = []
                for call in calls:
                    results.extend(self._serve_call(shard, versions, call, requests))
                for index in singles:
                    results.append(self._serve_one(shard, index, requests[index]))
            return results
        finally:
            histogram.observe(time.perf_counter() - started)

    def _serve_call(
        self,
        shard: Shard,
        versions: Dict[str, int],
        call: "_Call",
        requests: Sequence[QueryRequest],
    ) -> List[QueryResult]:
        """One stacked kernel call for one kind, unpacked per request.

        A request with a row the kind's check rejects is served alone, so
        it fails as it does alone; the rows left pass the call's own check.
        """
        table, kind = call.table, call.kind
        columns, entries = call.columns, call.entries
        units = call.scalar_rows + len(call.arrays)
        checked = table.check(kind, columns, entries)
        solo = [False] * units
        if checked.error is not None:
            unit_of_row = np.repeat(np.arange(units), call.lengths())
            bad = np.zeros(units, dtype=bool)
            bad[unit_of_row[checked.bad]] = True
            keep = ~bad[unit_of_row]
            columns = [column[keep] for column in columns]
            entries = entries[keep]
            solo = bad.tolist()
        served = units - sum(solo)
        if served > 1:
            self._c_coalesced.inc(served)
        start = time.perf_counter()
        try:
            stacked = getattr(table, kind)(*columns, entries)
        finally:
            # One stacked evaluation = one engine-side observation.
            shard.engine.observe_query(kind, time.perf_counter() - start)
        results: List[QueryResult] = []
        scalars = stacked[: call.scalar_rows - sum(solo[: call.scalar_rows])].tolist()
        row = unit = 0
        for group in call.groups:
            name, indices = group.name, group.indices
            flags = solo[unit : unit + len(indices)]
            unit += len(indices)
            if any(flags):
                results.extend(
                    self._serve_one(shard, i, requests[i])
                    for i, alone in zip(indices, flags)
                    if alone
                )
                indices = [i for i, alone in zip(indices, flags) if not alone]
            version = versions[name]
            results.extend(
                QueryResult(i, name, kind, value, version)
                for i, value in zip(indices, scalars[row : row + len(indices)])
            )
            row += len(indices)
        for (index, name, rows, scalar), alone in zip(call.arrays, solo[unit:]):
            if alone:
                results.append(self._serve_one(shard, index, requests[index]))
                continue
            piece = stacked[row : row + rows[0].size]
            row += rows[0].size
            # Copied out: a view would pin the whole call's answer alive
            # for as long as any one result is retained.
            value = piece[0].item() if scalar else piece.copy()
            results.append(QueryResult(index, name, kind, value, versions[name]))
        return results

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


class _Group:
    """The requests of one batch addressed to one ``(entry, kind)``."""

    __slots__ = ("name", "kind", "indices", "args", "scalar", "points")

    def __init__(
        self, name: str, kind: str, indices: List[int], args: List[Tuple[Any, ...]]
    ) -> None:
        self.name = name
        self.kind = kind
        self.indices = indices
        self.args = args
        # Scalar groups pack one column per argument position without a
        # NumPy call per request.
        self.scalar = kind in _STACKABLE and all(
            issubclass(cls, _SCALAR_TYPES)
            for cls in set(map(type, chain.from_iterable(args)))
        )
        if self.scalar or kind not in _STACKABLE:
            self.points = len(indices)
        else:
            self.points = sum(_broadcast_size(request) for request in args)


def _broadcast_size(args: Tuple[Any, ...]) -> int:
    """A request's query points: its broadcast length (1 if it does not
    broadcast; the request then fails on its own)."""
    try:
        return np.broadcast(*args).size
    except ValueError:
        return 1


class _Call:
    """One kind's stackable requests of a shard job, as columns.

    The rows are the requests of the scalar ``groups`` first, one row
    each in group order, then the broadcast rows of each of ``arrays``'
    ``(index, name, rows, scalar answer)``.  ``columns`` holds one array
    per argument position and ``entries`` every row's entry in ``table``.
    """

    __slots__ = (
        "kind", "table", "groups", "arrays", "columns", "entries", "scalar_rows"
    )

    def __init__(
        self,
        kind: str,
        table: PrefixTable,
        groups: List[_Group],
        scalar_columns: List[np.ndarray],
        arrays: List[Tuple[int, str, List[np.ndarray], bool]],
        codes: Dict[str, int],
    ) -> None:
        self.kind = kind
        self.table = table
        self.groups = groups
        self.arrays = arrays
        self.scalar_rows = sum(len(group.indices) for group in groups)
        parts = [scalar_columns] if groups else []
        parts.extend(rows for _, _, rows, _ in arrays)
        self.columns = [
            np.concatenate([part[position] for part in parts])
            if len(parts) > 1
            else parts[0][position]
            for position in range(QUERY_KINDS[kind])
        ]
        names = [group.name for group in groups] + [name for _, name, _, _ in arrays]
        counts = [len(group.indices) for group in groups]
        counts.extend(rows[0].size for _, _, rows, _ in arrays)
        self.entries = np.repeat(
            np.array([codes[name] for name in names], dtype=np.intp), counts
        )

    def lengths(self) -> List[int]:
        """Rows per request, in row order."""
        return [1] * self.scalar_rows + [rows[0].size for _, _, rows, _ in self.arrays]


def _gather(
    shard: Shard, groups: List[_Group]
) -> Tuple[Dict[str, int], List[_Call], List[int]]:
    """A shard job's stackable requests as one call per kind.

    Every touched entry's table is fetched once, with ``table_versioned``,
    and the tables are stacked with :meth:`PrefixTable.stack` for this
    batch alone: an entry re-registered between two batches would miss
    any cache keyed by version.  A table of more than
    :data:`_STACK_PIECES` pieces is not copied into the stack; it answers
    its entry's requests with calls of its own.  Returns each fetched
    entry's version, the calls, and the requests to serve alone: those
    of an entry whose fetch failed (each then gets the error, or its
    answer from the shard the entry moved to), array requests that
    cannot stack, and scalar columns that do not pack numerically.
    """
    versions: Dict[str, int] = {}
    alone: List[int] = []
    by_name: Dict[str, List[_Group]] = {}
    for group in groups:
        by_name.setdefault(group.name, []).append(group)
    # Stack 0 holds every table of at most _STACK_PIECES pieces; each
    # larger table is a stack of its own.
    stacks: List[List[PrefixTable]] = [[]]
    codes: Dict[str, int] = {}
    by_call: Dict[Tuple[int, str], Tuple[List[_Group], list]] = {}
    for name, mine in by_name.items():
        try:
            versions[name], table = shard.engine.table_versioned(name)
        except _REQUEST_ERRORS:
            alone.extend(i for group in mine for i in group.indices)
            continue
        home = 0
        if table.num_pieces > _STACK_PIECES:
            home = len(stacks)
            stacks.append([])
        codes[name] = len(stacks[home])
        stacks[home].append(table)
        for group in mine:
            scalars, arrays = by_call.setdefault((home, group.kind), ([], []))
            if group.scalar:
                scalars.append(group)
                continue
            for index, args in zip(group.indices, group.args):
                flat = _flat_rows(args)
                if flat is None:
                    alone.append(index)
                else:
                    arrays.append((index, name, *flat))
    tables = [PrefixTable.stack(members) if members else None for members in stacks]
    calls: List[_Call] = []
    for (home, kind), (scalars, arrays) in by_call.items():
        columns = _scalar_columns(scalars) if scalars else []
        if columns is None:
            alone.extend(i for group in scalars for i in group.indices)
            scalars = []
        if scalars or arrays:
            calls.append(_Call(kind, tables[home], scalars, columns, arrays, codes))
    return versions, calls, alone


def _scalar_columns(groups: List[_Group]) -> Optional[List[np.ndarray]]:
    """Scalar groups' arguments packed into one column per position, or
    None when a column is not numeric (those requests are served alone)."""
    try:
        columns = [
            np.array(column) for column in zip(*(a for g in groups for a in g.args))
        ]
    except _REQUEST_ERRORS + (OverflowError,):
        return None
    if any(column.dtype.kind not in _NUMERIC for column in columns):
        return None
    return columns


def _flat_rows(args: Tuple[Any, ...]) -> Optional[Tuple[List[np.ndarray], bool]]:
    """A request's arguments broadcast against each other into equal 1-D
    numeric arrays, and whether its answer is a scalar; None when it must
    be served alone.

    Each request broadcasts *before* stacking: a request like (scalar a,
    array b) must occupy the same rows in every column, or neighbours'
    a/b pairs would silently cross.  N-d arguments would split back
    wrongly, and a request with no points still fails alone on an entry
    its kind cannot serve, so both are served alone.
    """
    try:
        arrays = [np.asarray(arg) for arg in args]
    except _REQUEST_ERRORS:
        return None
    shape = arrays[0].shape
    same = scalar = True
    for array in arrays:
        if array.ndim > 1 or array.dtype.kind not in _NUMERIC:
            return None
        scalar = scalar and not array.ndim
        same = same and array.shape == shape
    if same and len(shape) == 1:
        rows = arrays
    else:
        try:
            rows = np.broadcast_arrays(*[np.atleast_1d(a) for a in arrays])
        except ValueError:
            return None
    return (rows, scalar) if rows[0].size else None
