"""Span recording for the traced benchmark run, installed from outside.

The traced run wraps the public entry points of each layer with a span
recorder.  Each wrapper is installed where its caller looks the name up
(a module global such as ``repro.serve.builders.construct_histogram``, or
a class attribute such as ``PrefixTable.range_sum``), and every original
is restored by :meth:`Tracer.close`.  Nothing under ``src/`` knows it is
being traced.

A span records its name, start, end, parent, batch id, thread, wall time
and ``time.thread_time()`` CPU time.  CPU is recorded because in the front
end's pool threads a wall span also counts the time a thread waited for
the interpreter lock.  Spans stay in memory until the run ends.

Parents come from a per-thread stack.  A span opened on a pool thread
with an empty stack attaches to the open batch span: the benchmark has a
single client, so at most one batch is open at a time.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    """One timed call.  ``count`` is its unit of work where one is defined:
    answers of a kernel call, requests of a batch, members of a group
    query, series of a registration, input points of a construction."""

    __slots__ = ("id", "name", "parent", "batch", "thread", "start", "end",
                 "cpu", "count")

    def __init__(self, id: int, name: str, parent: Optional[int],
                 batch: Optional[int], count: int) -> None:
        self.id = id
        self.name = name
        self.parent = parent
        self.batch = batch
        self.count = count
        self.thread = threading.get_ident()
        self.start = time.perf_counter()
        self.end = 0.0
        self.cpu = time.thread_time()

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``install()`` patches the layers, ``close()`` restores."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_batch: Optional[Span] = None
        self._patches: List[Tuple[Any, str, Any]] = []
        #: While set, wrappers call straight through: the benchmark's own
        #: answer checks use the same public functions it traces.
        self.is_paused = False

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        self.is_paused = True
        try:
            yield
        finally:
            self.is_paused = False

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, count: int = 0) -> Span:
        stack = self._stack()
        batch = self._open_batch
        if stack:
            parent = stack[-1].id
        else:
            parent = batch.id if batch is not None else None
        with self._lock:
            span = Span(len(self.spans), name, parent,
                        batch.id if batch is not None else None, count)
            self.spans.append(span)
        stack.append(span)
        return span

    def close_span(self, span: Span) -> None:
        span.cpu = time.thread_time() - span.cpu
        span.end = time.perf_counter()
        self._stack().pop()

    def span(self, name: str, count: int = 0) -> "_SpanContext":
        return _SpanContext(self, name, count, is_batch=False)

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_function(
        self,
        owner: Any,
        attr: str,
        name: str,
        count: Optional[Callable[..., int]] = None,
        batch: bool = False,
    ) -> None:
        """Wrap a module-level function or a plain method in a span."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.is_paused:
                return original(*args, **kwargs)
            work = count(*args, **kwargs) if count is not None else 0
            with _SpanContext(tracer, name, work, is_batch=batch):
                return original(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def wrap_classmethod(self, owner: Any, attr: str, name: str) -> None:
        function = owner.__dict__[attr].__func__
        tracer = self

        @functools.wraps(function)
        def wrapper(cls: Any, *args: Any, **kwargs: Any) -> Any:
            if tracer.is_paused:
                return function(cls, *args, **kwargs)
            with _SpanContext(tracer, name, 0, is_batch=False):
                return function(cls, *args, **kwargs)

        self.patch(owner, attr, classmethod(wrapper))

    def close(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _SpanContext:
    __slots__ = ("tracer", "name", "count", "is_batch", "span")

    def __init__(
        self, tracer: Tracer, name: str, count: int, is_batch: bool
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.count = count
        self.is_batch = is_batch

    def __enter__(self) -> Span:
        self.span = self.tracer.open(self.name, self.count)
        if self.is_batch:
            self.tracer._open_batch = self.span
        return self.span

    def __exit__(self, *exc_info: Any) -> None:
        if self.is_batch:
            self.tracer._open_batch = None
        self.tracer.close_span(self.span)


# --------------------------------------------------------------------- #
# Installing the layer wrappers
# --------------------------------------------------------------------- #

#: The PrefixTable query methods the workloads reach: the engine kernel
#: boundary.  None of them calls another, so each span is one kernel call.
KERNEL_METHODS = ("range_sum", "cdf", "quantile", "top_k_buckets")

#: Construction algorithms other than Algorithm 1 (``construct_histogram``,
#: the paper's merging), as the builder registry's functions call them:
#: the other families the planner may probe.
OTHER_CONSTRUCTION = ("construct_fast_histogram",
                      "construct_hierarchical_histogram", "dual_histogram",
                      "gks_histogram", "v_optimal_histogram",
                      "wavelet_synopsis", "construct_piecewise_polynomial")


def _answers(table: Any, *args: Any, **kwargs: Any) -> int:
    # The first query argument sizes the answer (top_k's m is a scalar).
    return int(getattr(args[0], "size", 1)) if args else 1


def _points(q: Any, *args: Any, **kwargs: Any) -> int:
    return int(getattr(q, "sparsity", getattr(q, "size", 0)))


def _members(router: Any, names: Any, *args: Any, **kwargs: Any) -> int:
    return len(router.resolve_members(names))


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics are read from."""
    from repro.sampling import windowed
    from repro.serve import builders, engine, frontend, planner, router, store

    Frontend = frontend.AsyncServingFrontend
    tracer.wrap_function(
        Frontend, "serve", "frontend.serve", batch=True,
        count=lambda frontend, requests: len(requests),
    )
    tracer.wrap_function(Frontend, "_serve_shard", "frontend.pool_job")
    tracer.wrap_function(Frontend, "_serve_groups", "frontend.pool_job")

    Table = engine.PrefixTable
    for method in KERNEL_METHODS:
        tracer.wrap_function(Table, method, "engine.kernel", count=_answers)
    tracer.wrap_classmethod(Table, "from_synopsis", "engine.table_build")

    Router = router.ShardRouter
    for method in ("group_range_sum", "group_top_k"):
        tracer.wrap_function(Router, method, "router.group", count=_members)
    tracer.wrap_function(Router, "register_many", "router.register_many",
                         count=lambda router, named, *a, **k: len(named))
    tracer.wrap_function(Router, "register", "router.register")
    tracer.wrap_function(Router, "extend", "router.extend")
    tracer.wrap_function(Router, "save", "persistence.save")
    tracer.wrap_classmethod(Router, "load", "persistence.load")
    tracer.wrap_function(router, "plan_cohort", "planner.plan_cohort",
                         count=lambda named, *a, **k: len(named))

    tracer.wrap_function(store.SynopsisStore, "refresh", "store.refresh")
    original_hydrate = store.StoreEntry.__dict__["hydrate"]

    def hydrate(entry: Any) -> None:
        # hydrate() runs on every synopsis access; only a real payload
        # read is a persistence span.
        if entry.hydrator is None or tracer.is_paused:
            return original_hydrate(entry)
        with tracer.span("persistence.hydrate"):
            original_hydrate(entry)

    tracer.patch(store.StoreEntry, "hydrate", hydrate)

    for module in (planner, store):
        tracer.wrap_function(module, "build_synopsis", "builders.build")
    tracer.wrap_function(planner, "build_synopsis_many", "builders.build")
    tracer.wrap_function(builders, "construct_histogram", "core.merging",
                         count=_points)
    for name in OTHER_CONSTRUCTION:
        tracer.wrap_function(builders, name, "core.other", count=_points)

    tracer.wrap_function(windowed.WindowedStreamLearner, "extend",
                         "sampling.extend")


# --------------------------------------------------------------------- #
# Reading the spans
# --------------------------------------------------------------------- #


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class SpanIndex:
    """Children, self time and per-name sums over a finished span list."""

    def __init__(self, spans: List[Span]) -> None:
        self.spans = spans
        self.children: Dict[int, List[Span]] = {}
        for span in spans:
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(span)

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def self_cpu(self, span: Span) -> float:
        """CPU minus the CPU of same-thread children (nested on the stack)."""
        return span.cpu - sum(
            child.cpu
            for child in self.children.get(span.id, ())
            if child.thread == span.thread
        )

    def self_wall(self, span: Span) -> float:
        """Wall time minus the union of all child intervals."""
        kids = self.children.get(span.id, ())
        return span.wall - _union_length([(c.start, c.end) for c in kids])

    def subtree_cpu(self, span: Span) -> float:
        """CPU of a span plus every descendant on other threads."""
        total = span.cpu
        for child in self.children.get(span.id, ()):
            if child.thread != span.thread:
                total += self.subtree_cpu(child)
            else:
                total += self.subtree_cpu(child) - child.cpu
        return total


def _ancestors(by_id: Dict[int, Span], span: Span) -> Iterator[Span]:
    while span.parent is not None:
        span = by_id[span.parent]
        yield span


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Every span-derived per-layer metric (0 where a layer did not run).

    Read metrics are taken over ``frontend.serve`` batches; write shares
    over the write spans (``router.extend``, ``router.register`` and
    ``router.register_many``).  CPU is ``thread_time``; *self* excludes
    children on the same thread.
    """
    index = SpanIndex(spans)
    by_id = {span.id: span for span in spans}
    batches = index.named("frontend.serve")
    nb = len(batches)
    batch_ids = {span.id for span in batches}

    frontend_self = sum(
        index.self_cpu(span)
        for span in spans
        if span.name in ("frontend.serve", "frontend.pool_job")
        and (span.id in batch_ids or span.batch in batch_ids)
    )
    batch_cpu = sum(index.subtree_cpu(span) for span in batches)
    # Wait: time a front-end span was open while its thread was off CPU.
    # On the client thread that is the part of the batch outside the pool
    # jobs (the hop into and out of the pool); on a pool thread, the job's
    # wall time beyond the CPU of everything it ran (the interpreter lock).
    wait = sum(
        max(0.0, index.self_wall(span) - index.self_cpu(span))
        if span.name == "frontend.serve"
        else max(0.0, span.wall - index.subtree_cpu(span))
        for span in spans
        if span.id in batch_ids
        or (span.name == "frontend.pool_job" and span.batch in batch_ids)
    )
    kernels = [s for s in index.named("engine.kernel") if s.batch in batch_ids]
    kernel_cpu = sum(s.cpu for s in kernels)
    answers = sum(s.count for s in kernels)
    builds = index.named("engine.table_build")
    read_builds_cpu = sum(s.cpu for s in builds if s.batch in batch_ids)
    requests = sum(s.count for s in batches)

    groups = index.named("router.group")
    members = sum(s.count for s in groups)
    registers = index.named("router.register_many")
    series = sum(s.count for s in registers)
    plans = index.named("planner.plan_cohort")
    extends = index.named("router.extend")
    refreshes = index.named("store.refresh")
    merging = index.named("core.merging")
    constructions = merging + index.named("core.other")

    writes = extends + index.named("router.register") + registers
    write_ids = {span.id for span in writes}
    write_cpu = sum(index.subtree_cpu(span) for span in writes)
    core_in_writes = sum(
        span.cpu
        for span in constructions
        if any(a.id in write_ids for a in _ancestors(by_id, span))
    )
    saves = index.named("persistence.save")
    loads = index.named("persistence.load")
    hydrates = index.named("persistence.hydrate")
    sampled = index.named("sampling.extend")

    def mean_ms(values: List[float]) -> float:
        return _ratio(sum(values), len(values)) * 1e3

    return {
        "frontend.busy_ms_per_batch": _ratio(frontend_self, nb) * 1e3,
        "frontend.wait_ms_per_batch": _ratio(wait, nb) * 1e3,
        "frontend.request_build_ms_per_batch": _ratio(
            sum(s.wall for s in index.named("frontend.request_build")), nb
        ) * 1e3,
        "frontend.requests_per_kernel_call": _ratio(requests, len(kernels)),
        "frontend.read_cpu_share": _ratio(frontend_self, batch_cpu),
        "engine.kernel_ns_per_answer": _ratio(kernel_cpu, answers) * 1e9,
        "engine.kernel_calls_per_batch": _ratio(len(kernels), nb),
        "engine.read_cpu_share": _ratio(kernel_cpu + read_builds_cpu, batch_cpu),
        "engine.table_builds": float(len(builds)),
        "engine.table_build_ms": mean_ms([s.cpu for s in builds]),
        "router.group_ms_per_member": _ratio(
            sum(index.self_cpu(s) for s in groups), members
        ) * 1e3,
        "router.install_ms_per_series": _ratio(
            sum(index.self_cpu(s) for s in registers), series
        ) * 1e3,
        "router.extend_self_ms": mean_ms([index.self_cpu(s) for s in extends]),
        "store.refreshes": float(len(refreshes)),
        "store.refresh_self_ms": mean_ms([index.self_cpu(s) for s in refreshes]),
        "planner.plan_ms_per_series": _ratio(
            sum(index.self_cpu(s) for s in plans), series
        ) * 1e3,
        "planner.register_cpu_share": _ratio(
            sum(index.subtree_cpu(s) for s in plans),
            sum(index.subtree_cpu(s) for s in registers),
        ),
        "builders.build_self_ms_per_build": _ratio(
            sum(index.self_cpu(s) for s in index.named("builders.build")),
            len(constructions),
        ) * 1e3,
        "core.merging_ns_per_point": _ratio(
            sum(s.cpu for s in merging),
            sum(s.count for s in merging),
        ) * 1e9,
        "core.merging_calls": float(len(merging)),
        "core.write_cpu_share": _ratio(core_in_writes, write_cpu),
        "sampling.extend_ms_per_write": mean_ms([s.cpu for s in sampled]),
        "persistence.save_ms": mean_ms([s.wall for s in saves]),
        "persistence.load_ms": mean_ms([s.wall for s in loads]),
        "persistence.hydrate_ms": _ratio(
            sum(s.wall for s in hydrates), len(loads)
        ) * 1e3,
    }
