"""Batched query evaluation over stored synopses.

:class:`PrefixTable` normalizes every synopsis family to one vectorized
representation — piece left endpoints, cumulative boundary masses, and a
per-piece partial-sum polynomial in the scaled variable ``s = 2t/|I| - 1``
(see :class:`~repro.core.integral.PiecewisePrefix`; a constant piece is
the degree-0 special case whose partial sum is linear in ``t``) — and
evaluates it with the repo's one evaluator,
:class:`~repro.core.integral.PrefixStack`.  One synopsis's table is the
one-entry stack; :meth:`PrefixTable.stack` puts many entries' tables into
one, so the serving front end answers all of a shard job's requests of
one kind with one call.  A batch of B queries then costs one
``searchsorted`` over the stacked piece boundaries plus ``O(d)`` vector
arithmetic, however many entries it spans, and every answer is bitwise
its own entry's.

:class:`QueryEngine` answers batched queries against a
:class:`~repro.serve.store.SynopsisStore`.  Each store entry holds the
one table of its current synopsis: the first read builds it, every later
read gets it from the same store-lock snapshot that yields the version,
and a re-register, refresh, cool or remove drops it with the synopsis.
Two engines over one store therefore share one table per entry.

The group-by kinds go through the store's
:class:`~repro.serve.cohorts.CohortRegistry`, the registry a
:class:`~repro.serve.router.ShardRouter` holds too: a named cohort's
stacked :class:`~repro.serve.cohorts.CohortTable` is cached, keyed by the
members' version vector, so a warm group query builds no table.

The engine is thread-safe: every table lookup goes through the store's
atomic ``table_snapshot(name)``, so concurrent queries against a shard
being refreshed always observe a consistent ``(version, table)`` pair.
Table builds and the numeric evaluation run outside every lock — NumPy
releases the GIL in the hot kernels, which is what lets per-shard thread
pools scale.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..baselines.wavelet import WaveletSynopsis
from ..core.histogram import Histogram, flatten
from ..core.integral import (
    Checked,
    PiecewisePrefix,
    PrefixStack,
    _per_point,
    as_count,
    check_query,
)
from ..core.intervals import initial_partition
from ..core.piecewise_poly import PiecewisePolynomial
from ..core.sparse import SparseFunction
from ..obs.metrics import Counter, MetricsRegistry
from .store import SynopsisStore

__all__ = [
    "CacheStats",
    "GROUP_QUERY_KINDS",
    "PrefixTable",
    "QueryEngine",
]

ArrayLike = Union[int, float, np.ndarray]

#: Query kinds that evaluate over a *set* of entries (a cohort) instead
#: of one.  They ride the mergeable-summaries property: prefix integrals
#: sum exactly across members, so the group answer equals the member-wise
#: sum/merge with no approximation beyond each member's own synopsis.
#: :class:`~repro.serve.cohorts.CohortTable` is their one evaluator: it
#: stacks the members' tables and reduces the member rows in member order.
GROUP_QUERY_KINDS = ("group_range_sum", "group_range_mean", "group_top_k")


def _rows_by_entry(entries: Optional[np.ndarray]) -> List[Tuple[int, Any]]:
    """``(entry, rows)`` for every entry in the 1-D ``entries``, in entry
    order, ``rows`` indexing that entry's points; None is entry 0 alone."""
    if entries is None:
        return [(0, slice(None))]
    order = np.argsort(entries, kind="stable")
    ordered = entries[order]
    cuts = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    bounds = [0, *cuts, ordered.size]
    return [
        (int(ordered[lo]), order[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]


def _joined(parts: List[Any], others: List[Any]) -> Any:
    """The rows of ``parts``: every row when ``others`` holds none."""
    if not others:
        return slice(None)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class PrefixTable:
    """Query semantics over a :class:`PrefixStack` of one or more synopses.

    ``PrefixTable(prefix)`` (or :meth:`from_synopsis`) is one synopsis's
    table, the one a store entry holds.  :meth:`stack` puts several
    tables into one stack, whose entry ``j`` is the ``j``-th table's
    synopsis.  The stack normalizes every family to piece boundaries plus
    within-piece partial-sum polynomials, so a batch of B queries over
    any number of entries costs one ``searchsorted`` and one Horner pass;
    this class adds the query semantics (closed ranges, CDF
    normalization, quantile search, heavy buckets); every query method
    raises from :meth:`check`, whose row mask a stacked call takes.

    ``range_sum``, ``range_mean``, ``point_mass``, ``cdf``, ``quantile``
    and ``integral`` take their query arguments first and, last, an
    optional ``entries`` column: the entry of every query point (None
    means entry 0, the one synopsis of an unstacked table).  Each answer
    is bitwise the answer of that entry's own table.  ``top_k_buckets``
    and ``inner_product`` read entry 0.
    """

    __slots__ = ("prefixes", "evaluator")

    def __init__(self, prefix: PiecewisePrefix) -> None:
        self.prefixes: Tuple[PiecewisePrefix, ...] = (prefix,)
        self.evaluator = prefix.as_stack()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_synopsis(cls, synopsis) -> "PrefixTable":
        """Build the table for any supported synopsis family.

        Histograms and piecewise polynomials expose (and cache) their own
        tables; wavelets go through their histogram view; sparse functions
        flatten over their initial partition, which represents them exactly
        with ``O(s)`` pieces — no densification.
        """
        if isinstance(synopsis, (Histogram, PiecewisePolynomial)):
            return cls(synopsis.prefix_table())
        if isinstance(synopsis, WaveletSynopsis):
            return cls(synopsis.to_histogram().prefix_table())
        if isinstance(synopsis, SparseFunction):
            exact = flatten(synopsis, initial_partition(synopsis))
            return cls(exact.prefix_table())
        raise TypeError(f"unsupported synopsis type {type(synopsis).__name__}")

    @classmethod
    def stack(cls, tables: Sequence["PrefixTable"]) -> "PrefixTable":
        """One table over every entry of ``tables``, in order."""
        table = cls.__new__(cls)
        table.prefixes = tuple(
            prefix for member in tables for prefix in member.prefixes
        )
        table.evaluator = (
            table.prefixes[0].as_stack()
            if len(table.prefixes) == 1
            else PrefixStack(table.prefixes)
        )
        return table

    # ------------------------------------------------------------------ #
    # Primitives
    # ------------------------------------------------------------------ #

    @property
    def prefix(self) -> PiecewisePrefix:
        """Entry 0's table: the synopsis's own, unless stacked."""
        return self.prefixes[0]

    @property
    def n(self) -> int:
        return self.prefix.n

    @property
    def num_pieces(self) -> int:
        return self.prefix.num_pieces

    @property
    def total_mass(self) -> float:
        return self.prefix.total_mass

    def piece_masses(self) -> np.ndarray:
        return self.prefix.piece_masses()

    def check(self, kind: str, args: Sequence[Any], entries: Any = None) -> Checked:
        """:func:`~repro.core.integral.check_query` on this table."""
        stack = self.evaluator
        return check_query(kind, args, stack.ns, entries, stack.totals, self.prefixes)

    def integral(self, x: ArrayLike, entries: Any = None) -> np.ndarray:
        """``F_e(x) = sum_{i < x} f_e(i)`` for ``x`` in ``[0, n_e]``, vectorized."""
        (xs,) = self.check("integral", (x,), entries).passed()
        return self.evaluator.integral(xs, entries)

    def _difference(self, hi: np.ndarray, lo: np.ndarray, entries: Any) -> np.ndarray:
        """``F_e(hi) - F_e(lo)``, both ends placed by one evaluation."""
        size = hi.size
        if entries is not None:
            entries = np.broadcast_to(entries, hi.shape).ravel()
            entries = np.concatenate((entries, entries))
        both = self.evaluator.integral(
            np.concatenate((hi.ravel(), lo.ravel())), entries
        )
        return (both[:size] - both[size:]).reshape(hi.shape)

    # ------------------------------------------------------------------ #
    # Queries (array-in / array-out; scalars map to scalars)
    # ------------------------------------------------------------------ #

    def range_sum(
        self, a: ArrayLike, b: ArrayLike, entries: Any = None
    ) -> Union[float, np.ndarray]:
        """``sum_{i in [a, b]} f_e(i)`` over closed ranges (batched)."""
        aa, bb = self.check("range_sum", (a, b), entries).passed()
        out = self._difference(bb + 1, aa, entries)
        return float(out) if np.ndim(a) == 0 and np.ndim(b) == 0 else out

    def range_mean(
        self, a: ArrayLike, b: ArrayLike, entries: Any = None
    ) -> Union[float, np.ndarray]:
        """Mean of ``f_e`` over closed ranges: ``range_sum(a, b) / (b - a + 1)``.

        A closed range ``[a, b]`` with ``a <= b`` always covers
        ``b - a + 1 >= 1`` positions, so the division is safe; the
        zero-length edge (``a > b``, an empty range whose mean is 0/0)
        is rejected up front by :meth:`range_sum`'s check
        instead of silently returning NaN.  A single-point range
        ``a == b`` degenerates to the point mass.
        """
        sums = self.range_sum(a, b, entries)
        lengths = np.asarray(b, dtype=np.int64) - np.asarray(a, dtype=np.int64) + 1
        out = sums / lengths.astype(np.float64)
        return float(out) if np.ndim(a) == 0 and np.ndim(b) == 0 else out

    def point_mass(self, x: ArrayLike, entries: Any = None) -> Union[float, np.ndarray]:
        """``f_e(x)`` (batched)."""
        (xs,) = self.check("point_mass", (x,), entries).passed()
        out = self._difference(xs + 1, xs, entries)
        return float(out) if np.ndim(x) == 0 else out

    def cdf(self, x: ArrayLike, entries: Any = None) -> Union[float, np.ndarray]:
        """``P[X <= x] = F_e(x + 1) / total_e`` (batched; needs positive mass)."""
        (xs,) = self.check("cdf", (x,), entries).passed()
        totals = _per_point(self.evaluator.totals, entries)
        out = self.evaluator.integral(xs + 1, entries) / totals
        return float(out) if np.ndim(x) == 0 else out

    def quantile(self, q: ArrayLike, entries: Any = None) -> Union[int, np.ndarray]:
        """Smallest ``x`` with ``F_e(x + 1) >= q * total_e`` (batched).

        Piecewise-constant entries (every family except the polynomial
        one) are answered exactly for any sign pattern by a two-level
        ``searchsorted`` over the running max of per-piece prefix values:
        ``O(B log k)``.  Higher-degree entries fall back to vectorized
        bisection over the domain (``O(B log n log k)``), which is only
        valid for a nondecreasing prefix integral — a certified property;
        a polynomial reconstruction that dips negative raises instead of
        silently returning a wrong crossing.
        """
        (qs,) = self.check("quantile", (q,), entries).passed()
        totals = _per_point(self.evaluator.totals, entries)
        targets = np.atleast_1d(qs) * totals
        shape = targets.shape
        targets = targets.ravel()
        if entries is not None:
            entries = np.broadcast_to(entries, shape).ravel()
        searched: List[Tuple[int, Any]] = []
        bisected: List[Any] = []
        for entry, rows in _rows_by_entry(entries):
            if self.prefixes[entry].is_piecewise_linear:
                searched.append((entry, rows))
            else:  # a polynomial the check certified monotone
                bisected.append(rows)
        out = np.empty(targets.size, dtype=np.int64)
        if searched:
            rows = _joined([rows for _, rows in searched], bisected)
            out[rows] = self._quantile_linear(targets, searched, rows)
        if bisected:
            rows = _joined(bisected, searched)
            out[rows] = self._quantile_bisect(
                targets[rows], None if entries is None else entries[rows]
            )
        out = out.reshape(shape)
        return int(out.flat[0]) if np.ndim(q) == 0 else out

    def _quantile_linear(
        self, targets: np.ndarray, searched: List[Tuple[int, Any]], rows: Any
    ) -> np.ndarray:
        """Exact first crossing for piecewise-constant entries of any sign.

        Within piece ``u`` the prefix is linear, so its max over the piece's
        positions ``z in (left_u, left_u + L_u]`` sits at an endpoint; the
        running max of those per-piece maxima is nondecreasing over each
        entry's pieces and supports ``searchsorted`` even when individual
        pieces are negative.  Each entry searches its own slice of the
        stacked maxima; the rest of the arithmetic is stacked.  Returns
        the answers of ``targets[rows]``.
        """
        stack = self.evaluator
        base, lengths, starts = stack.base, stack.lengths, stack.starts
        if len(self.prefixes) == 1:
            tops = self.prefix.boundary[1:]
        else:
            tops = np.concatenate([prefix.boundary[1:] for prefix in self.prefixes])
        values = (tops - base) / lengths
        piece_max = np.maximum(base + values, tops)
        u = np.zeros(targets.size, dtype=np.intp)
        for entry, mine in searched:
            start, stop = starts[entry], starts[entry + 1]
            running = np.maximum.accumulate(piece_max[start:stop])
            u[mine] = start + np.minimum(
                np.searchsorted(running, targets[mine], side="left"),
                stop - start - 1,
            )
        u = u[rows]
        vu = values[u]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.ceil((targets[rows] - base[u]) / vu)
        t = np.where(vu > 0, t, 1.0)
        t = np.clip(t, 1.0, lengths[u])
        return stack.lefts[u] + t.astype(np.int64) - 1

    def _quantile_bisect(self, targets: np.ndarray, entries: Any) -> np.ndarray:
        """Vectorized binary search; requires nondecreasing prefixes.

        Only open points (``lo < hi``) move, so every answer stays in
        ``[0, n_e)`` and equals a search over that point alone, whatever
        else shares the call.
        """
        stack = self.evaluator
        lo = np.zeros(targets.shape, dtype=np.int64)
        hi = np.broadcast_to(_per_point(stack.ns, entries) - 1, targets.shape)
        while True:
            open_ = lo < hi
            if not open_.any():
                return lo
            mid = (lo + hi) >> 1
            reached = stack.integral(mid + 1, entries) >= targets
            hi = np.where(open_ & reached, mid, hi)
            lo = np.where(open_ & ~reached, mid + 1, lo)

    def top_k_buckets(self, m: int) -> List[Tuple[int, int, float]]:
        """The ``m`` heaviest pieces as ``(left, right, mass)``, mass-descending."""
        m = as_count(m)
        masses = self.piece_masses()
        order = np.argsort(-masses, kind="stable")[:m]
        lefts = self.prefix.lefts
        rights = self.prefix.rights()
        return [
            (int(lefts[u]), int(rights[u]), float(masses[u])) for u in order
        ]

    def _piece_values(self) -> np.ndarray:
        """Per-piece constant values of a piecewise-constant table."""
        return self.piece_masses() / self.prefix.lengths

    def inner_product(self, other: "PrefixTable") -> float:
        """``<f, g> = sum_i f(i) g(i)`` between two tables on one domain.

        Piecewise-constant tables (every family except the polynomial
        one) evaluate by the closed form over the *merged* partition: on
        each merged segment both functions are constant, so the segment
        contributes ``v_f v_g |segment|`` — ``O(k_f + k_g)`` total, with
        the constants read straight off the cumulative boundary masses.
        A polynomial table falls back to exact per-position evaluation
        through its prefix integral (``O(n log k)``), which matches the
        closed form bitwise on constant pieces but densifies the domain.
        """
        if self.n != other.n:
            raise ValueError(
                f"inner product needs matching domains, got n={self.n} "
                f"and n={other.n}"
            )
        if self.prefix.is_piecewise_linear and other.prefix.is_piecewise_linear:
            cuts = np.union1d(self.prefix.lefts, other.prefix.lefts)
            lengths = np.diff(np.append(cuts, self.n))
            ua = np.searchsorted(self.prefix.lefts, cuts, side="right") - 1
            ub = np.searchsorted(other.prefix.lefts, cuts, side="right") - 1
            return float(
                np.sum(
                    self._piece_values()[ua]
                    * other._piece_values()[ub]
                    * lengths
                )
            )
        xs = np.arange(self.n, dtype=np.int64)
        return float(np.dot(self.point_mass(xs), other.point_mass(xs)))


class CacheStats:
    """Hit and miss counters for the entries' prefix tables.

    A hit is a read that found the table its entry holds; a miss is a
    read that built one (one ``PrefixTable.from_synopsis`` call).  The
    engine keeps one instance for all its entries, so its series do not
    grow with the number of entries; whether one entry holds its table is
    ``StoreEntry.table is not None``.

    The counts live in the two :class:`~repro.obs.metrics.Counter`
    instruments it is given, registered in the engine's
    :class:`~repro.obs.metrics.MetricsRegistry`, so ``cache_info()`` is a
    view over the same series the ``/metrics`` exposition serves.
    """

    __slots__ = ("_hits", "_misses")

    def __init__(self, hits: Counter, misses: Counter) -> None:
        self._hits, self._misses = hits, misses

    def hit(self) -> None:
        self._hits.inc()

    def miss(self) -> None:
        self._misses.inc()

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    def __repr__(self) -> str:
        return f"CacheStats(hits={self.hits}, misses={self.misses})"

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


class QueryEngine:
    """Batched queries over a :class:`SynopsisStore`.

    All query methods are array-in/array-out NumPy operations; scalar
    arguments return scalars.  The prefix table of an entry is built on
    its first read and held by the store entry until its synopsis goes
    (re-register, refresh, cool or remove), so every engine over the
    store shares it; the engine only counts the hits and misses.
    """

    #: Every query kind the engine answers; each gets a latency histogram
    #: and a call counter in the registry, labeled ``kind=...`` (plus the
    #: engine's own labels, e.g. its shard index).
    QUERY_KINDS = (
        "range_sum",
        "range_mean",
        "point_mass",
        "cdf",
        "quantile",
        "top_k",
        "inner_product",
        "heavy_hitters",
    ) + GROUP_QUERY_KINDS

    def __init__(
        self,
        store: SynopsisStore,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.store = store
        # Per-engine registry by default, so two engines never share
        # counters by accident; a ShardRouter injects one shared registry
        # with per-shard labels instead, making the fleet view mergeable.
        self.registry = MetricsRegistry() if registry is None else registry
        self._labels = {k: str(v) for k, v in (labels or {}).items()}
        self.stats = CacheStats(
            self.registry.counter(
                "engine_cache_hits_total", "prefix-table cache hits", **self._labels
            ),
            self.registry.counter(
                "engine_cache_misses_total",
                "prefix-table cache misses (table builds)",
                **self._labels,
            ),
        )
        # Pre-created per-kind instruments: the query hot path must not
        # pay a registry lookup (dict + label-key build) per call.
        self._instruments = {
            kind: (
                self.registry.histogram(
                    "engine_query_seconds",
                    "batched query evaluation latency",
                    kind=kind,
                    **self._labels,
                ),
                self.registry.counter(
                    "engine_queries_total",
                    "batched query evaluations",
                    kind=kind,
                    **self._labels,
                ),
            )
            for kind in self.QUERY_KINDS
        }

    # ------------------------------------------------------------------ #

    def _record(self, kind: str, start: float) -> None:
        self.observe_query(kind, time.perf_counter() - start)

    def observe_query(self, kind: str, seconds: float) -> None:
        """Record one query evaluation into the per-kind latency series.

        The engine's own query methods call this implicitly; the serving
        front end calls it for evaluations on its direct-table fast path
        (which fetches ``table_versioned`` and evaluates the table
        itself), so per-kind series stay complete regardless of the path
        a query took.
        """
        histogram, counter = self._instruments[kind]
        histogram.observe(seconds)
        counter.inc()

    def table(self, name: str) -> PrefixTable:
        """The prefix table for store entry ``name``."""
        return self.table_versioned(name)[1]

    def table_versioned(self, name: str) -> Tuple[int, PrefixTable]:
        """The entry's current ``(version, table)`` pair, atomically.

        Version, synopsis and the entry's held table come from one
        ``store.table_snapshot`` read, so the returned table is built from
        the synopsis that carried exactly that version — the consistency
        unit the concurrent serving front end reports per answer.  A
        held table is a hit.  Otherwise the table is built outside every
        lock (a miss) and offered back to the store, which keeps it only
        if the synopsis it was built from is still the entry's: a build
        from a stale snapshot answers its own query and is dropped.  Two
        threads missing on one synopsis both build and both count a miss.
        """
        version, synopsis, table = self.store.table_snapshot(name)
        if table is not None:
            self.stats.hit()
            return version, table
        self.stats.miss()
        table = PrefixTable.from_synopsis(synopsis)
        self.store.keep_table(name, synopsis, table)
        return version, table

    def warm(self, names: Optional[List[str]] = None) -> int:
        """Build the prefix tables of ``names`` (default: every entry).

        Hydrates lazily-loaded entries as a side effect, so a store loaded
        from disk can pay its deserialization cost up front instead of on
        the first query.  Returns the number of entries warmed.
        """
        names = self.store.names() if names is None else names
        for name in names:
            self.table(name)
        return len(names)

    def cache_info(self) -> Dict[str, int]:
        """The engine's table hits and misses over all its entries."""
        return self.stats.as_dict()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def range_sum(self, name: str, a: ArrayLike, b: ArrayLike):
        """Batched ``sum_{i in [a, b]}`` over closed ranges of entry ``name``."""
        start = time.perf_counter()
        try:
            return self.table(name).range_sum(a, b)
        finally:
            self._record("range_sum", start)

    def range_mean(self, name: str, a: ArrayLike, b: ArrayLike):
        """Batched mean over closed ranges ``[a, b]`` of entry ``name``."""
        start = time.perf_counter()
        try:
            return self.table(name).range_mean(a, b)
        finally:
            self._record("range_mean", start)

    def point_mass(self, name: str, x: ArrayLike):
        """Batched point evaluation of entry ``name``."""
        start = time.perf_counter()
        try:
            return self.table(name).point_mass(x)
        finally:
            self._record("point_mass", start)

    def cdf(self, name: str, x: ArrayLike):
        """Batched normalized CDF of entry ``name``."""
        start = time.perf_counter()
        try:
            return self.table(name).cdf(x)
        finally:
            self._record("cdf", start)

    def quantile(self, name: str, q: ArrayLike):
        """Batched quantile positions of entry ``name``."""
        start = time.perf_counter()
        try:
            return self.table(name).quantile(q)
        finally:
            self._record("quantile", start)

    def top_k_buckets(self, name: str, m: int) -> List[Tuple[int, int, float]]:
        """The ``m`` heaviest pieces of entry ``name``."""
        start = time.perf_counter()
        try:
            return self.table(name).top_k_buckets(m)
        finally:
            self._record("top_k", start)

    def inner_product(self, name_a: str, name_b: str) -> float:
        """``<f_a, f_b>`` between two stored synopses on the same domain."""
        start = time.perf_counter()
        try:
            return self.table(name_a).inner_product(self.table(name_b))
        finally:
            self._record("inner_product", start)

    # ------------------------------------------------------------------ #
    # Group-by queries (cohorts over this engine's own store)
    # ------------------------------------------------------------------ #

    def _group(
        self, kind: str, names: Any, evaluate: Callable
    ) -> Tuple[Any, Dict[str, int]]:
        """Evaluate a group target's stacked table from the store's cohort
        registry (cached for a named cohort); returns ``(value, {member:
        version})``.  A string ``names`` is a spec the store resolves
        (cohort name, comma list, or bare entry name), never iterated
        character-wise."""
        start = time.perf_counter()
        try:
            store = self.store
            members = store.resolve_members(names)
            table, versions = store._cohorts.table(
                names, members, store.versions, self.table_versioned
            )
            return evaluate(table), versions
        finally:
            self._record(kind, start)

    def group_range_sum(
        self, names: List[str], a: ArrayLike, b: ArrayLike
    ) -> Tuple[Union[float, np.ndarray], Dict[str, int]]:
        """Pooled range sum over a member set; returns (value, versions)."""
        return self._group("group_range_sum", names, lambda t: t.range_sum(a, b))

    def group_range_mean(
        self, names: List[str], a: ArrayLike, b: ArrayLike
    ) -> Tuple[Union[float, np.ndarray], Dict[str, int]]:
        """Pooled range mean over a member set; returns (value, versions)."""
        return self._group("group_range_mean", names, lambda t: t.range_mean(a, b))

    def group_top_k(
        self, names: List[str], m: int
    ) -> Tuple[List[Tuple[int, int, float]], Dict[str, int]]:
        """Heaviest merged-partition pieces of the pooled member set."""
        return self._group("group_top_k", names, lambda t: t.top_k(m))

    def heavy_hitters(self, name: str, phi: float) -> List[Tuple[int, int]]:
        """Sliding-window ``phi``-heavy hitters of entry ``name``.

        Unlike every other query kind this does not go through the prefix
        table: the answer comes from the entry's live windowed learner
        (see :meth:`SynopsisStore.heavy_hitters`), so it reflects samples
        absorbed since the last refresh too.  Raises :exc:`ValueError`
        for entries not backed by a windowed stream.
        """
        start = time.perf_counter()
        try:
            return self.store.heavy_hitters(name, phi)
        finally:
            self._record("heavy_hitters", start)
