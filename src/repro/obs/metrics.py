"""Thread-safe metrics primitives: counters, gauges, log-bucket histograms.

The serving stack measures itself with the same summary discipline the
repo reproduces: latency distributions are tracked as **fixed log-scale
bucket histograms**, a mergeable summary — per-shard histograms
``merge()`` into fleet totals exactly like the Misra–Gries sketches of
the windowed learner, with no loss relative to having observed the
union stream (bucket counts and sums add; quantile readouts of the
merged histogram equal those of a single histogram fed every sample).

:class:`MetricsRegistry` is the process-facing surface: components ask
it for named instruments (``registry.counter("engine_queries_total",
kind="range_sum", shard="0")``) and the registry deduplicates on
``(name, labels)`` so every component incrementing the same series
shares one thread-safe instrument.  :class:`NullRegistry` is the no-op
twin used to gate instrumentation overhead (see
``benchmarks/bench_obs.py``): it hands out shared do-nothing
instruments, so an instrumented hot path can be benchmarked against the
identical code with metrics compiled away.

:func:`timer` is the one timing idiom for the whole repo — a context
manager capturing ``perf_counter`` elapsed seconds, optionally feeding a
histogram on exit — replacing the hand-rolled start/stop snippets that
used to be copy-pasted across the CLI and builders.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Timer",
    "get_default_registry",
    "set_default_registry",
    "timer",
]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotone counter.  ``inc`` is atomic under an internal lock."""

    metric_type = "counter"
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def merge_from(self, other: "Counter") -> None:
        self.inc(other.value)

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self._value}


class Gauge:
    """A value that can go up and down (sizes, capacities, ratios)."""

    metric_type = "gauge"
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def merge_from(self, other: "Gauge") -> None:
        # Gauges don't sum meaningfully across sources; the merged view
        # keeps the last merged-in reading (callers wanting sums should
        # model the quantity as a counter).
        self.set(other.value)

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self._value}


class LatencyHistogram:
    """Fixed log-scale (base-2) bucket histogram — a mergeable summary.

    Bucket ``i`` covers ``[2**(lo+i), 2**(lo+i+1))``; observations below
    ``2**lo`` land in the first bucket and observations at or above
    ``2**hi`` in the last, so the layout is *fixed* — which is exactly
    what makes two histograms mergeable by adding bucket counts, the
    same property the paper's mergeable summaries are built on.  The
    default range ``(-20, 6)`` spans ~1 microsecond to 64 seconds, the
    useful latency range; pass a different ``exp_range`` for non-latency
    quantities (batch sizes use ``(0, 20)``).

    Quantile readout is conservative: ``quantile(q)`` returns the upper
    edge of the bucket holding the q-th ranked observation, clamped to
    the true observed maximum — an upper bound within a factor of 2,
    which is the log-bucket resolution.
    """

    metric_type = "histogram"
    __slots__ = ("exp_lo", "exp_hi", "_counts", "_count", "_sum", "_max", "_lock")

    def __init__(self, exp_range: Tuple[int, int] = (-20, 6)) -> None:
        lo, hi = int(exp_range[0]), int(exp_range[1])
        if hi <= lo:
            raise ValueError(f"exp_range must satisfy lo < hi, got {exp_range}")
        self.exp_lo = lo
        self.exp_hi = hi
        self._counts = [0] * (hi - lo)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #

    @property
    def num_buckets(self) -> int:
        return self.exp_hi - self.exp_lo

    def upper_edges(self) -> List[float]:
        """Bucket upper edges: ``2**(lo+1) ... 2**hi`` (last is a clamp)."""
        return [2.0 ** e for e in range(self.exp_lo + 1, self.exp_hi + 1)]

    def _bucket_of(self, value: float) -> int:
        if value <= 0.0:
            return 0
        # frexp(v) = (m, e) with v = m * 2**e and m in [0.5, 1), so the
        # floor of log2(v) is e - 1 — no math.log call on the hot path.
        _, e = math.frexp(value)
        return min(max(e - 1 - self.exp_lo, 0), self.num_buckets - 1)

    def observe(self, value: float) -> None:
        index = self._bucket_of(value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value

    # ------------------------------------------------------------------ #

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def max(self) -> float:
        return self._max

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> List[int]:
        with self._lock:
            return list(self._counts)

    def quantile(self, q: float) -> float:
        """Upper bound on the q-quantile of the observed values.

        Returns the upper edge of the bucket containing the ceil(q*count)
        ranked observation, clamped to the observed maximum; 0.0 for an
        empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile level must lie in [0, 1], got {q}")
        with self._lock:
            count = self._count
            if count == 0:
                return 0.0
            target = max(1, math.ceil(q * count))
            edges = self.upper_edges()
            cumulative = 0
            for index, bucket in enumerate(self._counts):
                cumulative += bucket
                if cumulative >= target:
                    return min(edges[index], self._max)
            return self._max  # unreachable; defensive

    def percentiles(self) -> Dict[str, float]:
        """The standard latency readout: p50 / p95 / p99."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    # ------------------------------------------------------------------ #

    def merge_from(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's observations into this one, in place."""
        if (other.exp_lo, other.exp_hi) != (self.exp_lo, self.exp_hi):
            raise ValueError(
                f"cannot merge histograms with different bucket layouts: "
                f"({self.exp_lo}, {self.exp_hi}) vs "
                f"({other.exp_lo}, {other.exp_hi})"
            )
        with other._lock:
            counts = list(other._counts)
            count, total, peak = other._count, other._sum, other._max
        with self._lock:
            for index, bucket in enumerate(counts):
                self._counts[index] += bucket
            self._count += count
            self._sum += total
            if peak > self._max:
                self._max = peak

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """A new histogram holding both inputs' observations (lossless:
        the merged summary is bitwise what one histogram fed the union
        stream would hold)."""
        merged = LatencyHistogram((self.exp_lo, self.exp_hi))
        merged.merge_from(self)
        merged.merge_from(other)
        return merged

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            count, total, peak = self._count, self._sum, self._max
        summary = {
            "count": count,
            "sum": total,
            "max": peak,
            "mean": total / count if count else 0.0,
            "buckets": counts,
            "upper_edges": self.upper_edges(),
        }
        summary.update(self.percentiles())
        return summary


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for :class:`NullRegistry`."""

    metric_type = "null"
    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> int:
        return 0

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0

    def quantile(self, q: float) -> float:
        return 0.0

    def percentiles(self) -> Dict[str, float]:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def merge_from(self, other: Any) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {}

    def as_dict(self) -> Dict[str, int]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named, labeled, thread-safe instruments, deduplicated on identity.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create: every caller
    asking for the same ``(name, labels)`` shares one instrument, so a
    series incremented from many threads or components stays exact.
    Asking for an existing name with a different instrument type raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelKey], Any] = {}
        self._help: Dict[str, str] = {}
        self.created_at = time.time()
        self._created_monotonic = time.perf_counter()

    # ------------------------------------------------------------------ #
    # Instrument factories
    # ------------------------------------------------------------------ #

    def _get(self, cls, name: str, help: str, labels: Dict[str, Any], *args):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)  # lock-free fast path (GIL-safe)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = cls(*args)
                    self._metrics[key] = metric
                    if help and name not in self._help:
                        self._help[name] = help
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is already registered as "
                f"{metric.metric_type}, not {cls.__name__.lower()}"
            )
        return metric

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        exp_range: Tuple[int, int] = (-20, 6),
        **labels: Any,
    ) -> LatencyHistogram:
        return self._get(LatencyHistogram, name, help, labels, exp_range)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def uptime_seconds(self) -> float:
        return time.perf_counter() - self._created_monotonic

    def help_text(self, name: str) -> str:
        return self._help.get(name, "")

    def collect(self) -> List[Tuple[str, Dict[str, str], Any]]:
        """Every registered ``(name, labels, instrument)``, sorted by
        name then labels — the exposition order of both renderers."""
        with self._lock:
            items = list(self._metrics.items())
        return sorted(
            ((name, dict(labels), metric) for (name, labels), metric in items),
            key=lambda item: (item[0], sorted(item[1].items())),
        )

    def get(self, name: str, **labels: Any) -> Optional[Any]:
        """The instrument registered under ``(name, labels)``, or None."""
        return self._metrics.get((name, _label_key(labels)))

    def __len__(self) -> int:
        return len(self._metrics)

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold another registry's series into this one.

        Counters and histograms add (the mergeable-summary semantics);
        gauges keep the merged-in reading.  Series absent here are
        created with the other side's layout.
        """
        for name, labels, metric in other.collect():
            help_text = other.help_text(name)
            if isinstance(metric, Counter):
                self.counter(name, help_text, **labels).merge_from(metric)
            elif isinstance(metric, Gauge):
                self.gauge(name, help_text, **labels).merge_from(metric)
            elif isinstance(metric, LatencyHistogram):
                mine = self.histogram(
                    name,
                    help_text,
                    exp_range=(metric.exp_lo, metric.exp_hi),
                    **labels,
                )
                mine.merge_from(metric)

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-friendly snapshot (see :mod:`repro.obs.export`)."""
        from .export import render_json

        return render_json(self)


class NullRegistry(MetricsRegistry):
    """A registry whose instruments do nothing — the overhead baseline.

    Passing ``NULL_REGISTRY`` to any instrumented component runs the
    identical code path with every ``inc``/``observe`` a no-op method
    call, which is what ``bench_obs.py`` compares against to gate
    instrumentation overhead.
    """

    def _get(self, cls, name, help, labels, *args):
        return _NULL_INSTRUMENT

    def collect(self) -> List[Tuple[str, Dict[str, str], Any]]:
        return []

    def merge_from(self, other: "MetricsRegistry") -> None:
        pass


NULL_REGISTRY = NullRegistry()

_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_default_registry() -> MetricsRegistry:
    """The process-wide registry for component-less code paths.

    Free functions with no object to hang a registry on —
    :func:`repro.serve.builders.build_synopsis`,
    :func:`repro.serve.planner.plan_build` — record here; stores,
    engines, routers, and front ends each carry their own registry (or
    share one injected by their router) so per-instance counters stay
    isolated.  The CLI ``metrics`` exposition merges this registry with
    the serving registry into one view.
    """
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide default registry; returns the previous one
    (tests use this to observe build/plan metrics in isolation)."""
    global _default_registry
    with _default_lock:
        previous, _default_registry = _default_registry, registry
    return previous


class Timer:
    """Context manager measuring elapsed ``perf_counter`` seconds.

    The repo's one timing idiom::

        with timer() as t:
            expensive()
        print(t.seconds, t.ms)

    An optional histogram receives the elapsed seconds on exit, so
    instrumented call sites read ``with timer(self._h_refresh):``.
    """

    __slots__ = ("histogram", "start", "seconds")

    def __init__(self, histogram: Optional[LatencyHistogram] = None) -> None:
        self.histogram = histogram
        self.start = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.seconds = time.perf_counter() - self.start
        if self.histogram is not None:
            self.histogram.observe(self.seconds)

    @property
    def ms(self) -> float:
        return self.seconds * 1e3


def timer(histogram: Optional[LatencyHistogram] = None) -> Timer:
    """A fresh :class:`Timer`; see its docstring for the idiom."""
    return Timer(histogram)
