"""Load statistics and skew-aware placement policy for the serving tier.

Real query traffic over per-user synopses is Zipf-distributed: a handful
of hot entries saturate one shard while the rest idle.  This module
turns the counters the serving stack *already* tracks into placement
decisions:

- :class:`HotnessTracker` folds the engine's per-entry cache series
  (``engine_entry_cache_hits_total`` + ``engine_entry_cache_misses_total``
  — together, one increment per table access, i.e. per query routed to
  the entry) into an exponentially *decayed* per-entry count, from which
  it derives a QPS estimate.  Decay means a burst last minute outweighs
  steady trickle from an hour ago, and entries that cool down fall back
  off the hot list on their own.

- :class:`Rebalancer` is the policy object: given a tracker and a
  :class:`~repro.serve.router.ShardRouter`, it migrates hot entries off
  crowded shards onto the least-loaded one.  Promotion and demotion use
  different thresholds (hysteresis), so an entry hovering at the
  boundary does not ping-pong between shards.

The decayed-count math: a count ``C`` folded ``dt`` seconds after the
previous fold first decays by ``0.5 ** (dt / half_life)`` and then
absorbs the new increments.  At a steady arrival rate ``r`` the count
converges to ``r * half_life / ln 2``, so ``qps = C * ln 2 / half_life``
recovers the true rate — and a fresh burst of N queries registers as
``N * ln2 / half_life`` immediately, not after a warm-up window.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry

__all__ = ["HotnessTracker", "RebalanceAction", "Rebalancer"]

_LN2 = math.log(2.0)

# Two independent views of per-entry load, folded together with a
# per-fold max (NOT a sum — for frontend-served traffic both move, and
# summing would double-count):
#   - the engine's per-entry cache series: hits + misses = one increment
#     per *table access*, which undercounts under coalescing (a group of
#     N same-entry requests touches the table once);
#   - the front end's per-entry request series: one increment per
#     request, but absent for traffic that queries an engine directly.
_ENGINE_SERIES = (
    "engine_entry_cache_hits_total",
    "engine_entry_cache_misses_total",
)
_FRONTEND_SERIES = "frontend_entry_requests_total"


class HotnessTracker:
    """Decayed per-entry query-rate estimates from registry counters.

    Parameters
    ----------
    half_life_s:
        Seconds for a stale count to lose half its weight.  Small values
        react fast but jitter; large values smooth but lag.  The default
        (30 s) follows typical cache-tier hotness windows.
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(
        self,
        half_life_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if half_life_s <= 0:
            raise ValueError("half_life_s must be positive")
        self.half_life_s = float(half_life_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._decayed: Dict[str, float] = {}
        # Last *cumulative* totals per (series group, entry), so each
        # fold turns monotone counters into increments.  Totals can
        # shrink when a migration drops the source shard's series
        # (engine.forget drops per-entry counters); negative deltas
        # clamp to zero rather than poisoning the estimate.
        self._last_totals: Dict[Tuple[str, str], float] = {}
        self._hits: Dict[str, float] = {}
        self._queries: Dict[str, float] = {}
        self._last_fold: Optional[float] = None

    # ------------------------------------------------------------------ #

    def _decay_locked(self, now: float) -> None:
        if self._last_fold is not None:
            dt = max(now - self._last_fold, 0.0)
            if dt > 0:
                factor = 0.5 ** (dt / self.half_life_s)
                for name in list(self._decayed):
                    value = self._decayed[name] * factor
                    # Forget entries whose weight rounded away, or the
                    # map grows one key per name ever queried.
                    if value < 1e-9:
                        del self._decayed[name]
                    else:
                        self._decayed[name] = value
        self._last_fold = now

    def fold(self, registry: MetricsRegistry) -> None:
        """Decay, then absorb counter increments since the last fold.

        Scans the registry's per-entry series (summing across shard
        label sets) and adds each entry's new queries to its decayed
        count: the larger of the engine-side and frontend-side
        increments, per entry, per fold.
        """
        engine_totals: Dict[str, float] = {}
        frontend_totals: Dict[str, float] = {}
        hits: Dict[str, float] = {}
        for metric_name, labels, instrument in registry.collect():
            entry = labels.get("entry")
            if entry is None:
                continue
            if metric_name in _ENGINE_SERIES:
                value = float(instrument.value)
                engine_totals[entry] = engine_totals.get(entry, 0.0) + value
                if metric_name == _ENGINE_SERIES[0]:
                    hits[entry] = hits.get(entry, 0.0) + value
            elif metric_name == _FRONTEND_SERIES:
                frontend_totals[entry] = (
                    frontend_totals.get(entry, 0.0) + float(instrument.value)
                )
        with self._lock:
            self._decay_locked(self._clock())
            for entry in set(engine_totals) | set(frontend_totals):
                delta = 0.0
                for group, totals in (
                    ("engine", engine_totals),
                    ("frontend", frontend_totals),
                ):
                    if entry not in totals:
                        continue
                    key = (group, entry)
                    delta = max(
                        delta, totals[entry] - self._last_totals.get(key, 0.0)
                    )
                    self._last_totals[key] = totals[entry]
                if delta > 0:
                    self._decayed[entry] = self._decayed.get(entry, 0.0) + delta
            self._hits = hits
            self._queries = engine_totals

    def observe(self, name: str, count: float = 1.0) -> None:
        """Record ``count`` queries against ``name`` directly.

        For callers that see traffic the engine counters don't.
        """
        with self._lock:
            self._decay_locked(self._clock())
            self._decayed[name] = self._decayed.get(name, 0.0) + float(count)

    # ------------------------------------------------------------------ #

    def qps(self, name: str) -> float:
        """The decayed queries-per-second estimate for ``name``."""
        return self.rates([name])[name]

    def rates(self, names: Iterable[str]) -> Dict[str, float]:
        """``{name: qps}`` for every name, all under one decay.

        Each decay walks the whole map, so a caller that needs many
        entries' rates asks for them here rather than name by name.
        """
        with self._lock:
            self._decay_locked(self._clock())
            return {
                name: self._decayed.get(name, 0.0) * _LN2 / self.half_life_s
                for name in names
            }

    def top(self, n: int = 10) -> List[Tuple[str, float]]:
        """The ``n`` hottest entries as ``(name, qps)``, hottest first."""
        with self._lock:
            self._decay_locked(self._clock())
            scale = _LN2 / self.half_life_s
            ranked = sorted(
                self._decayed.items(), key=lambda item: item[1], reverse=True
            )
            return [(name, count * scale) for name, count in ranked[:n]]

    def hit_rate(self, name: str) -> Optional[float]:
        """Lifetime cache hit rate for ``name``; None before any queries."""
        with self._lock:
            total = self._queries.get(name, 0.0)
            if total <= 0:
                return None
            return self._hits.get(name, 0.0) / total


@dataclass(frozen=True)
class RebalanceAction:
    """One placement change the rebalancer made (or would make)."""

    action: str  # "migrate"
    name: str
    source: int
    target: int
    qps: float

    def describe(self) -> str:
        return (
            f"{self.action} {self.name}: shard {self.source} -> {self.target} "
            f"({self.qps:.2f} qps)"
        )


@dataclass
class Rebalancer:
    """Threshold-plus-hysteresis placement policy over a hotness tracker.

    An entry *promotes* (becomes migration-eligible) above ``hot_qps``
    and *demotes* only below ``cool_qps`` — the gap is the hysteresis
    band that stops boundary entries from ping-ponging.  Promoted entries
    migrate off a shard when it carries competing load and a less-loaded
    shard exists.

    The policy only *reads* tracker state and calls the router's public
    ``migrate``; all locking lives in the router, so a rebalance pass can
    run concurrently with serving.
    """

    tracker: HotnessTracker
    hot_qps: float = 1.0
    cool_qps: Optional[float] = None
    _promoted: Dict[str, bool] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if self.cool_qps is None:
            self.cool_qps = self.hot_qps / 2.0
        if self.cool_qps > self.hot_qps:
            raise ValueError("cool_qps must not exceed hot_qps (hysteresis)")

    # ------------------------------------------------------------------ #

    def rebalance(self, router, fold: bool = True) -> List[RebalanceAction]:
        """Run one policy pass against ``router``; returns what changed.

        Safe to call from a REPL command, a background thread, or a
        test: a pass over an already-balanced router is a no-op.
        """
        if fold:
            self.tracker.fold(router.registry)
        actions: List[RebalanceAction] = []
        rates = self.tracker.rates(router.names())

        # Promotion / demotion with hysteresis.
        for name, qps in rates.items():
            if qps >= self.hot_qps:
                self._promoted[name] = True
            elif qps < self.cool_qps:
                self._promoted.pop(name, None)
        self._promoted = {
            name: True for name in self._promoted if name in rates
        }

        # Migrate: hot entries sharing a shard with other load move to
        # the least-loaded shard, hottest first, one placement at a time
        # so each decision sees the previous one's effect.
        if router.num_shards > 1:
            # Estimated QPS per shard, as exact sums that each migration
            # updates by moving its entry's rate.  Float sums leave residues
            # of a few ulps, which moved an entry left alone on its shard,
            # or one whose target carried exactly its competing load (and
            # moved it back on the next pass).  Imported here, so a process
            # that never rebalances does not load the module.
            from fractions import Fraction

            loads = {index: Fraction(0) for index in range(router.num_shards)}
            for name, qps in rates.items():
                loads[router.shard_map.shard_of(name)] += Fraction(qps)
            hot = sorted(
                self._promoted, key=lambda n: rates[n], reverse=True
            )
            for name in hot:
                source = router.shard_map.shard_of(name)
                rate = Fraction(rates[name])
                competing = loads[source] - rate
                target = min(loads, key=lambda index: loads[index])
                if competing <= 0 or loads[target] >= competing:
                    continue  # already alone, or nowhere better
                router.migrate(name, target)
                loads[source] -= rate
                loads[target] += rate
                actions.append(
                    RebalanceAction(
                        "migrate", name, source, target, rates[name]
                    )
                )
        return actions
