"""The three closed-loop workloads of the end-to-end benchmark.

Every workload is one client driving the public serving API of
``repro``: it sends its next operation only after the previous answer
returned.  Each run sets the system up several times (``setup_s`` is the
median), then runs cycles of timed operations until the time budget is
spent, or for a fixed number of cycles (the self-tests use that, so every
count repeats exactly).  All inputs come from the seed; the system only
sees the generated data.

After every operation the answers are checked against the entry's own
:class:`~repro.serve.engine.PrefixTable` evaluated directly, and write
versions are checked to increase.  A mismatch, an error result or an
exception counts as a failed operation.  Input generation, the checks
and clean-up run in :meth:`Workload._untimed`: outside every timed
operation, untraced, and taken out of the set-up time.

See ``README.md`` in this directory for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import logging
import shutil
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    AsyncServingFrontend,
    BuildBudget,
    PrefixTable,
    QueryRequest,
    ShardRouter,
    WindowedStreamLearner,
    v_optimal_histogram,
)
from repro.serve.router import stable_shard

import tracing

SHARDS = 2
ENTRIES_PER_SHARD = 24
SERIES_LEN = 20_000
ENTRY_K = 8
ZIPF_S = 1.1

SCALAR_BATCH = (1400, 1600)
SCALAR_KINDS = (("range_sum", 0.70), ("quantile", 0.15), ("cdf", 0.15))

STREAMS = 4
UNIVERSE = 65_536
WINDOW = 65_536
EPOCHS = 8
STREAM_K = 16
WIDE_REQUESTS = 16
WIDE_POINTS = (1500, 2500)

COHORT_SIZE = 250
COHORT_LEN = 48
COHORT_BUDGET = BuildBudget(max_bytes=400)
GROUP_READS = 8
GROUP_RANGES = 8
GROUP_TOP_M = 4
ERROR_SAMPLE = 16

SETUPS = 3


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #


def balanced_names(prefix: str, per_shard: int) -> List[str]:
    """Fixed names, ``per_shard`` on each shard, so each shard's working set
    is the same whatever the seed."""
    placed: Dict[int, List[str]] = {s: [] for s in range(SHARDS)}
    index = 0
    while any(len(names) < per_shard for names in placed.values()):
        name = f"{prefix}-{index:03d}"
        shard = stable_shard(name, SHARDS)
        if len(placed[shard]) < per_shard:
            placed[shard].append(name)
        index += 1
    return sorted(n for names in placed.values() for n in names)


def long_series(rng: np.random.Generator, n: int = SERIES_LEN) -> np.ndarray:
    """A positive step signal with noise: what Algorithm 1 summarizes."""
    pieces = 40
    cuts = np.sort(rng.choice(np.arange(1, n), pieces - 1, replace=False))
    lengths = np.diff(np.concatenate(([0], cuts, [n])))
    levels = rng.gamma(2.0, 1.0, pieces) + 0.1
    values = np.repeat(levels, lengths) + rng.normal(0.0, 0.05, n)
    return np.maximum(values, 0.01)


def zipf_weights(rng: np.random.Generator, count: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1) ** ZIPF_S
    return rng.permutation(weights / weights.sum())


class StreamSampler:
    """Zipf-distributed positions over the stream universe."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.perm = rng.permutation(UNIVERSE)

    def draw(self, size: int) -> np.ndarray:
        ranks = self.rng.zipf(1.2, size)
        return self.perm[(ranks - 1) % UNIVERSE]


# --------------------------------------------------------------------- #
# Run state and results
# --------------------------------------------------------------------- #


class SlowLogCounter(logging.Handler):
    """Counts slow-query records and keeps them off stderr."""

    def __init__(self) -> None:
        super().__init__()
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


@contextlib.contextmanager
def quiet_slow_log():
    logger = logging.getLogger("repro.slowlog")
    handler = SlowLogCounter()
    saved = logger.propagate
    logger.addHandler(handler)
    logger.propagate = False
    try:
        yield handler
    finally:
        logger.removeHandler(handler)
        logger.propagate = saved


class Tally:
    """Timed samples, outcome counts and layer accounting for one side of
    a run: the warm-up, the untraced cycles or the traced cycles."""

    def __init__(self) -> None:
        self.reads: List[float] = []
        self.writes: List[float] = []
        self.answers = 0
        self.attempted = 0
        self.failed = 0
        self.cycles = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: Disk usage of each save (cohort-lifecycle).
        self.saves: List[Dict[str, int]] = []
        #: Program counter deltas taken around this side's cycles.
        self.counts: Dict[str, float] = {}

    def op_seconds(self) -> float:
        return sum(self.reads) + sum(self.writes)

    def fail(self) -> None:
        self.failed += 1


def _check_table(router: ShardRouter,
                 cache: Dict[str, Tuple[int, PrefixTable]],
                 name: str, version: int) -> PrefixTable:
    """The entry's own table at ``version``; ``cache`` holds one table per
    entry, replaced when the entry's version moves on."""
    held = cache.get(name)
    if held is None or held[0] != version:
        entry = router[name]
        if entry.version != version:
            raise LookupError(f"{name} answered at v{version}, store at "
                              f"v{entry.version}")
        held = cache[name] = (version, PrefixTable.from_synopsis(entry.synopsis))
    return held[1]


def reads_ok(router: ShardRouter, cache: Dict[str, Tuple[int, PrefixTable]],
             requests: Sequence[QueryRequest], results: Sequence[Any]) -> bool:
    """Whether every answer of a batch is exact, checked per (entry, kind)
    with one vectorised evaluation of the entry's own table."""
    if len(results) != len(requests):
        return False
    groups: Dict[Tuple[str, str, int], List[int]] = {}
    for index, (request, result) in enumerate(zip(requests, results)):
        if not result.ok or result.index != index:
            return False
        groups.setdefault((request.name, request.kind, result.version),
                          []).append(index)
    for (name, kind, version), indices in groups.items():
        try:
            table = _check_table(router, cache, name, version)
        except LookupError:
            return False
        columns = [
            np.concatenate([np.atleast_1d(requests[i].args[pos])
                            for i in indices])
            for pos in range(len(requests[indices[0]].args))
        ]
        expected = getattr(table, kind)(*columns)
        got = np.concatenate([np.atleast_1d(results[i].value) for i in indices])
        if not np.array_equal(got, expected):
            return False
    return True


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #


class Workload:
    """Set-up, one timed cycle, and the end-of-run accounting."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer: Optional[tracing.Tracer] = None
        #: Seconds spent in :meth:`_untimed` so far.
        self.untimed_s = 0.0

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def setup(self) -> Tally:
        """Build the system and warm it up; returns the warm-up's tally."""
        raise NotImplementedError

    def cycle(self, tally: Tally) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def layer_metrics(self, tally: Tally) -> Dict[str, float]:
        """Layer metrics read from a tally's own accounting; the
        cohort-only ones are 0 on workloads that never save or plan."""
        lookups = tally.cache_hits + tally.cache_misses
        return {
            "engine.cache_hit_ratio": (
                tally.cache_hits / lookups if lookups else 0.0
            ),
            "planner.error_vs_opt": 0.0,
            "persistence.manifest_bytes_per_series": 0.0,
            "persistence.payload_bytes_per_series": 0.0,
            "persistence.disk_bytes_per_series": 0.0,
            "persistence.files_per_save": 0.0,
        }

    @contextlib.contextmanager
    def _untimed(self):
        """The benchmark's own work: inputs, answer checks and clean-up.

        It is not traced (the checks call the same public functions the
        tracer wraps), and its time is subtracted from ``setup_s``.
        """
        started = time.perf_counter()
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.paused():
                    yield
        finally:
            self.untimed_s += time.perf_counter() - started

    def _serve(self, tally: Tally, router: ShardRouter,
               frontend: AsyncServingFrontend,
               build: Callable[[], list]) -> Tuple[float, list, list]:
        """One read batch: building the requests and serving them are timed,
        the cache counters are read around it.  ``results`` is None when
        ``serve`` raised."""
        before = router.cache_info()
        started = time.perf_counter()
        if self.tracer is not None:
            with self.tracer.span("frontend.request_build"):
                requests = build()
        else:
            requests = build()
        try:
            results = frontend.serve(requests)
        except Exception:  # the program raised: a failed operation
            results = None
        seconds = time.perf_counter() - started
        after = router.cache_info()
        tally.cache_hits += after["hits"] - before["hits"]
        tally.cache_misses += after["misses"] - before["misses"]
        return seconds, requests, results


class _EntryWorkload(Workload):
    """Shared set-up of scalar-mix and vector-rw: 48 long merging entries."""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = self.rng(1)
        self.names = balanced_names("series", ENTRIES_PER_SHARD)
        self.series = [long_series(rng) for _ in self.names]
        self.router: Optional[ShardRouter] = None
        self.frontend: Optional[AsyncServingFrontend] = None
        self.check_cache: Dict[str, Tuple[int, PrefixTable]] = {}

    def _build_router(self) -> None:
        self.close()
        self.check_cache = {}
        router = ShardRouter(num_shards=SHARDS)
        for name, values in zip(self.names, self.series):
            router.register(name, values, family="merging", k=ENTRY_K)
        self.router = router
        self.frontend = AsyncServingFrontend(router)

    def close(self) -> None:
        if self.frontend is not None:
            self.frontend.close()
            self.frontend = None

    def read(self, tally: Tally, build: Callable[[], list],
             answers: int) -> None:
        tally.attempted += 1
        seconds, requests, results = self._serve(tally, self.router,
                                                 self.frontend, build)
        if results is None:
            tally.fail()
            return
        tally.reads.append(seconds)
        tally.answers += answers
        with self._untimed():
            if not reads_ok(self.router, self.check_cache, requests, results):
                tally.fail()

    def write(self, tally: Tally, name: str, op: Callable[[], Any]) -> None:
        tally.attempted += 1
        before = self.router[name].version
        started = time.perf_counter()
        try:
            op()
        except Exception:
            tally.fail()
            return
        tally.writes.append(time.perf_counter() - started)
        if self.router[name].version <= before:
            tally.fail()


class ScalarMix(_EntryWorkload):
    """~1.5k scalar requests per batch over 48 Zipf-popular entries, and one
    re-registration of a long series per batch."""

    name = "scalar-mix"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.weights = zipf_weights(self.rng(2), len(self.names))
        self.batches = self.rng(3)
        self.rewrites = self.rng(4)
        self.write_index = 0

    def setup(self) -> Tally:
        self._build_router()
        warm = Tally()
        batches = self.batches
        self.batches = self.rng(5)
        for _ in range(3):
            self._read(warm)
        self.batches = batches
        return warm

    def _columns(self) -> Tuple[List[str], List[str], List[tuple], int]:
        rng = self.batches
        size = int(rng.integers(*SCALAR_BATCH, endpoint=True))
        kinds_p = np.array([p for _, p in SCALAR_KINDS])
        kind_codes = rng.choice(len(SCALAR_KINDS), size, p=kinds_p)
        entry_codes = rng.choice(len(self.names), size, p=self.weights)
        a = rng.integers(0, SERIES_LEN, size)
        b = rng.integers(0, SERIES_LEN, size)
        lo, hi = np.minimum(a, b).tolist(), np.maximum(a, b).tolist()
        q = rng.random(size).tolist()
        kinds = [SCALAR_KINDS[c][0] for c in kind_codes.tolist()]
        names = [self.names[c] for c in entry_codes.tolist()]
        args = [
            (lo[i], hi[i]) if kind == "range_sum"
            else (q[i],) if kind == "quantile" else (lo[i],)
            for i, kind in enumerate(kinds)
        ]
        return kinds, names, args, size

    def _read(self, tally: Tally) -> None:
        with self._untimed():
            kinds, names, args, size = self._columns()
        self.read(
            tally,
            lambda: [QueryRequest(k, n, a) for k, n, a in zip(kinds, names, args)],
            size,
        )

    def cycle(self, tally: Tally) -> None:
        self._read(tally)
        name = self.names[self.write_index % len(self.names)]
        self.write_index += 1
        with self._untimed():
            values = long_series(self.rewrites)
        self.write(
            tally, name,
            lambda: self.router.register(name, values, family="merging",
                                         k=ENTRY_K),
        )


class VectorRW(_EntryWorkload):
    """16 wide requests per read batch over 52 entries, then one epoch of
    samples into a windowed streaming entry (seals an epoch, refreshes)."""

    name = "vector-rw"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.stream_names = balanced_names("stream", STREAMS // SHARDS)
        self.targets = self.names + self.stream_names
        self.weights = zipf_weights(self.rng(2), len(self.targets))
        self.batches = self.rng(3)
        self.write_index = 0

    def setup(self) -> Tally:
        self._build_router()
        self.sampler = StreamSampler(self.rng(6))
        for name in self.stream_names:
            learner = WindowedStreamLearner(UNIVERSE, STREAM_K, WINDOW,
                                            num_epochs=EPOCHS)
            with self._untimed():
                samples = self.sampler.draw(WINDOW)
            learner.extend(samples)
            self.router.register_stream(name, learner, family="merging",
                                        k=STREAM_K)
        warm = Tally()
        batches = self.batches
        self.batches = self.rng(5)
        for _ in range(3):
            self.cycle(warm)
        self.batches = batches
        self.write_index = 0
        return warm

    def _domain(self, name: str) -> int:
        return UNIVERSE if name.startswith("stream-") else SERIES_LEN

    def _batch(self) -> Tuple[List[tuple], int]:
        rng = self.batches
        requests = []
        answers = 0
        for code in rng.choice(len(self.targets), WIDE_REQUESTS, p=self.weights):
            name = self.targets[code]
            size = int(rng.integers(*WIDE_POINTS, endpoint=True))
            answers += size
            if rng.random() < 0.5:
                n = self._domain(name)
                a = rng.integers(0, n, size)
                b = rng.integers(0, n, size)
                requests.append(("range_sum", name,
                                 (np.minimum(a, b), np.maximum(a, b))))
            else:
                requests.append(("quantile", name, (rng.random(size),)))
        return requests, answers

    def cycle(self, tally: Tally) -> None:
        with self._untimed():
            columns, answers = self._batch()
        self.read(
            tally, lambda: [QueryRequest(k, n, a) for k, n, a in columns],
            answers,
        )
        name = self.stream_names[self.write_index % STREAMS]
        self.write_index += 1
        with self._untimed():
            samples = self.sampler.draw(WINDOW // EPOCHS)
        self.write(tally, name, lambda: self.router.extend(name, samples))


class CohortLifecycle(Workload):
    """Register a fresh cohort, save it, restart from disk, query it."""

    name = "cohort-lifecycle"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        # The template is the same for every seed: the planner's choice of
        # family for the cohort must not flip between seeds, or seeds
        # would differ in how much work a cycle is.  The seed drives each
        # member's scale and noise, and the queries.
        template = np.random.default_rng(0)
        self.base = np.abs(template.normal(2.0, 0.4, COHORT_LEN)) + 0.01
        self.members = self.rng(2)
        self.queries = self.rng(3)
        self.cycle_index = 0
        self.router: Optional[ShardRouter] = None
        self.frontend: Optional[AsyncServingFrontend] = None
        self.error_vs_opt = 0.0

    def _cohort(self) -> List[Tuple[str, np.ndarray]]:
        rng = self.members
        scale = rng.uniform(0.8, 1.25, COHORT_SIZE)
        noise = rng.lognormal(0.0, 0.05, (COHORT_SIZE, COHORT_LEN))
        noise[0] = 1.0  # the first member, which the planner probes
        prefix = f"c{self.cycle_index:03d}-"
        return [(f"{prefix}{j:04d}", self.base * scale[j] * noise[j])
                for j in range(COHORT_SIZE)]

    def setup(self) -> Tally:
        members, queries = self.members, self.queries
        self.members, self.queries = self.rng(2), self.rng(4)
        self.cycle_index = 0
        warm = Tally()
        self.cycle(warm)
        self.members, self.queries = members, queries
        return warm

    def close(self) -> None:
        if self.frontend is not None:
            self.frontend.close()
            self.frontend = None

    def cycle(self, tally: Tally) -> None:
        cohort = f"cohort-{self.cycle_index:03d}"
        target = self.workdir / cohort
        with self._untimed():
            pairs = self._cohort()
            a = self.queries.integers(0, COHORT_LEN, (GROUP_READS, GROUP_RANGES))
            b = self.queries.integers(0, COHORT_LEN, (GROUP_READS, GROUP_RANGES))
            batches = [
                [QueryRequest("group_range_sum", cohort,
                              (np.minimum(x, y), np.maximum(x, y))),
                 QueryRequest("group_top_k", cohort, (GROUP_TOP_M,))]
                for x, y in zip(a, b)
            ]
        self.cycle_index += 1
        self.close()
        self.router = None
        tally.attempted += 1
        started = time.perf_counter()
        try:
            fresh = ShardRouter(num_shards=SHARDS)
            fresh.register_many(pairs, COHORT_BUDGET, cohort=cohort)
            fresh.save(target)
            restarted = ShardRouter.load(target)
            frontend = AsyncServingFrontend(restarted)
        except Exception:
            tally.fail()
            with self._untimed():
                shutil.rmtree(target, ignore_errors=True)
            return
        tally.writes.append(time.perf_counter() - started)
        self.router, self.frontend = restarted, frontend
        with self._untimed():
            tally.saves.append(_disk_usage(target))
            if self.cycle_index == 1:
                self.error_vs_opt = self._error_vs_opt(restarted, pairs)
            names = list(restarted.cohort_members(cohort))
        tables: Optional[List[PrefixTable]] = None
        for batch in batches:
            tally.attempted += 1
            seconds, _, results = self._serve(tally, restarted, frontend,
                                              lambda: list(batch))
            if results is None:
                tally.fail()
                continue
            tally.reads.append(seconds)
            tally.answers += GROUP_RANGES + 1
            with self._untimed():
                if tables is None:
                    tables = [PrefixTable.from_synopsis(restarted[n].synopsis)
                              for n in names]
                if not _group_ok(batch, results, tables, names):
                    tally.fail()
        with self._untimed():
            shutil.rmtree(target, ignore_errors=True)

    @staticmethod
    def _error_vs_opt(router: ShardRouter,
                      pairs: List[Tuple[str, np.ndarray]]) -> float:
        """Mean l2 error over a fixed member sample, relative to opt_k."""
        step = len(pairs) // ERROR_SAMPLE
        ratios = []
        for name, values in pairs[::step][:ERROR_SAMPLE]:
            entry = router[name]
            table = PrefixTable.from_synopsis(entry.synopsis)
            served = table.point_mass(np.arange(values.size))
            error = float(np.linalg.norm(served - values))
            ratios.append(error / v_optimal_histogram(values, entry.k).error)
        return float(np.mean(ratios))

    def layer_metrics(self, tally: Tally) -> Dict[str, float]:
        saves = max(len(tally.saves), 1)
        series = saves * COHORT_SIZE
        return {
            **super().layer_metrics(tally),
            "planner.error_vs_opt": self.error_vs_opt,
            "persistence.manifest_bytes_per_series": sum(
                d["json"] for d in tally.saves) / series,
            "persistence.payload_bytes_per_series": sum(
                d["bin"] for d in tally.saves) / series,
            "persistence.disk_bytes_per_series": sum(
                d["total"] for d in tally.saves) / series,
            "persistence.files_per_save": sum(
                d["files"] for d in tally.saves) / saves,
        }


def _member_sum(tables: List[PrefixTable], a: Any, b: Any) -> np.ndarray:
    total = tables[0].range_sum(a, b)
    for table in tables[1:]:
        total = total + table.range_sum(a, b)
    return total


def _group_ok(batch: List[QueryRequest], results: list,
              tables: List[PrefixTable], names: List[str]) -> bool:
    """Group answers equal the member-wise reduction in member order,
    recomputed here from the members' own tables."""
    if len(results) != len(batch):
        return False
    for request, result in zip(batch, results):
        if not result.ok or list(result.version) != names:
            return False
        if any(version != 0 for version in result.version.values()):
            return False
        if request.kind == "group_range_sum":
            expected = _member_sum(tables, *request.args)
            if not np.array_equal(result.value, expected):
                return False
            continue
        # top-k over the merged partition of the members' pieces
        lefts = np.unique(np.concatenate([t.prefix.lefts for t in tables]))
        rights = np.append(lefts[1:] - 1, tables[0].n - 1)
        masses = _member_sum(tables, lefts, rights)
        order = np.argsort(-masses, kind="stable")[: request.args[0]]
        expected = [(int(lefts[u]), int(rights[u]), float(masses[u]))
                    for u in order]
        if result.value != expected:
            return False
    return True


def _disk_usage(path: Path) -> Dict[str, int]:
    usage = {"json": 0, "bin": 0, "total": 0, "files": 0}
    for file in path.rglob("*"):
        if file.is_file():
            size = file.stat().st_size
            usage["files"] += 1
            usage["total"] += size
            if file.suffix == ".json":
                usage["json"] += size
            elif file.suffix == ".bin":
                usage["bin"] += size
    return usage


WORKLOADS = {w.name: w for w in (ScalarMix, VectorRW, CohortLifecycle)}
