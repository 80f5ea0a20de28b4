"""CLI for the serving engine: ``python -m repro serve`` / ``query`` /
``save`` / ``load`` / ``inspect``.

``query`` is a one-shot batched benchmark: build one synopsis, fire a
batch of random queries at it, print sample answers and throughput.

``serve`` answers queries from stdin, one per line, over a sharded
router that is either built fresh (one synopsis per requested family
over a dataset, distributed over ``--shards`` shards) or loaded from a
persisted store directory (``--store-dir``, lazy; plain and sharded
directories are detected automatically)::

    range <name> <a> <b>      sum over the closed range [a, b]
    mean <name> <a> <b>       average over the closed range [a, b]
    point <name> <x>          point mass at x
    cdf <name> <x>            P[X <= x]
    quantile <name> <q>       smallest x with CDF(x) >= q
    topk <name> <m>           the m heaviest buckets
    inner <a> <b>             inner product of two stored synopses
    heavy <name> <phi>        sliding-window heavy hitters (windowed entries)
    group sum <a> <b> <names...>    exact group range sum over a member set
    group mean <a> <b> <names...>   exact group range mean over a member set
    group topk <m> <names...>       the m heaviest buckets of the group
    cohort                    list the defined cohorts
    cohort <name> <members...>  define (or redefine) a named cohort
    summary                   store metadata
    inspect <name>            one entry: metadata, shard, held table
    plan <name>               an auto-planned entry's decision record
    shards                    per-shard entry counts
    cache                     table hits and misses over every shard
    metrics [text|json]       the metrics exposition
    save <dir>                persist the store (atomic replace)
    quit                      exit

The ``group`` commands answer over a *member set*: either the members
listed inline, or a single cohort name (defined with the ``cohort``
command, via ``register_many(..., cohort=...)``, or loaded from a
persisted store's manifest).  ``--max-resident-bytes B`` attaches a
:class:`~repro.serve.residency.ResidencyManager` to every shard store:
hot entries stay hydrated, cold ones are cooled back to their lazy mmap
hydrators whenever the combined resident payload exceeds B (lazy
``--store-dir`` serving only; a fresh in-memory build has nothing to
cool back to).

``--window W`` (on ``serve`` and ``save``) additionally registers a
sliding-window streaming entry named ``windowed`` — a
:class:`~repro.sampling.windowed.WindowedStreamLearner` over the last W
samples of a stream drawn from the dataset distribution — whose live
window answers the REPL ``heavy`` command (and persists mid-window with
``save``).  ``query --kind heavy_hitters`` benchmarks the same query
one-shot (``--phi`` sets the frequency threshold).

``--families auto`` (or ``--family auto`` on ``query``) turns family
selection over to the build planner: state a budget with ``--max-bytes``
/ ``--max-error`` / ``--max-build-ms`` and the planner probes the cheap
merging families first, escalating to the expensive exact-DP/poly tiers
only when no cheap candidate satisfies it (``plan <name>`` prints the
full decision record).

The persistence commands operate on store directories written by
``SynopsisStore.save`` / ``ShardRouter.save`` (segmented mmap layout;
legacy per-entry npz stores from older saves still load and inspect):

* ``save`` builds one synopsis per family over a dataset and persists the
  store to ``--store-dir`` (``--shards N`` writes the sharded layout).
* ``load`` fully hydrates a persisted store — plain or sharded — warms
  the engines over it, and prints each entry's metadata: a validation
  pass.  ``--shards N`` additionally asserts the shard count.
* ``inspect`` prints the manifest(s) — for a sharded store, the parent
  shard map plus every shard's entries — without reading any payload
  (``--name`` restricts to one entry, touching only its segment).

Dataset-building commands use the Table 1 datasets (``hist``, ``poly``,
``dow``) or a synthetic step signal (``steps``, size ``--n``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence, TextIO

import numpy as np

from ..core.errorutil import error_sort_key, format_error
from ..datasets import offline_datasets
from ..obs import (
    MetricsRegistry,
    get_default_registry,
    render_json_str,
    render_prometheus,
    timer,
)
from ..sampling.windowed import WindowedStreamLearner
from .builders import SYNOPSIS_FAMILIES
from .engine import QueryEngine
from .persistence import (
    StoreCorruptionError,
    detect_store_format,
    entry_plan,
    iter_manifest_entries,
    read_manifest,
    read_sharded_manifest,
)
from .planner import BuildBudget
from .residency import ResidencyManager
from .router import ShardRouter
from .store import SynopsisStore

__all__ = [
    "inspect_main",
    "load_main",
    "metrics_main",
    "query_main",
    "save_main",
    "serve_main",
]


def _load_dataset(name: str, n: int, seed: int) -> np.ndarray:
    if name == "steps":
        if n < 1:
            raise SystemExit(f"--n must be positive, got {n}")
        rng = np.random.default_rng(seed)
        pieces = min(int(rng.integers(4, 9)), n)
        edges = np.sort(rng.choice(np.arange(1, n), size=pieces - 1, replace=False))
        levels = rng.uniform(0.5, 5.0, pieces)
        values = np.repeat(levels, np.diff(np.concatenate(([0], edges, [n]))))
        return values + rng.normal(0.0, 0.05, n)
    datasets = offline_datasets(seed=seed)
    if name not in datasets:
        raise SystemExit(
            f"unknown dataset {name!r}; available: steps, {', '.join(datasets)}"
        )
    return np.abs(np.asarray(datasets[name][0], dtype=np.float64)) + 1e-9


def _dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        default="steps",
        help="steps (synthetic), or a Table 1 dataset: hist, poly, dow",
    )
    parser.add_argument("--n", type=int, default=4096, help="size of the steps dataset")
    parser.add_argument("--k", type=int, default=16, help="synopsis piece budget")
    parser.add_argument("--seed", type=int, default=0)


def _families_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--families",
        default="merging,wavelet,gks,poly",
        help="comma-separated synopsis families to register; 'auto' "
        "plans the family/k from the --max-bytes/--max-error/"
        "--max-build-ms budget",
    )


def _budget_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-bytes",
        type=float,
        default=None,
        help="auto-planning budget: max stored synopsis bytes",
    )
    parser.add_argument(
        "--max-error",
        type=float,
        default=None,
        help="auto-planning budget: max exact l2 build error",
    )
    parser.add_argument(
        "--max-build-ms",
        type=float,
        default=None,
        help="auto-planning budget: max per-candidate build time (ms)",
    )


def _budget_from_args(args: argparse.Namespace) -> BuildBudget:
    try:
        return BuildBudget(
            max_bytes=args.max_bytes,
            max_error=args.max_error,
            max_build_ms=args.max_build_ms,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _window_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="W",
        help="additionally register a sliding-window streaming entry named "
        "'windowed': a WindowedStreamLearner over the last W samples of a "
        "stream drawn from the dataset distribution (2*W samples are fed, "
        "so the window has already slid); query it with the REPL 'heavy' "
        "command or --kind heavy_hitters",
    )


def _make_windowed_learner(
    values: np.ndarray, window: int, k: int, seed: int
) -> WindowedStreamLearner:
    """The one recipe behind ``--window``: a windowed learner fed ``2*W``
    samples drawn from the dataset distribution, so the window has
    already slid.  Shared by ``serve``/``save`` and ``query --kind
    heavy_hitters`` so both surfaces answer over the same stream."""
    if window < 1:
        raise SystemExit(f"--window must be positive, got {window}")
    rng = np.random.default_rng(seed + 17)
    weights = values / values.sum()
    learner = WindowedStreamLearner(n=values.size, k=k, window_size=window)
    learner.extend(rng.choice(values.size, size=2 * window, p=weights))
    return learner


def _shards_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="shard the store by name over N store/engine pairs "
        "(default: 1 when building fresh; a loaded store keeps its own "
        "shard count, which this flag then merely asserts)",
    )


def _build_family_router(args: argparse.Namespace) -> ShardRouter:
    """One synopsis per requested family, distributed over the shards."""
    values = _load_dataset(args.dataset, args.n, args.seed)
    shards = 1 if args.shards is None else args.shards
    if shards < 1:
        raise SystemExit(f"--shards must be positive, got {shards}")
    router = ShardRouter(num_shards=shards)
    for family in args.families.split(","):
        family = family.strip()
        if not family:
            continue
        if family == "auto":
            try:
                router.register_auto(family, values, _budget_from_args(args))
            except ValueError as exc:  # infeasible or unconstrained budget
                raise SystemExit(f"error: {exc}")
            continue
        if family not in SYNOPSIS_FAMILIES:
            raise SystemExit(
                f"unknown synopsis family {family!r}; "
                f"available: auto, {', '.join(sorted(SYNOPSIS_FAMILIES))}"
            )
        router.register(family, values, family=family, k=args.k)
    if getattr(args, "window", None) is not None:
        router.register_stream(
            "windowed",
            _make_windowed_learner(values, args.window, args.k, args.seed),
        )
    return router


def _detect_format_or_exit(store_dir: str) -> str:
    try:
        return detect_store_format(store_dir)
    except (FileNotFoundError, StoreCorruptionError) as exc:
        raise SystemExit(f"error: {exc}")


def _load_router_or_exit(
    store_dir: str,
    lazy: bool = True,
    expect_shards: Optional[int] = None,
) -> ShardRouter:
    """Load a plain or sharded store directory as a router, transparently."""
    layout = _detect_format_or_exit(store_dir)
    try:
        if layout == "sharded":
            router = ShardRouter.load(store_dir, lazy=lazy)
        else:
            router = ShardRouter.from_stores(
                [SynopsisStore.load(store_dir, lazy=lazy)]
            )
    except (FileNotFoundError, StoreCorruptionError) as exc:
        raise SystemExit(f"error: {exc}")
    if expect_shards is not None and router.num_shards != expect_shards:
        raise SystemExit(
            f"error: {store_dir} holds {router.num_shards} shard(s), "
            f"--shards asked for {expect_shards}"
        )
    return router


def _save_router(router: ShardRouter, target: str) -> None:
    """Persist a router: a one-shard router round-trips as a plain store,
    keeping single-shard deployments compatible with the unsharded layout."""
    if router.num_shards == 1:
        # Router-level cohorts (REPL 'cohort' command, register_many at
        # the router surface) live above the store; sync them down so the
        # plain-layout manifest keeps them across the round trip.
        store = router.shards[0].store
        store._cohorts.adopt(router.cohorts(), store)
        store.save(target)
    else:
        router.save(target)


def _summary_line(meta: dict) -> str:
    line = (
        f"{meta['name']}: family={meta['family']} pieces={meta['pieces']} "
        f"stored={meta['stored_numbers']} error={format_error(meta['error'])} "
        f"version={meta['version']}"
    )
    if "shard" in meta:
        line += f" shard={meta['shard']}"
    if meta.get("planned"):
        line += " planned"
    if meta.get("streaming"):
        line += f" streaming samples={meta.get('samples_seen', 0)}"
        if meta.get("windowed"):
            line += f" window={meta.get('window_total', 0)}"
    if meta.get("build_seconds") is not None:
        line += f" build={meta['build_seconds'] * 1e3:.2f}ms"
    return line


def query_main(argv: Optional[Sequence[str]] = None) -> int:
    """One-shot batched query benchmark over a single synopsis."""
    parser = argparse.ArgumentParser(
        prog="python -m repro query", description=query_main.__doc__
    )
    _dataset_arguments(parser)
    _budget_arguments(parser)
    parser.add_argument(
        "--family",
        default="merging",
        choices=["auto"] + sorted(SYNOPSIS_FAMILIES),
        help="synopsis family; 'auto' plans it from the budget flags",
    )
    parser.add_argument(
        "--kind",
        default="range_sum",
        choices=[
            "range_sum",
            "range_mean",
            "point_mass",
            "cdf",
            "quantile",
            "inner_product",
            "heavy_hitters",
        ],
        help="query kind; inner_product pairs the synopsis with a "
        "lossless 'exact' synopsis of the same dataset; heavy_hitters "
        "streams samples from the dataset distribution into a sliding "
        "window (--window) and reports phi-heavy positions (--phi)",
    )
    parser.add_argument("--num-queries", type=int, default=10_000)
    parser.add_argument("--show", type=int, default=5, help="answers to print")
    parser.add_argument(
        "--cohort",
        type=int,
        default=None,
        metavar="N",
        help="group-by benchmark: register N member series as one cohort "
        "(bulk register_many with --family auto amortizes one plan over "
        "the batch) and answer --kind range_sum/range_mean as exact "
        "group queries over the whole cohort",
    )
    _window_argument(parser)
    parser.add_argument(
        "--phi",
        type=float,
        default=None,
        help="heavy-hitter frequency threshold (heavy_hitters only; "
        "default 0.05)",
    )
    args = parser.parse_args(argv)

    if args.kind != "heavy_hitters" and (
        args.window is not None or args.phi is not None
    ):
        # Mirror the serve --store-dir guard: accepting the flags and
        # silently benchmarking the plain synopsis path instead would
        # leave the user believing they measured a windowed entry.
        raise SystemExit(
            f"error: --window/--phi only apply to --kind heavy_hitters, "
            f"not {args.kind!r}"
        )
    if args.cohort is not None and args.kind not in ("range_sum", "range_mean"):
        raise SystemExit(
            f"error: --cohort only applies to --kind range_sum/range_mean, "
            f"not {args.kind!r}"
        )
    values = _load_dataset(args.dataset, args.n, args.seed)
    if args.kind == "heavy_hitters":
        return _heavy_hitters_query(args, values)
    if args.cohort is not None:
        return _cohort_query(args, values)
    store = SynopsisStore()
    if args.family == "auto":
        try:
            entry = store.register_auto(
                args.dataset, values, _budget_from_args(args)
            )
        except ValueError as exc:  # infeasible or unconstrained budget
            raise SystemExit(f"error: {exc}")
        for line in entry.plan.explain():
            print(line)
    else:
        entry = store.register(args.dataset, values, family=args.family, k=args.k)
    engine = QueryEngine(store)

    rng = np.random.default_rng(args.seed + 1)
    n = entry.result.n
    if args.kind == "inner_product":
        reference = f"{args.dataset}#exact"
        store.register(reference, values, family="exact", k=1)
        run = lambda: [
            engine.inner_product(args.dataset, reference)
            for _ in range(args.num_queries)
        ]
    elif args.kind in ("range_sum", "range_mean"):
        a = rng.integers(0, n, args.num_queries)
        b = rng.integers(0, n, args.num_queries)
        a, b = np.minimum(a, b), np.maximum(a, b)
        method = getattr(engine, args.kind)
        run = lambda: method(args.dataset, a, b)
    elif args.kind == "point_mass":
        x = rng.integers(0, n, args.num_queries)
        run = lambda: engine.point_mass(args.dataset, x)
    elif args.kind == "cdf":
        x = rng.integers(0, n, args.num_queries)
        run = lambda: engine.cdf(args.dataset, x)
    else:
        q = rng.random(args.num_queries)
        run = lambda: engine.quantile(args.dataset, q)

    try:
        run()  # build the entry's prefix table
        with timer() as timed:
            answers = run()
        elapsed = timed.seconds
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")

    meta = entry.describe()
    print(
        f"{meta['family']} synopsis of {args.dataset!r}: n={meta['n']} "
        f"pieces={meta['pieces']} stored={meta['stored_numbers']} "
        f"error={format_error(meta['error'])} "
        f"build={meta['build_seconds'] * 1e3:.2f}ms"
    )
    shown = np.atleast_1d(answers)[: args.show]
    print(f"{args.kind} x {args.num_queries}: first {shown.size} answers: "
          + " ".join(f"{v:.6g}" for v in shown))
    qps = args.num_queries / max(elapsed, 1e-12)
    print(f"batched evaluation: {elapsed * 1e3:.3f}ms total, {qps:,.0f} queries/sec")
    return 0


def _cohort_query(args: argparse.Namespace, values: np.ndarray) -> int:
    """The ``--cohort N`` path: bulk-register a member fleet, then answer
    the query kind as an exact group query over the whole cohort."""
    if args.cohort < 1:
        raise SystemExit(f"--cohort must be positive, got {args.cohort}")
    store = SynopsisStore()
    names = [f"{args.dataset}#{i}" for i in range(args.cohort)]
    reused = probed = None
    try:
        if args.family == "auto":
            entries = store.register_many(
                [(name, values) for name in names],
                _budget_from_args(args),
                cohort="cohort",
            )
            registry = get_default_registry()
            reused = registry.counter("plans_reused_total").value
            probed = registry.counter("plans_probed_total").value
        else:
            entries = [
                store.register(name, values, family=args.family, k=args.k)
                for name in names
            ]
            store.define_cohort("cohort", names)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    engine = QueryEngine(store)

    rng = np.random.default_rng(args.seed + 1)
    n = values.size
    a = rng.integers(0, n, args.num_queries)
    b = rng.integers(0, n, args.num_queries)
    a, b = np.minimum(a, b), np.maximum(a, b)
    method = (
        engine.group_range_sum
        if args.kind == "range_sum"
        else engine.group_range_mean
    )
    try:
        method("cohort", a, b)  # warm the cohort's stacked table
        with timer() as timed:
            answers, _versions = method("cohort", a, b)
        elapsed = timed.seconds
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")

    meta = entries[0].describe()
    line = (
        f"cohort of {args.cohort} members over {args.dataset!r}: "
        f"family={meta['family']} n={meta['n']} pieces={meta['pieces']} "
        f"stored={meta['stored_numbers']}/member"
    )
    if reused is not None:
        line += f" plans: {reused} reused, {probed} probed"
    print(line)
    shown = np.atleast_1d(answers)[: args.show]
    print(
        f"group_{args.kind} x {args.num_queries}: first {shown.size} answers: "
        + " ".join(f"{v:.6g}" for v in shown)
    )
    qps = args.num_queries / max(elapsed, 1e-12)
    print(f"batched evaluation: {elapsed * 1e3:.3f}ms total, {qps:,.0f} queries/sec")
    return 0


def _heavy_hitters_query(args: argparse.Namespace, values: np.ndarray) -> int:
    """The ``--kind heavy_hitters`` path: windowed stream, then hh queries."""
    window = 50_000 if args.window is None else args.window
    phi = 0.05 if args.phi is None else args.phi
    learner = _make_windowed_learner(values, window, args.k, args.seed)
    try:
        store = SynopsisStore()
        entry = store.register_stream(args.dataset, learner)
        engine = QueryEngine(store)
        run = lambda: [
            engine.heavy_hitters(args.dataset, phi)
            for _ in range(args.num_queries)
        ]
        run()  # warm
        with timer() as timed:
            answers = run()
        elapsed = timed.seconds
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    meta = entry.describe()
    print(
        f"windowed stream of {args.dataset!r}: n={meta['n']} "
        f"window={learner.window_total} (target {window}) "
        f"epochs={learner.live_epochs} samples={learner.samples_seen} "
        f"sketch_eps={learner.sketch_eps}"
    )
    hitters = answers[-1]
    shown = ", ".join(f"{pos} (count>={cnt})" for pos, cnt in hitters[: args.show])
    print(
        f"heavy_hitters(phi={phi}) x {args.num_queries}: "
        f"{len(hitters)} hitters: {shown or '(none)'}"
    )
    qps = args.num_queries / max(elapsed, 1e-12)
    print(f"evaluation: {elapsed * 1e3:.3f}ms total, {qps:,.0f} queries/sec")
    return 0


def _merged_registry(router) -> MetricsRegistry:
    """The full metrics view: router registry + process-default registry.

    The router's registry holds the serving-side series (per-shard
    engine/store/front-end); build and planner metrics live in the
    process-wide default registry.  Merging into a fresh registry — the
    same ``merge()`` discipline the latency histograms support — yields
    one exposition document without mutating either source.
    """
    merged = MetricsRegistry()
    merged.merge_from(router.registry)
    merged.merge_from(get_default_registry())
    return merged


def _print_metrics(out, router: ShardRouter, fmt: str) -> None:
    if fmt == "json":
        print(render_json_str(_merged_registry(router)), file=out)
    elif fmt == "text":
        print(render_prometheus(_merged_registry(router)), end="", file=out)
    else:
        print(f"unknown metrics format {fmt!r} (expected text or json)", file=out)


def _print_answer(out, value) -> None:
    if isinstance(value, float):
        print(f"{value:.12g}", file=out)
    else:
        print(value, file=out)


def serve_main(
    argv: Optional[Sequence[str]] = None,
    stdin: Optional[TextIO] = None,
    stdout: Optional[TextIO] = None,
) -> int:
    """Interactive serving loop over a (sharded) store of synopses."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve", description=serve_main.__doc__
    )
    _dataset_arguments(parser)
    _families_argument(parser)
    _budget_arguments(parser)
    _shards_argument(parser)
    _window_argument(parser)
    parser.add_argument(
        "--store-dir",
        default=None,
        help="serve a persisted store directory (lazy; plain or sharded, "
        "detected automatically) instead of building synopses from "
        "--dataset/--families",
    )
    parser.add_argument(
        "--max-resident-bytes",
        type=int,
        default=None,
        metavar="B",
        help="tiered residency: cool the least recently hydrated "
        "lazily-loaded entries back to their mmap hydrators whenever the "
        "shards' combined resident payload bytes exceed B (--store-dir "
        "serving only)",
    )
    args = parser.parse_args(argv)
    src = sys.stdin if stdin is None else stdin
    out = sys.stdout if stdout is None else stdout

    if args.store_dir is not None:
        if args.window is not None:
            # A loaded store serves its persisted entries; silently
            # dropping the flag would leave the user hunting for the
            # 'windowed' entry it never registered.
            raise SystemExit(
                "error: --window cannot be combined with --store-dir "
                "(save the store with --window instead)"
            )
        router = _load_router_or_exit(
            args.store_dir, lazy=True, expect_shards=args.shards
        )
        source = f"store {args.store_dir!r}"
    else:
        router = _build_family_router(args)
        source = f"{args.dataset!r}"

    print(
        f"serving {len(router)} synopses of {source} on "
        f"{router.num_shards} shard(s) "
        f"({', '.join(router.names())}); "
        f"commands: range mean point cdf quantile topk inner heavy group "
        f"cohort summary inspect plan shards cache metrics save quit",
        file=out,
    )
    residency = None
    if args.max_resident_bytes is not None:
        residency = ResidencyManager(args.max_resident_bytes)
        for shard in router.shards:
            residency.watch(shard.store)
        residency.enforce()
    for line in src:
        words = line.split()
        if not words:
            continue
        cmd = words[0].lower()
        try:
            if cmd in {"quit", "exit"}:
                break
            elif cmd == "summary":
                for meta in router.summary():
                    print(_summary_line(meta), file=out)
            elif cmd == "save":
                _save_router(router, words[1])
                print(f"saved {len(router)} entries to {words[1]}", file=out)
            elif cmd == "cache":
                info = router.cache_info()
                print(f"cache: hits={info['hits']} misses={info['misses']}", file=out)
            elif cmd == "metrics":
                _print_metrics(out, router, words[1] if len(words) > 1 else "text")
            elif cmd == "inspect":
                meta = router.describe(words[1])
                print(_summary_line(meta), file=out)
                held = router[words[1]].table is not None
                print(f"  table: {'held' if held else 'not held'}", file=out)
            elif cmd == "shards":
                for shard in router.shards:
                    row = shard.store.residency()
                    print(
                        f"shard {shard.index}: {len(shard.store)} entries "
                        f"({', '.join(shard.store.names()) or '-'}) "
                        f"hydrated={row['hydrated']} cold={row['cold']} "
                        f"resident={row['resident_bytes']}B",
                        file=out,
                    )
                if residency is not None:
                    info = residency.describe()
                    print(
                        f"residency: budget={info['max_resident_bytes']}B "
                        f"resident={info['resident_bytes']}B "
                        f"evictions={info['evictions']}",
                        file=out,
                    )
            elif cmd == "plan":
                plan = router.plan_of(words[1])
                if plan is None:
                    print(
                        f"entry {words[1]!r} was not auto-planned "
                        f"(registered with an explicit family)",
                        file=out,
                    )
                else:
                    for line in plan.explain():
                        print(line, file=out)
            elif cmd == "inner":
                _print_answer(out, router.inner_product(words[1], words[2]))
            elif cmd == "heavy":
                name, phi = words[1], float(words[2])
                hitters = router.heavy_hitters(name, phi)
                if not hitters:
                    print("(no heavy hitters)", file=out)
                for pos, count in hitters:
                    print(f"{pos}: count>={count}", file=out)
            elif cmd == "group":
                sub = words[1].lower()
                if sub in {"sum", "mean"}:
                    a, b = int(words[2]), int(words[3])
                    # One trailing word resolves as a cohort name (or a
                    # comma list); several words are the members inline.
                    spec = words[4:] if len(words) > 5 else words[4]
                    method = (
                        router.group_range_sum
                        if sub == "sum"
                        else router.group_range_mean
                    )
                    value, versions = method(spec, a, b)
                    _print_answer(out, value)
                    print(f"  group of {len(versions)} member(s)", file=out)
                elif sub == "topk":
                    m = int(words[2])
                    spec = words[3:] if len(words) > 4 else words[3]
                    buckets, versions = router.group_top_k(spec, m)
                    for left, right, mass in buckets:
                        print(f"[{left}, {right}] mass={mass:.12g}", file=out)
                    print(f"  group of {len(versions)} member(s)", file=out)
                else:
                    raise ValueError(
                        f"unknown group query {sub!r} "
                        f"(expected sum, mean, or topk)"
                    )
            elif cmd == "cohort":
                if len(words) == 1:
                    cohorts = router.cohorts()
                    if not cohorts:
                        print("(no cohorts defined)", file=out)
                    for name, members in sorted(cohorts.items()):
                        print(f"{name}: {', '.join(members)}", file=out)
                else:
                    router.define_cohort(words[1], words[2:])
                    print(
                        f"cohort {words[1]}: {', '.join(words[2:])}", file=out
                    )
            elif cmd == "range":
                name, a, b = words[1], int(words[2]), int(words[3])
                _print_answer(out, router.range_sum(name, a, b))
            elif cmd == "mean":
                name, a, b = words[1], int(words[2]), int(words[3])
                _print_answer(out, router.range_mean(name, a, b))
            elif cmd == "point":
                name, x = words[1], int(words[2])
                _print_answer(out, router.point_mass(name, x))
            elif cmd == "cdf":
                name, x = words[1], int(words[2])
                _print_answer(out, router.cdf(name, x))
            elif cmd == "quantile":
                name, q = words[1], float(words[2])
                _print_answer(out, router.quantile(name, q))
            elif cmd == "topk":
                name, m = words[1], int(words[2])
                for left, right, mass in router.top_k_buckets(name, m):
                    print(f"[{left}, {right}] mass={mass:.12g}", file=out)
            else:
                print(f"unknown command {cmd!r}", file=out)
        except BrokenPipeError:
            # The reader of our output went away (``serve ... | grep -q``):
            # nothing more can reach it, so stop serving quietly rather
            # than print it as an OSError below.  ``repro.__main__``
            # handles the final flush.
            break
        except (
            KeyError,
            ValueError,
            IndexError,
            OSError,
            StoreCorruptionError,
        ) as exc:
            print(f"error: {exc}", file=out)
    return 0


def metrics_main(
    argv: Optional[Sequence[str]] = None,
    stdout: Optional[TextIO] = None,
) -> int:
    """Probe a persisted store with queries and print its metrics exposition."""
    parser = argparse.ArgumentParser(
        prog="python -m repro metrics", description=metrics_main.__doc__
    )
    parser.add_argument("store_dir", help="store directory to load and probe")
    parser.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="Prometheus text exposition (default) or the JSON document "
        "with p50/p95/p99 precomputed per histogram",
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=64,
        metavar="B",
        help="batched probe queries per entry (exercises the serving hot "
        "path so the exposition shows real latency series)",
    )
    parser.add_argument(
        "--no-probe",
        action="store_true",
        help="report registry state without querying any entry: no "
        "payload is hydrated, so a cold store renders instantly",
    )
    _shards_argument(parser)
    args = parser.parse_args(argv)
    out = sys.stdout if stdout is None else stdout
    if args.queries < 1:
        raise SystemExit(f"--queries must be positive, got {args.queries}")

    router = _load_router_or_exit(
        args.store_dir, lazy=True, expect_shards=args.shards
    )
    if not args.no_probe:
        rng = np.random.default_rng(0)
        for name in router.names():
            try:
                n = int(router.describe(name)["n"])
                a = rng.integers(0, n, args.queries)
                b = rng.integers(0, n, args.queries)
                router.range_sum(name, np.minimum(a, b), np.maximum(a, b))
                router.point_mass(name, rng.integers(0, n, args.queries))
            except (KeyError, ValueError, TypeError, StoreCorruptionError) as exc:
                # stderr, not the exposition stream: a failed probe must not
                # corrupt the JSON document or the text-format payload.
                print(f"probe of {name!r} failed: {exc}", file=sys.stderr)
    _print_metrics(out, router, args.format)
    return 0


def save_main(argv: Optional[Sequence[str]] = None) -> int:
    """Build synopses over a dataset and persist the store to a directory."""
    parser = argparse.ArgumentParser(
        prog="python -m repro save", description=save_main.__doc__
    )
    _dataset_arguments(parser)
    _families_argument(parser)
    _budget_arguments(parser)
    _shards_argument(parser)
    _window_argument(parser)
    parser.add_argument("--store-dir", required=True, help="output store directory")
    args = parser.parse_args(argv)

    router = _build_family_router(args)
    try:
        _save_router(router, args.store_dir)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    for meta in router.summary():
        print(_summary_line(meta))
    layout = f" across {router.num_shards} shards" if router.num_shards > 1 else ""
    print(f"saved {len(router)} entries to {args.store_dir}{layout}")
    return 0


def load_main(argv: Optional[Sequence[str]] = None) -> int:
    """Load and fully validate a persisted store (hydrates every entry)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro load", description=load_main.__doc__
    )
    parser.add_argument("store_dir", help="store directory to load")
    _shards_argument(parser)
    args = parser.parse_args(argv)

    router = _load_router_or_exit(
        args.store_dir, lazy=False, expect_shards=args.shards
    )
    try:
        tables = router.warm()
    except (StoreCorruptionError, ValueError, TypeError) as exc:
        raise SystemExit(f"error: {exc}")
    for name in router.names():
        print(_summary_line(router.describe(name)))
    print(
        f"loaded {len(router)} entries on {router.num_shards} shard(s), "
        f"{tables} prefix tables warm"
    )
    return 0


def _manifest_entry_error(record) -> float:
    """An entry record's error as a float.

    Absent or null errors are legitimately *unmeasured* (NaN); a present
    but unparseable value is manifest rot and must fail loudly, exactly
    like every other rotted field — ``inspect`` printing "unmeasured"
    for a store that ``load`` rejects would mask the corruption.
    Structurally rotted records (not a dict at all) return NaN here so
    the per-entry print loop reports them with its own clear error.
    """
    result = record.get("result", {}) if isinstance(record, dict) else {}
    value = result.get("error") if isinstance(result, dict) else None
    if value is None:
        return float("nan")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise SystemExit(
            f"error: invalid manifest entry error value {value!r}"
        )


def _manifest_entry_count(manifest: dict) -> int:
    """Total entries recorded by a manifest, any schema.

    Schema <= 3 manifests list entries inline; schema 4 index manifests
    record per-segment counts instead, so the sum is the store size
    without opening any segment manifest.
    """
    if "entries" in manifest:
        return len(manifest["entries"])
    return sum(int(seg.get("count", 0)) for seg in manifest.get("segments", []))


def _manifest_header(manifest: dict) -> str:
    """The one-line store header ``inspect``/``load`` print."""
    header = (
        f"{manifest['format']} schema={manifest['schema']} "
        f"entries={_manifest_entry_count(manifest)}"
    )
    if "segments" in manifest:
        header += f" segments={len(manifest['segments'])}"
    return header


def _manifest_payload_label(record: dict) -> object:
    """Printable payload location for one entry record.

    npz records carry the payload file name as a string; mmap records
    carry a spec dict (skeleton + array offsets) whose data file lives
    in the sibling ``segment`` key stamped by ``iter_manifest_entries``.
    """
    payload = record.get("payload")
    if isinstance(payload, dict):
        arrays = payload.get("arrays", {})
        count = len(arrays) if isinstance(arrays, dict) else 0
        return f"{record.get('segment')}:{count} arrays"
    return payload


def _sorted_manifest_entries(entries: list, sort_by: str) -> list:
    """Entry records ordered for ``inspect`` — NaN-safe by design.

    Sorting on the raw error float would scatter unmeasured (NaN) entries
    wherever the input order left them (every NaN comparison is false);
    :func:`~repro.core.errorutil.error_sort_key` pins them in an explicit
    bucket after all measured errors instead.
    """
    entries = list(entries)
    if sort_by == "error":
        entries.sort(key=lambda r: error_sort_key(_manifest_entry_error(r)))
    elif sort_by == "stored":
        try:
            entries.sort(
                key=lambda r: int(r.get("result", {}).get("stored_numbers", 0))
                if isinstance(r, dict)
                else 0
            )
        except (AttributeError, TypeError, ValueError):
            pass  # rotted records are reported entry by entry below
    elif sort_by == "bytes":
        # Largest payload first: the view an operator reads when a
        # residency budget is under pressure and asks what to cool.
        try:
            entries.sort(
                key=lambda r: int(r.get("result", {}).get("stored_numbers", 0))
                if isinstance(r, dict)
                else 0,
                reverse=True,
            )
        except (AttributeError, TypeError, ValueError):
            pass  # rotted records are reported entry by entry below
    return entries


def _print_manifest_entries(
    store_dir: str,
    manifest: dict,
    sort_by: str = "manifest",
    names: Optional[Sequence[str]] = None,
) -> None:
    try:
        records = iter_manifest_entries(store_dir, manifest=manifest, names=names)
    except (StoreCorruptionError, FileNotFoundError) as exc:
        raise SystemExit(f"error: {exc}")
    for record in _sorted_manifest_entries(records, sort_by):
        try:
            result = record.get("result", {})
            line = (
                f"{record.get('name')}: family={result.get('family')} "
                f"k={result.get('k')} n={result.get('n')} "
                f"pieces={result.get('pieces')} stored={result.get('stored_numbers')} "
                f"error={format_error(_manifest_entry_error(record))} "
                f"version={record.get('version')} "
                f"payload={_manifest_payload_label(record)}"
            )
            plan = entry_plan(record)
            if plan is not None:
                line += (
                    f" planned[{plan.chosen.label()} "
                    f"of {len(plan.candidates)} candidates]"
                )
            if record.get("streaming"):
                line += f" streaming samples={record.get('samples_seen', 0)}"
                if record.get("windowed"):
                    line += f" window={record.get('window_total', 0)}"
        except (AttributeError, TypeError, ValueError, KeyError, IndexError) as exc:
            raise SystemExit(
                f"error: invalid manifest entry in {store_dir}: {exc}"
            )
        print(line)


def inspect_main(argv: Optional[Sequence[str]] = None) -> int:
    """Print a persisted store's manifest(s) without reading any payload."""
    parser = argparse.ArgumentParser(
        prog="python -m repro inspect", description=inspect_main.__doc__
    )
    parser.add_argument("store_dir", help="store directory to inspect")
    parser.add_argument(
        "--sort",
        default="manifest",
        choices=["manifest", "error", "stored", "bytes"],
        help="entry order: manifest order (default), by build error "
        "(unmeasured errors sort last, never silently first), by "
        "stored size ascending, or by payload bytes descending "
        "(largest first: the residency-pressure view)",
    )
    parser.add_argument(
        "--name",
        action="append",
        metavar="NAME",
        help="only show this entry (repeatable); on a segmented store "
        "only the segments holding the named entries are opened",
    )
    _shards_argument(parser)
    args = parser.parse_args(argv)

    layout = _detect_format_or_exit(args.store_dir)
    try:
        if layout == "sharded":
            parent = read_sharded_manifest(args.store_dir)
            if args.shards is not None and parent["num_shards"] != args.shards:
                raise SystemExit(
                    f"error: {args.store_dir} holds {parent['num_shards']} "
                    f"shard(s), --shards asked for {args.shards}"
                )
            assignments = parent["shard_map"].get("assignments", {})
            print(
                f"{parent['format']} schema={parent['schema']} "
                f"shards={parent['num_shards']} entries={len(assignments)}"
            )
            for name, shard in assignments.items():
                if args.name is not None and name not in args.name:
                    continue
                print(f"map {name} -> shard {shard}")
            for shard_dir in parent["shard_dirs"]:
                shard_path = Path(args.store_dir) / shard_dir
                manifest = read_manifest(shard_path)
                header = (
                    f"{shard_dir}: schema={manifest['schema']} "
                    f"entries={_manifest_entry_count(manifest)}"
                )
                if "segments" in manifest:
                    header += f" segments={len(manifest['segments'])}"
                print(header)
                _print_manifest_entries(
                    str(shard_path), manifest, args.sort, names=args.name
                )
            return 0
        if args.shards is not None and args.shards != 1:
            raise SystemExit(
                f"error: {args.store_dir} is an unsharded store, "
                f"--shards asked for {args.shards}"
            )
        manifest = read_manifest(args.store_dir)
    except (FileNotFoundError, StoreCorruptionError) as exc:
        raise SystemExit(f"error: {exc}")
    print(_manifest_header(manifest))
    _print_manifest_entries(args.store_dir, manifest, args.sort, names=args.name)
    return 0
