"""Synopsis serving: build, store, and answer queries over synopses.

The construction algorithms (merging, hierarchical, GKS, exact DP, wavelet,
piecewise-polynomial) produce compact summaries; this package turns them
into a queryable system:

* :mod:`repro.serve.builders` — a registry of synopsis builders, one per
  family in the repo, returning the synopsis plus size/error/build-time
  metadata; each registration carries :class:`FamilySpec` capability
  metadata (cost class, k-range, error monotonicity) for the planner.
* :mod:`repro.serve.planner` — error-budget auto-family selection:
  :func:`plan_build` takes a :class:`BuildBudget` (max bytes / max l2
  error / max build ms), probes the paper's cheap merging families
  first, escalates to the expensive exact-DP/poly tiers only for
  feasibility, and returns a :class:`BuildPlan` decision record that
  persists with the store (``store.register_auto`` /
  ``router.register_auto``).
* :mod:`repro.serve.store` — :class:`SynopsisStore`, a named collection of
  built synopses with versioning and streaming-backed refresh.
* :mod:`repro.serve.persistence` — durable store directories: a JSON
  segment index + memory-mappable raw-array segments, atomic replace,
  lazy hydration (``store.save(path)`` / ``SynopsisStore.load(path)``;
  legacy per-entry npz stores still load).
* :mod:`repro.serve.engine` — :class:`QueryEngine`, batched vectorized
  ``range_sum`` / ``range_mean`` / ``point_mass`` / ``cdf`` /
  ``quantile`` / ``top_k_buckets`` evaluation over the store, from the
  one :class:`PrefixTable` prefix-integral table each store entry holds
  for its current synopsis (engine-wide hit/miss counters, thread-safe).
* :mod:`repro.serve.cohorts` — the one cohort registry a store and a
  router each hold: ordered, validated member lists, one cached
  :class:`CohortTable` per named cohort keyed by the members' version
  vector, and the manifest's ``"cohorts"`` table.
* :mod:`repro.serve.router` — :class:`ShardRouter`, name-sharded serving
  over N concurrent store/engine pairs with an explicit, persisted
  :class:`ShardMap`: new names land by stable hash, and only an explicit
  ``migrate`` or a sticky ``reshard`` moves an entry.
* :mod:`repro.serve.frontend` — :class:`AsyncServingFrontend`, an
  asyncio front end fanning multi-name query batches out per shard on a
  thread pool, answering each shard job's requests of one kind with one
  call of its entries' stacked :class:`PrefixTable`, and reassembling
  answers in request order with per-answer snapshot versions.
* :mod:`repro.serve.residency` — :class:`ResidencyManager`, tiered
  residency under a global memory budget: hot entries stay hydrated,
  cold ones cool back to their lazy mmap hydrators.
* :mod:`repro.serve.cli` — the ``python -m repro serve`` / ``query`` /
  ``save`` / ``load`` / ``inspect`` subcommands (``--shards N`` shards
  transparently).

Fleet-scale cohorts: :meth:`SynopsisStore.register_many` /
:meth:`ShardRouter.register_many` bulk-register many series under one
amortized :func:`plan_cohort` plan, optionally naming the batch as a
*cohort* the group-by query kinds (``group_range_sum`` /
``group_range_mean`` / ``group_top_k``) answer exactly in one call,
through one :class:`CohortTable` that stacks the members' tables.  The
engine and the router share one group path: a warm query on a named
cohort reuses its cached table and builds none.
"""

from .builders import (
    COST_CLASSES,
    SYNOPSIS_CODECS,
    SYNOPSIS_FAMILIES,
    BuildResult,
    FamilySpec,
    build_synopsis,
    build_synopsis_many,
    family_spec,
    register_builder,
    register_synopsis_codec,
    synopsis_from_dict,
    synopsis_size,
    synopsis_to_dict,
)
from .cohorts import CohortTable
from .engine import GROUP_QUERY_KINDS, CacheStats, PrefixTable, QueryEngine
from .frontend import AsyncServingFrontend, QueryRequest, QueryResult
from .planner import (
    BudgetInfeasibleError,
    BuildBudget,
    BuildPlan,
    CandidateSpec,
    default_k_grid,
    plan_build,
    plan_cohort,
    replan,
)
from .residency import ResidencyManager
from .persistence import (
    LEARNER_KINDS,
    StoreCorruptionError,
    detect_store_format,
    learner_from_state,
    load_sharded,
    load_store,
    save_sharded,
    save_store,
)
from .router import Shard, ShardMap, ShardRouter, stable_shard
from .store import (
    StoreEntry,
    StreamLearner,
    SynopsisStore,
    duplicate_entry_message,
)

__all__ = [
    "AsyncServingFrontend",
    "BudgetInfeasibleError",
    "BuildBudget",
    "BuildPlan",
    "BuildResult",
    "COST_CLASSES",
    "CacheStats",
    "CandidateSpec",
    "CohortTable",
    "FamilySpec",
    "GROUP_QUERY_KINDS",
    "LEARNER_KINDS",
    "PrefixTable",
    "QueryEngine",
    "QueryRequest",
    "QueryResult",
    "ResidencyManager",
    "Shard",
    "ShardMap",
    "ShardRouter",
    "StoreCorruptionError",
    "StoreEntry",
    "StreamLearner",
    "SynopsisStore",
    "SYNOPSIS_CODECS",
    "SYNOPSIS_FAMILIES",
    "build_synopsis",
    "build_synopsis_many",
    "default_k_grid",
    "detect_store_format",
    "duplicate_entry_message",
    "family_spec",
    "learner_from_state",
    "load_sharded",
    "load_store",
    "plan_build",
    "plan_cohort",
    "register_builder",
    "register_synopsis_codec",
    "replan",
    "save_sharded",
    "save_store",
    "stable_shard",
    "synopsis_from_dict",
    "synopsis_size",
    "synopsis_to_dict",
]
