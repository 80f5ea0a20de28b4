"""Tests for error-budget build planning (repro.serve.planner).

Covers the planner contract (a chosen plan never violates a satisfiable
budget; a clear :exc:`BudgetInfeasibleError` is a certificate over the
whole grid otherwise), the decision-record semantics (probes before
expensive tiers, monotone-error early stops, the ~100x tradeoff pruning),
NaN-safe error handling, auto-registration through store / router /
frontend, streaming re-planning at the drift watermark, and plan
persistence (bit-identical round trips through plain and sharded stores;
a reloaded store reproduces its plans without rebuilding candidates).
"""

import asyncio
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BudgetInfeasibleError,
    BuildBudget,
    BuildPlan,
    ShardRouter,
    StreamingHistogramLearner,
    SynopsisStore,
    build_synopsis,
    family_spec,
    plan_build,
)
from repro.core.errorutil import (
    UNMEASURED,
    error_sort_key,
    error_within,
    format_error,
    is_measured,
)
from repro.serve.builders import COST_CLASSES
from repro.serve.frontend import AsyncServingFrontend, QueryRequest
from repro.serve.planner import BYTES_PER_NUMBER, default_k_grid

from helpers import positive_dense_arrays, summary_metadata

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# A small family set keeps property tests fast while spanning all tiers.
FAMILIES = ("merging", "wavelet", "exact_dp")
GRID = (2, 4, 8)


def steps_signal(n=1024, seed=0):
    """A step signal: few runs, so families differentiate sharply."""
    rng = np.random.default_rng(seed)
    edges = np.sort(rng.choice(np.arange(1, n), size=6, replace=False))
    levels = rng.uniform(0.5, 5.0, 7)
    values = np.repeat(levels, np.diff(np.concatenate(([0], edges, [n]))))
    return np.abs(values + rng.normal(0.0, 0.05, n))


# --------------------------------------------------------------------- #
# NaN-safe error helpers (the core-level satellite)
# --------------------------------------------------------------------- #


class TestErrorUtil:
    def test_measured_vs_unmeasured(self):
        assert is_measured(0.0) and is_measured(1e9)
        assert not is_measured(UNMEASURED)
        assert not error_within(UNMEASURED, 1e9)  # NaN can't certify a budget
        assert error_within(0.5, 0.5)

    def test_sort_key_orders_unmeasured_last(self):
        errors = [UNMEASURED, 3.0, UNMEASURED, 1.0, 2.0]
        ordered = sorted(errors, key=error_sort_key)
        assert ordered[:3] == [1.0, 2.0, 3.0]
        assert all(not is_measured(e) for e in ordered[3:])
        # The raw-float sort this replaces is order-dependent garbage:
        # every NaN comparison is false, so NaN entries stay put.
        assert not is_measured(sorted(errors)[0])

    def test_format_error(self):
        assert format_error(0.125) == "0.125"
        assert format_error(UNMEASURED) == "unmeasured"

    def test_unmeasured_build_result(self):
        result = build_synopsis(np.ones(64), "merging", 4, measure_error=False)
        assert not is_measured(result.error)


# --------------------------------------------------------------------- #
# Capability metadata
# --------------------------------------------------------------------- #


class TestFamilySpec:
    def test_cost_classes_cover_all_families(self):
        from repro import SYNOPSIS_FAMILIES

        for family in SYNOPSIS_FAMILIES:
            assert family_spec(family).cost in COST_CLASSES

    def test_probe_tier_is_the_papers_cheap_families(self):
        assert family_spec("merging").cost == "probe"
        assert family_spec("fast").cost == "probe"
        assert family_spec("exact_dp").cost == "expensive"
        assert family_spec("poly").cost == "expensive"

    def test_exact_family_collapses_k(self):
        spec = family_spec("exact")
        assert spec.k_max == 1
        assert list(spec.k_range(100)) == [1]

    def test_size_bounds_hold(self):
        values = steps_signal(512)
        for family in ("merging", "fast", "wavelet", "exact_dp", "gks"):
            bound = family_spec(family).size_bound
            for k in (2, 8):
                result = build_synopsis(values, family, k)
                assert result.stored_numbers <= bound(k, 512), (family, k)

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError, match="unknown synopsis family"):
            family_spec("bogus")

    def test_poly_error_not_assumed_monotone(self):
        assert not family_spec("poly").monotone_error

    def test_declared_inputs_are_enforced(self):
        from repro import SparseFunction
        from repro.core.histogram import Histogram
        from repro.serve.builders import _BUILDERS, register_builder

        if "test_dense_only" not in _BUILDERS:

            @register_builder("test_dense_only", inputs=("dense",))
            def _build(q, k):
                return Histogram.from_dense(q.to_dense())

        dense = np.ones(16)
        assert build_synopsis(dense, "test_dense_only", 1).pieces == 1
        with pytest.raises(TypeError, match="does not accept sparse"):
            build_synopsis(
                SparseFunction.from_dense(dense), "test_dense_only", 1
            )
        # A bare-string inputs= is caught at registration, not at build
        # time with a "supported: d, e, n, s, e" puzzle.
        with pytest.raises(ValueError, match="non-empty subset"):
            register_builder("test_bad_inputs", inputs="dense")(lambda q, k: None)


# --------------------------------------------------------------------- #
# BuildBudget semantics
# --------------------------------------------------------------------- #


class TestBuildBudget:
    def test_objective_resolution(self):
        assert BuildBudget().resolved_objective() == "min_error"
        assert BuildBudget(max_bytes=100).resolved_objective() == "min_error"
        assert BuildBudget(max_error=0.5).resolved_objective() == "min_bytes"
        assert (
            BuildBudget(max_bytes=100, max_error=0.5).resolved_objective()
            == "min_error"
        )
        assert (
            BuildBudget(max_error=0.5, objective="min_error").resolved_objective()
            == "min_error"
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="objective"):
            BuildBudget(objective="fastest")
        with pytest.raises(ValueError, match="max_bytes"):
            BuildBudget(max_bytes=0)
        with pytest.raises(ValueError, match="max_error"):
            BuildBudget(max_error=-1.0)

    def test_round_trip(self):
        budget = BuildBudget(max_bytes=128.0, max_error=0.25)
        clone = BuildBudget.from_dict(json.loads(json.dumps(budget.to_dict())))
        assert clone == budget

    def test_unmeasured_error_violates_error_budget(self):
        result = build_synopsis(np.ones(64), "merging", 4, measure_error=False)
        violations = BuildBudget(max_error=1e9).violations(result)
        assert violations and "unmeasured" in violations[0]
        assert BuildBudget(max_bytes=1e9).violations(result) == []


# --------------------------------------------------------------------- #
# The planner contract
# --------------------------------------------------------------------- #


class TestPlanBuild:
    def test_chosen_satisfies_budget_and_is_best_feasible(self):
        values = steps_signal()
        budget = BuildBudget(max_bytes=300)
        plan = plan_build(values, budget)
        chosen = plan.chosen
        assert chosen.feasible and chosen.chosen
        assert chosen.nbytes <= 300
        # Pareto within the record: no built feasible candidate beats the
        # chosen one on the min_error objective.
        feasible = [c for c in plan.candidates if c.was_built and c.feasible]
        assert min(
            feasible, key=lambda c: error_sort_key(c.error)
        ).error == pytest.approx(chosen.error)

    def test_probes_run_before_expensive_tiers(self):
        plan = plan_build(steps_signal(), BuildBudget(max_bytes=300))
        tier_of = {c.label(): c.cost for c in plan.candidates}
        built = [c for c in plan.candidates if c.was_built]
        assert built, "probes must have been built"
        # With a feasible probe, every expensive candidate is pruned with
        # the tradeoff recorded.
        for candidate in plan.candidates:
            if candidate.cost == "expensive":
                assert candidate.status == "pruned"
                assert "budget already met" in candidate.reason
        assert tier_of  # decision record covers every candidate

    def test_same_tier_satisficing_records_accurate_reason(self):
        # Escalation is cost-ordered satisficing: once a non-probe family
        # restores feasibility, same-tier siblings are skipped — and the
        # recorded reason says that, not the cross-tier ~100x rationale.
        values = steps_signal(512)
        plan = plan_build(
            values,
            BuildBudget(max_bytes=10_000),
            families=("gks", "exact_dp"),
            k_grid=(8,),
        )
        assert plan.chosen.family == "gks"
        sibling = next(c for c in plan.candidates if c.family == "exact_dp")
        assert sibling.status == "pruned"
        assert "satisficing" in sibling.reason
        assert "100x" not in sibling.reason

    def test_escalates_to_expensive_only_for_feasibility(self):
        values = steps_signal()
        # An error budget so tight that only the lossless run-length
        # histogram (or the DP at high k) can meet it.
        probe_best = min(
            build_synopsis(values, "merging", k).error for k in GRID
        )
        plan = plan_build(
            values,
            BuildBudget(max_error=probe_best / 1e3),
            families=("merging", "exact"),
        )
        assert plan.chosen.family == "exact"

    def test_infeasible_is_certified_over_the_whole_grid(self):
        values = steps_signal(256)
        with pytest.raises(BudgetInfeasibleError) as excinfo:
            plan_build(
                values,
                BuildBudget(max_bytes=8, max_error=1e-12),
                families=FAMILIES,
                k_grid=GRID,
            )
        message = str(excinfo.value)
        assert "no synopsis family satisfies the budget" in message
        assert "judged infeasible" in message
        # Certification: every candidate was built — nothing pruned.
        expected = len(FAMILIES) * len(GRID)
        assert f"all {expected} built candidates" in message
        assert "pruned" not in message  # no time bound: the full grid ran

    def test_decision_record_explains_every_candidate(self):
        plan = plan_build(steps_signal(), BuildBudget(max_error=2.0))
        assert all(c.status in ("built", "pruned") for c in plan.candidates)
        assert all(c.reason for c in plan.candidates if c.status == "pruned")
        lines = plan.explain()
        assert any("chosen:" in line for line in lines)
        assert len(lines) == 3 + len(plan.candidates)

    def test_size_bounds_recorded_on_candidates(self):
        """FamilySpec.size_bound lands in the decision record (even for
        pruned candidates) and really bounds the built sizes."""
        plan = plan_build(
            steps_signal(), BuildBudget(max_error=2.0), families=FAMILIES
        )
        bounded = [c for c in plan.candidates if c.family != "wavelet"]
        assert all(c.size_bound_bytes is not None for c in bounded if c.family in ("merging", "exact_dp"))
        for candidate in plan.candidates:
            if candidate.was_built and candidate.size_bound_bytes is not None:
                assert candidate.nbytes <= candidate.size_bound_bytes

    def test_default_grid_scales_with_n(self):
        assert default_k_grid(16) == (2, 4)
        assert default_k_grid(4096) == (2, 4, 8, 16, 32, 64)
        assert default_k_grid(2) == (2,)

    def test_k_grid_validation(self):
        budget = BuildBudget(max_bytes=1e6)
        with pytest.raises(ValueError, match="k grid"):
            plan_build(np.ones(32), budget, k_grid=(0, 4))
        with pytest.raises(ValueError, match="at least one"):
            plan_build(np.ones(32), budget, families=())
        with pytest.raises(KeyError, match="unknown synopsis family"):
            plan_build(np.ones(32), budget, families=("bogus",))

    def test_unconstrained_budget_rejected(self):
        # min_error with no size/error constraint degenerates to the
        # lossless O(n) 'exact' copy (a time bound doesn't steer it: the
        # run-length copy is also among the cheapest builds); the planner
        # refuses rather than silently defeating compression.
        with pytest.raises(ValueError, match="unconstrained budget"):
            plan_build(np.ones(32), BuildBudget())
        with pytest.raises(ValueError, match="unconstrained budget"):
            plan_build(np.ones(32), BuildBudget(max_build_ms=60_000))

    def test_lossless_family_reports_zero_error(self):
        # Regression: the 'exact' run-length copy is bitwise lossless, so
        # its error is 0.0 by construction — not the ~1e-5 cancellation
        # noise the prefix-sum formula reports — and a tight error budget
        # the lossless copy satisfies must therefore be satisfiable.
        values = steps_signal(4096)
        result = build_synopsis(values, "exact", 1)
        np.testing.assert_array_equal(result.synopsis.to_dense(), values)
        assert result.error == 0.0
        plan = plan_build(values, BuildBudget(max_error=1e-9))
        assert plan.chosen.family == "exact"
        assert plan.chosen.error == 0.0

    def test_tiny_time_budget_prunes_costlier_tiers_fast(self):
        # Regression: an unsatisfiable budget with a millisecond
        # max_build_ms must not "certify" infeasibility by running every
        # exact-DP build — costlier tiers are pruned once even the
        # fastest cheap build exceeded the time bound.
        values = steps_signal(2048)
        with pytest.raises(BudgetInfeasibleError) as excinfo:
            plan_build(
                values,
                BuildBudget(max_build_ms=1e-4, max_error=1e-30),
                families=("merging", "exact_dp", "poly"),
                k_grid=GRID,
            )
        assert "costlier candidates pruned" in str(excinfo.value)

    @given(
        positive_dense_arrays(min_size=8, max_size=48),
        st.sampled_from(GRID),
        st.sampled_from(["merging", "wavelet"]),
        st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_satisfiable_budget_never_rejected_nor_violated(
        self, values, k, family, tighten_bytes
    ):
        """The Hypothesis contract: derive a budget from a real build, so
        it is satisfiable by construction; the planner must then return a
        plan (never BudgetInfeasibleError) whose choice satisfies it."""
        witness = build_synopsis(values, family, k)
        budget = (
            BuildBudget(max_bytes=witness.stored_numbers * BYTES_PER_NUMBER)
            if tighten_bytes
            else BuildBudget(max_error=max(witness.error, 1e-12))
        )
        plan = plan_build(values, budget, families=FAMILIES, k_grid=GRID)
        chosen = plan.chosen
        if budget.max_bytes is not None:
            assert chosen.nbytes <= budget.max_bytes
        if budget.max_error is not None:
            assert error_within(chosen.error, budget.max_error)
        # The serialized decision record round-trips bit-identically.
        payload = plan.to_dict()
        assert BuildPlan.from_dict(json.loads(json.dumps(payload))).to_dict() == payload


# --------------------------------------------------------------------- #
# The acceptance scenario: budgets steer family choice
# --------------------------------------------------------------------- #


class TestBudgetSteering:
    def test_size_vs_error_budget_pick_different_families(self):
        """A size budget and a tight error budget must disagree on at
        least one fixture series, and the records must explain why."""
        values = steps_signal()
        store = SynopsisStore()
        size_entry = store.register_auto(
            "by-size", values, BuildBudget(max_bytes=200)
        )
        error_entry = store.register_auto(
            "by-error", values, BuildBudget(max_error=1e-3)
        )
        assert size_entry.family != error_entry.family
        # The size-budget record explains the objective it optimized...
        assert size_entry.plan.objective == "min_error"
        assert size_entry.plan.chosen.nbytes <= 200
        # ...and the error-budget record shows why cheap probes lost.
        assert error_entry.plan.objective == "min_bytes"
        probe_rejections = [
            c
            for c in error_entry.plan.candidates
            if c.was_built and not c.feasible and c.family != error_entry.family
        ]
        assert any(
            "max_error" in v for c in probe_rejections for v in c.violations
        )

    def test_describe_marks_planned_entries(self):
        store = SynopsisStore()
        store.register_auto("auto", steps_signal(256), BuildBudget(max_bytes=500))
        store.register("manual", steps_signal(256), family="merging", k=4)
        assert store["auto"].describe()["planned"] is True
        assert "planned" not in store["manual"].describe()


# --------------------------------------------------------------------- #
# Streaming: re-plan only at the drift watermark
# --------------------------------------------------------------------- #


class TestStreamingReplan:
    def make_store(self, seed=3):
        rng = np.random.default_rng(seed)
        learner = StreamingHistogramLearner(n=200, k=4)
        learner.extend(rng.integers(0, 100, 800))
        store = SynopsisStore()
        entry = store.register_stream_auto(
            "live", learner, BuildBudget(max_bytes=400), families=FAMILIES
        )
        return rng, store, entry

    def test_forced_refresh_without_drift_keeps_plan(self):
        _, store, entry = self.make_store()
        plan_before = entry.plan
        store.refresh("live")  # watermark has not moved: no re-plan
        assert store["live"].plan is plan_before
        assert store["live"].version == 1

    def test_installed_plans_do_not_pin_a_synopsis(self):
        # Regression: entry.result owns the chosen synopsis; the plan
        # keeping its own reference would pin the registration-time build
        # (an O(n) copy for the lossless family) across later refreshes.
        rng, store, entry = self.make_store()
        assert entry.plan.result is None
        store.extend("live", rng.integers(100, 200, 3000))  # drift: re-plan
        assert store["live"].plan.result is None
        assert store["live"].result.synopsis is not None

    def test_drift_past_watermark_replans(self):
        rng, store, entry = self.make_store()
        plan_before = entry.plan
        # Shift the distribution and double the sample count: stale.
        store.extend("live", rng.integers(100, 200, 2000))
        entry = store["live"]
        assert entry.plan is not plan_before  # a fresh decision record
        assert entry.plan.budget == plan_before.budget  # same policy
        assert entry.plan.families == plan_before.families
        assert entry.plan.k_grid == plan_before.k_grid
        assert entry.version == 1

    def test_replan_respects_budget_on_new_distribution(self):
        rng, store, _ = self.make_store()
        store.extend("live", rng.integers(100, 200, 4000))
        chosen = store["live"].plan.chosen
        assert chosen.nbytes <= 400

    def test_infeasible_drift_degrades_instead_of_wedging(self):
        """Regression: a drifted stream whose frozen budget becomes
        infeasible must not make extend() raise — samples are already
        absorbed — and must not wedge the entry at a stale watermark."""
        rng = np.random.default_rng(9)
        learner = StreamingHistogramLearner(n=5000, k=4)
        learner.extend(np.zeros(200, dtype=np.int64))  # concentrated: tiny
        store = SynopsisStore()
        entry = store.register_stream_auto(
            "live",
            learner,
            BuildBudget(max_error=1e-6, max_bytes=64),
            families=("merging", "exact"),
        )
        plan_before = entry.plan
        family_before = entry.family
        # Spread the mass: no candidate can meet the frozen budget now.
        store.extend("live", rng.integers(0, 5000, 5000))
        entry = store["live"]
        assert entry.version == 1  # the refresh still happened
        assert entry.family == family_before  # incumbent spec rebuilt
        assert entry.plan is plan_before  # decision record kept
        assert entry.built_at_samples == entry.learner.samples_seen
        # The entry keeps serving the fresh data.
        from repro import QueryEngine

        assert QueryEngine(store).range_sum("live", 0, 4999) == pytest.approx(
            1.0, abs=1e-6
        )


# --------------------------------------------------------------------- #
# Plan persistence: plain and sharded stores
# --------------------------------------------------------------------- #


def _no_build(*args, **kwargs):  # pragma: no cover - fails the test if hit
    raise AssertionError("a reloaded store must not rebuild plan candidates")


class TestPlanPersistence:
    def build_store(self):
        values = steps_signal(512, seed=7)
        store = SynopsisStore()
        store.register_auto("by-size", values, BuildBudget(max_bytes=200))
        store.register_auto("by-error", values, BuildBudget(max_error=1e-3))
        store.register("manual", values, family="merging", k=4)
        return store

    def assert_plans_identical(self, loaded, original, monkeypatch):
        import repro.serve.planner as planner_module

        monkeypatch.setattr(planner_module, "build_synopsis", _no_build)
        for name in ("by-size", "by-error"):
            entry = loaded[name]
            assert not entry.is_hydrated  # plans live in the manifest
            assert entry.plan is not None
            assert entry.plan.to_dict() == original[name].plan.to_dict()
            assert entry.plan.chosen.label() == original[name].plan.chosen.label()
        assert loaded["manual"].plan is None

    def test_plain_round_trip_reproduces_plans_without_rebuilds(
        self, tmp_path, monkeypatch
    ):
        store = self.build_store()
        store.save(tmp_path / "store")
        loaded = SynopsisStore.load(tmp_path / "store")
        self.assert_plans_identical(loaded, store, monkeypatch)

    def test_sharded_round_trip_reproduces_plans_without_rebuilds(
        self, tmp_path, monkeypatch
    ):
        values = steps_signal(512, seed=7)
        router = ShardRouter(num_shards=2)
        router.register_auto("by-size", values, BuildBudget(max_bytes=200))
        router.register_auto("by-error", values, BuildBudget(max_error=1e-3))
        router.register("manual", values, family="merging", k=4)
        router.save(tmp_path / "sharded")
        loaded = ShardRouter.load(tmp_path / "sharded")
        import repro.serve.planner as planner_module

        monkeypatch.setattr(planner_module, "build_synopsis", _no_build)
        for name in ("by-size", "by-error"):
            assert loaded.plan_of(name) is not None
            assert loaded.plan_of(name).to_dict() == router.plan_of(name).to_dict()
        assert loaded.plan_of("manual") is None
        # The planned flag survives in summaries (pre-hydration metadata).
        summary = {m["name"]: m for m in loaded.summary()}
        assert summary["by-size"].get("planned") is True

    @given(positive_dense_arrays(min_size=8, max_size=32))
    @settings(max_examples=15, deadline=None)
    def test_plan_round_trips_bit_identically(self, values):
        import os
        import tempfile

        store = SynopsisStore()
        store.register_auto(
            "auto", values, BuildBudget(max_bytes=160), families=FAMILIES,
            k_grid=GRID,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "store")
            store.save(path)
            loaded = SynopsisStore.load(path)
            assert loaded["auto"].plan.to_dict() == store["auto"].plan.to_dict()

    def test_null_metrics_in_plan_record_degrade_not_crash(self, tmp_path):
        """Regression: a loadable plan record whose built candidate lost
        its build_ms must not TypeError out of describe()/explain() (and
        through it the serve REPL's ``plan`` command)."""
        store = self.build_store()
        store.save(tmp_path / "store")
        # These tests rot the entry records of the store's one segment.
        # An entry record keeps its own chosen candidate beside its row
        # of the segment's shared plan table.
        manifest_path = tmp_path / "store" / "segment-0000.json"
        manifest = json.loads(manifest_path.read_text())
        record = next(r for r in manifest["entries"] if r.get("plan"))
        chosen = record["plan"]["chosen"]
        chosen["build_ms"] = None
        manifest_path.write_text(json.dumps(manifest))
        loaded = SynopsisStore.load(tmp_path / "store")
        plan = loaded[record["name"]].plan
        lines = plan.explain()  # must not raise
        assert any("build=?ms" in line for line in lines)
        assert plan.total_build_ms() >= 0.0

    def test_rotted_plan_record_is_corruption(self, tmp_path):
        from repro import StoreCorruptionError, load_store

        store = self.build_store()
        store.save(tmp_path / "store")
        # These tests rot the entry records of the store's one segment.
        manifest_path = tmp_path / "store" / "segment-0000.json"
        manifest = json.loads(manifest_path.read_text())
        record = next(
            r for r in manifest["entries"] if r.get("plan") is not None
        )
        manifest["plans"][record["plan"]["row"]]["chosen_index"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreCorruptionError, match="invalid manifest entry"):
            load_store(tmp_path / "store")

    @pytest.mark.parametrize("row", [2, -1, "x", None])
    def test_rotted_plan_table_index_is_corruption(self, tmp_path, row):
        from repro import StoreCorruptionError, load_store

        store = self.build_store()
        store.save(tmp_path / "store")
        manifest_path = tmp_path / "store" / "segment-0000.json"
        manifest = json.loads(manifest_path.read_text())
        assert len(manifest["plans"]) == 2  # by-size and by-error
        record = next(r for r in manifest["entries"] if r.get("plan"))
        record["plan"]["row"] = row
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreCorruptionError, match="invalid manifest entry"):
            load_store(tmp_path / "store")

    def test_legacy_schema_1_store_still_loads(self, tmp_path):
        """A pre-planner manifest (schema 1, no plan fields) must load."""
        from repro import load_store

        # A copy of the frozen schema-3 golden, cut back to the entries a
        # schema-1 store could hold (no planned, no windowed entries).
        shutil.copytree(FIXTURES / "golden_store", tmp_path / "store")
        manifest_path = tmp_path / "store" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["entries"] = [
            r
            for r in manifest["entries"]
            if "plan" not in r and not r.get("windowed")
        ]
        assert all("plan" not in r for r in manifest["entries"])
        manifest["schema"] = 1
        manifest_path.write_text(json.dumps(manifest))
        loaded = load_store(tmp_path / "store")
        store = load_store(
            FIXTURES / "golden_store",
            names=[r["name"] for r in manifest["entries"]],
        )
        assert summary_metadata(loaded) == summary_metadata(store)
        assert loaded["merging"].plan is None


# --------------------------------------------------------------------- #
# CLI inspect sorting: the NaN bucket is explicit, never silent
# --------------------------------------------------------------------- #


def _ensure_unmeasured_family():
    """Register (once) a family whose builds never measure their error."""
    from repro.core.histogram import Histogram
    from repro.serve.builders import _BUILDERS, register_builder

    if "test_unmeasured" not in _BUILDERS:

        @register_builder("test_unmeasured", cost="probe", measures_error=False)
        def _build(q, k):
            return Histogram.from_dense(q.to_dense())


class TestInspectSorting:
    def test_sort_by_error_places_unmeasured_last(self, tmp_path, capsys):
        from repro.__main__ import main

        _ensure_unmeasured_family()
        values = steps_signal(128)
        store = SynopsisStore()
        store.register("no-error", values, family="test_unmeasured", k=1)
        store.register("coarse", values, family="merging", k=2)
        store.register("fine", values, family="merging", k=16)
        store.save(tmp_path / "store")

        assert main(["inspect", str(tmp_path / "store"), "--sort", "error"]) == 0
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if ": family=" in line
        ]
        names = [line.split(":")[0] for line in lines]
        # Measured errors ascending; the unmeasured entry is pinned last
        # and labeled, not silently floated wherever NaN comparisons land.
        assert names == ["fine", "coarse", "no-error"]
        assert "error=unmeasured" in lines[-1]

    def test_rotted_error_field_fails_inspect_loudly(self, tmp_path, capsys):
        # A present-but-unparseable error is manifest rot: inspect must
        # refuse like load does, not print "unmeasured" and exit 0.
        from repro.__main__ import main

        store = SynopsisStore()
        store.register("a", steps_signal(64), family="merging", k=2)
        store.save(tmp_path / "store")
        # The rotted record lives in the store's one segment manifest.
        manifest_path = tmp_path / "store" / "segment-0000.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["entries"][0]["result"]["error"] = "bogus"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SystemExit, match="invalid manifest entry"):
            main(["inspect", str(tmp_path / "store")])
        with pytest.raises(SystemExit, match="invalid manifest entry"):
            main(["inspect", str(tmp_path / "store"), "--sort", "error"])

    def test_manifest_order_is_default(self, tmp_path, capsys):
        from repro.__main__ import main

        values = steps_signal(128)
        store = SynopsisStore()
        store.register("b", values, family="merging", k=16)
        store.register("a", values, family="merging", k=2)
        store.save(tmp_path / "store")
        assert main(["inspect", str(tmp_path / "store")]) == 0
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if ": family=" in line
        ]
        assert [line.split(":")[0] for line in lines] == ["b", "a"]

    def test_unmeasured_error_survives_persistence(self, tmp_path):
        _ensure_unmeasured_family()
        values = steps_signal(128)
        store = SynopsisStore()
        store.register("no-error", values, family="test_unmeasured", k=1)
        store.save(tmp_path / "store")
        # The manifest must stay strict JSON: unmeasured errors serialize
        # as null, never as a literal NaN token.
        text = (tmp_path / "store" / "manifest.json").read_text()
        def reject(token):
            raise AssertionError(f"non-standard JSON constant {token!r}")
        json.loads(text, parse_constant=reject)
        loaded = SynopsisStore.load(tmp_path / "store")
        assert not is_measured(loaded["no-error"].describe()["error"])


# --------------------------------------------------------------------- #
# Router / frontend auto-registration
# --------------------------------------------------------------------- #


class TestShardedAuto:
    def test_router_register_auto_routes_and_plans(self):
        values = steps_signal(512)
        router = ShardRouter(num_shards=3)
        entry = router.register_auto("auto", values, BuildBudget(max_bytes=200))
        assert entry.plan is not None
        assert "auto" in router
        assert router.describe("auto")["planned"] is True
        assert router.plan_of("auto").chosen.nbytes <= 200

    def test_frontend_register_auto(self):
        values = steps_signal(512)
        router = ShardRouter(num_shards=2)

        async def drive():
            with AsyncServingFrontend(router) as frontend:
                entry = await frontend.register_auto(
                    "auto",
                    values,
                    BuildBudget(max_bytes=200),
                    families=FAMILIES,  # planner kwargs pass through
                    k_grid=GRID,
                )
                results = await frontend.query_batch(
                    [QueryRequest("range_sum", "auto", (0, 100))]
                )
                return entry, results

        entry, results = asyncio.run(drive())
        assert entry.plan is not None
        assert results[0].ok and results[0].version == entry.version

    def test_router_register_stream_auto(self):
        rng = np.random.default_rng(5)
        learner = StreamingHistogramLearner(n=100, k=4)
        learner.extend(rng.integers(0, 100, 500))
        router = ShardRouter(num_shards=2)
        entry = router.register_stream_auto(
            "live", learner, BuildBudget(max_bytes=400)
        )
        assert entry.plan is not None and entry.is_streaming
        plan_before = entry.plan
        router.extend("live", rng.integers(0, 100, 2000))  # drift: re-plan
        assert router["live"].plan is not plan_before
