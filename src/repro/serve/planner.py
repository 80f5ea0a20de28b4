"""Error-budget build planning: pick the synopsis family and k for a budget.

The paper's central tradeoff is that near-optimal merging histograms are
~100x faster to build than the exact V-optimal DP at a small, bounded
accuracy cost — and that different families (histogram / wavelet /
piecewise-poly / sparse run-length) win at different size-vs-error
operating points.  :func:`plan_build` operationalizes that tradeoff: a
caller states a :class:`BuildBudget` (max stored bytes, max l2 error,
max build latency) and the planner picks the family and ``k``.

The strategy, tier by cheapest-first cost class (see
:data:`~repro.serve.builders.COST_CLASSES`):

1. **Probe.**  Every probe-tier family (the paper's merging algorithms,
   wavelets, the lossless run-length histogram) is scanned over the
   k-grid, cheapest-useful-``k`` first for the scan's objective.  A
   family whose error is monotone in ``k`` stops at its first candidate
   that satisfies the whole budget — later grid points cannot improve
   the objective — so a loose budget costs one or two cheap builds per
   probe family.
2. **Escalate only for feasibility.**  Standard and expensive families
   (dual greedy, GKS, exact DP, piecewise-poly) are built *only while no
   cheaper candidate satisfies the budget*, in registration order, and
   escalation is cost-ordered **satisficing**: the first family that
   restores feasibility wins and its same- and later-tier siblings are
   skipped, never built for a marginal objective improvement — per the
   paper, paying the DP's ~100x build cost for that is exactly the
   wrong trade.  Every prune is recorded with its reason.
3. **Choose.**  Among the *built* feasible candidates the objective —
   minimize error under a size budget, minimize size under an error
   budget — picks the winner (Pareto-optimal among the builds made;
   ties break toward smaller size, then enumeration order — never
   wall-clock, so the choice is deterministic).  The probe tier is
   scanned exhaustively, so this is the true optimum over the cheap
   families; escalation-tier candidates participate only when they were
   needed for feasibility.  If *nothing* was feasible the planner has, by
   construction, built **every** candidate (pruning only ever happens
   after a feasible incumbent exists — except costlier tiers skipped
   because even the fastest cheap build exceeded ``max_build_ms``), so
   :exc:`BudgetInfeasibleError` is a proof over the whole grid for size
   and error bounds, not a guess.

Every enumerated candidate — built, pruned, feasible or not — is recorded
as a :class:`CandidateSpec` in the returned :class:`BuildPlan`, which
serializes into the store manifest so a reloaded store can explain and
re-derive its choices without rebuilding anything.

All comparisons are NaN-safe via :mod:`repro.core.errorutil`: a family
that skips error measurement lands in an explicit "unmeasured" bucket
that can never certify an error budget and always ranks after measured
candidates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.errorutil import (
    UNMEASURED,
    error_sort_key,
    error_within,
    format_error,
    is_measured,
)
from ..core.serialize import check_payload_tag
from ..core.sparse import SparseFunction
from ..obs.metrics import get_default_registry
from .builders import (
    COST_CLASSES,
    SYNOPSIS_FAMILIES,
    BuildResult,
    build_synopsis,
    build_synopsis_many,
    family_spec,
)

__all__ = [
    "BYTES_PER_NUMBER",
    "BudgetInfeasibleError",
    "BuildBudget",
    "BuildPlan",
    "CandidateSpec",
    "default_k_grid",
    "plan_build",
    "plan_cohort",
    "replan",
]

#: Bytes per stored number (everything in this repo stores float64/int64).
BYTES_PER_NUMBER = 8

_OBJECTIVES = ("auto", "min_error", "min_bytes")


class BudgetInfeasibleError(ValueError):
    """No candidate in the planning grid satisfies the stated budget.

    For size and error bounds this is a certificate over the whole
    ``families x k_grid`` search space: every candidate was actually
    built and judged infeasible (the planner never prunes for cost
    before a feasible incumbent exists).  The one extrapolation is the
    time bound — when even the fastest cheaper-tier build exceeded
    ``max_build_ms``, costlier tiers are pruned as predictably over it
    rather than run for hours to prove the obvious (time feasibility is
    machine-dependent either way); the message says when that happened.
    """


@dataclass(frozen=True)
class BuildBudget:
    """The caller's constraints for an auto-planned build.

    Attributes
    ----------
    max_bytes:
        Upper bound on the stored synopsis footprint, in bytes
        (``stored_numbers * 8``).
    max_error:
        Upper bound on the build's exact l2 error against the input.
    max_build_ms:
        Upper bound on a single candidate's measured build time in
        milliseconds.  The only machine-dependent constraint: the same
        plan may differ across hosts when this is set.
    objective:
        What to minimize among feasible candidates.  ``"auto"`` (the
        default) resolves to ``"min_bytes"`` when an error budget is the
        binding constraint (``max_error`` set, ``max_bytes`` unset) and
        to ``"min_error"`` otherwise.
    """

    max_bytes: Optional[float] = None
    max_error: Optional[float] = None
    max_build_ms: Optional[float] = None
    objective: str = "auto"

    kind = "build_budget"
    schema_version = 1

    def __post_init__(self) -> None:
        if self.objective not in _OBJECTIVES:
            raise ValueError(
                f"objective must be one of {_OBJECTIVES}, got {self.objective!r}"
            )
        for name in ("max_bytes", "max_error", "max_build_ms"):
            bound = getattr(self, name)
            if bound is not None and not float(bound) > 0.0:
                raise ValueError(f"{name} must be positive, got {bound!r}")

    def resolved_objective(self) -> str:
        """The concrete objective ``"auto"`` maps to for these bounds."""
        if self.objective != "auto":
            return self.objective
        if self.max_error is not None and self.max_bytes is None:
            return "min_bytes"
        return "min_error"

    def violations(self, result: BuildResult) -> List[str]:
        """Human-readable budget violations of one build (empty = feasible)."""
        out: List[str] = []
        if self.max_bytes is not None:
            nbytes = result.stored_numbers * BYTES_PER_NUMBER
            if nbytes > self.max_bytes:
                out.append(f"{nbytes} stored bytes > max_bytes {self.max_bytes:g}")
        if self.max_error is not None and not error_within(
            result.error, self.max_error
        ):
            if is_measured(result.error):
                out.append(
                    f"error {result.error:.6g} > max_error {self.max_error:g}"
                )
            else:
                out.append(
                    f"error unmeasured: cannot certify max_error "
                    f"{self.max_error:g}"
                )
        if self.max_build_ms is not None:
            build_ms = result.build_seconds * 1e3
            if build_ms > self.max_build_ms:
                out.append(
                    f"build {build_ms:.3g}ms > max_build_ms {self.max_build_ms:g}"
                )
        return out

    def describe(self) -> str:
        parts = [
            f"{name}={getattr(self, name):g}"
            for name in ("max_bytes", "max_error", "max_build_ms")
            if getattr(self, name) is not None
        ]
        parts.append(f"objective={self.resolved_objective()}")
        return " ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "schema": self.schema_version,
            "max_bytes": self.max_bytes,
            "max_error": self.max_error,
            "max_build_ms": self.max_build_ms,
            "objective": self.objective,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BuildBudget":
        check_payload_tag(payload, cls)

        def bound(name: str) -> Optional[float]:
            value = payload.get(name)
            return None if value is None else float(value)

        return cls(
            max_bytes=bound("max_bytes"),
            max_error=bound("max_error"),
            max_build_ms=bound("max_build_ms"),
            objective=str(payload.get("objective", "auto")),
        )


@dataclass
class CandidateSpec:
    """One ``(family, k)`` candidate and what the planner did with it.

    ``status`` is ``"built"`` (the candidate was constructed and judged
    against the budget) or ``"pruned"`` (skipped, with ``reason``
    explaining why skipping was safe).  Built candidates carry their
    measured metrics; ``build_ms`` is wall time, the one
    machine-dependent field.

    Once :func:`plan_build` returns, a candidate is never mutated: the
    members of a cohort share the representative's candidates by
    reference (see :meth:`BuildPlan.with_chosen`).
    """

    family: str
    k: int
    options: Dict[str, Any] = field(default_factory=dict)
    cost: str = "standard"
    status: str = "pending"
    reason: str = ""
    feasible: Optional[bool] = None
    violations: List[str] = field(default_factory=list)
    stored_numbers: Optional[int] = None
    nbytes: Optional[int] = None
    # The family's predicted stored-size upper bound for this k (from
    # FamilySpec.size_bound), recorded at enumeration so pruned
    # candidates still carry a size estimate in the decision record.
    size_bound_bytes: Optional[int] = None
    error: float = UNMEASURED
    build_ms: Optional[float] = None
    pieces: Optional[int] = None
    chosen: bool = False

    kind = "candidate_spec"
    schema_version = 1

    @property
    def was_built(self) -> bool:
        return self.status == "built"

    def label(self) -> str:
        return f"{self.family}@k={self.k}"

    def describe(self) -> str:
        """One human-readable decision-record line.

        Tolerates missing metrics (a hand-edited or partially-rotted
        manifest can revive a "built" candidate with null fields): the
        REPL's ``plan`` command must degrade to ``build=?ms``, never
        crash the serving loop.
        """
        head = f"{'*' if self.chosen else ' '} {self.label():<18} {self.cost:<9}"
        if self.was_built:
            verdict = "feasible" if self.feasible else "infeasible"
            build = "?" if self.build_ms is None else f"{self.build_ms:.3g}"
            line = (
                f"{head} built    bytes={self.nbytes} "
                f"error={format_error(self.error)} "
                f"build={build}ms {verdict}"
            )
            if self.violations:
                line += f" ({'; '.join(self.violations)})"
            return line
        return f"{head} pruned   {self.reason}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "schema": self.schema_version,
            "family": self.family,
            "k": self.k,
            "options": dict(self.options),
            "cost": self.cost,
            "status": self.status,
            "reason": self.reason,
            "feasible": self.feasible,
            "violations": list(self.violations),
            "stored_numbers": self.stored_numbers,
            "nbytes": self.nbytes,
            "size_bound_bytes": self.size_bound_bytes,
            # Unmeasured maps to None: JSON-clean, and NaN != NaN would
            # break the bit-identical round-trip contract.
            "error": float(self.error) if is_measured(self.error) else None,
            "build_ms": self.build_ms,
            "pieces": self.pieces,
            "chosen": self.chosen,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CandidateSpec":
        check_payload_tag(payload, cls)
        feasible = payload.get("feasible")
        error = payload.get("error")
        return cls(
            family=str(payload["family"]),
            k=int(payload["k"]),
            options=dict(payload.get("options", {})),
            cost=str(payload.get("cost", "standard")),
            status=str(payload.get("status", "pending")),
            reason=str(payload.get("reason", "")),
            feasible=None if feasible is None else bool(feasible),
            violations=[str(v) for v in payload.get("violations", [])],
            stored_numbers=_opt_int(payload.get("stored_numbers")),
            nbytes=_opt_int(payload.get("nbytes")),
            size_bound_bytes=_opt_int(payload.get("size_bound_bytes")),
            error=UNMEASURED if error is None else float(error),
            build_ms=_opt_float(payload.get("build_ms")),
            pieces=_opt_int(payload.get("pieces")),
            chosen=bool(payload.get("chosen", False)),
        )


def _opt_int(value: Any) -> Optional[int]:
    return None if value is None else int(value)


def _opt_float(value: Any) -> Optional[float]:
    return None if value is None else float(value)


@dataclass
class BuildPlan:
    """The full decision record of one :func:`plan_build` run.

    Serializes with the store manifest (``kind``/``schema`` tagged) so a
    reloaded entry can explain its choice (:meth:`explain`) and a
    streaming refresh can re-derive it (:attr:`budget`,
    :attr:`families`, :attr:`k_grid` are the planner's exact inputs)
    without rebuilding any candidate.  ``result`` — the chosen build,
    synopsis included — is transient: the store persists it as the
    entry's ordinary payload, so a plan revived by
    :meth:`from_dict` has ``result=None`` and all metadata intact.
    """

    budget: BuildBudget
    objective: str
    families: Tuple[str, ...]
    k_grid: Tuple[int, ...]
    n: int
    candidates: List[CandidateSpec]
    chosen_index: int
    result: Optional[BuildResult] = field(default=None, repr=False, compare=False)

    kind = "build_plan"
    schema_version = 1

    @property
    def chosen(self) -> CandidateSpec:
        return self.candidates[self.chosen_index]

    def with_chosen(self, chosen: CandidateSpec, n: int) -> "BuildPlan":
        """This decision record for another series of length ``n`` whose
        chosen build is ``chosen``.

        The copy shares the budget, the grid and every non-chosen
        candidate with this plan by reference; only ``n`` and the chosen
        candidate are its own.  This is how a cohort holds one plan.
        """
        candidates = list(self.candidates)
        candidates[self.chosen_index] = chosen
        return replace(self, n=n, candidates=candidates, result=None)

    def built_count(self) -> int:
        return sum(1 for c in self.candidates if c.was_built)

    def total_build_ms(self) -> float:
        """Wall time spent building candidates (the planning cost)."""
        return sum(
            c.build_ms
            for c in self.candidates
            if c.was_built and c.build_ms is not None
        )

    def explain(self) -> List[str]:
        """The decision record as printable lines (chosen marked ``*``)."""
        chosen = self.chosen
        lines = [
            f"plan over n={self.n}: budget {self.budget.describe()}",
            f"families: {', '.join(self.families)}; "
            f"k grid: {', '.join(str(k) for k in self.k_grid)}",
            f"chosen: {chosen.label()} — bytes={chosen.nbytes} "
            f"error={format_error(chosen.error)} "
            f"({self.built_count()} of {len(self.candidates)} candidates "
            f"built, {self.total_build_ms():.3g}ms total)",
        ]
        lines.extend(c.describe() for c in self.candidates)
        return lines

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "schema": self.schema_version,
            "budget": self.budget.to_dict(),
            "objective": self.objective,
            "families": list(self.families),
            "k_grid": list(self.k_grid),
            "n": self.n,
            "candidates": [c.to_dict() for c in self.candidates],
            "chosen_index": self.chosen_index,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BuildPlan":
        check_payload_tag(payload, cls)
        candidates = [
            CandidateSpec.from_dict(c) for c in payload.get("candidates", [])
        ]
        chosen_index = int(payload["chosen_index"])
        if not 0 <= chosen_index < len(candidates):
            raise ValueError(
                f"chosen_index {chosen_index} outside the "
                f"{len(candidates)}-candidate record"
            )
        return cls(
            budget=BuildBudget.from_dict(payload["budget"]),
            objective=str(payload["objective"]),
            families=tuple(str(f) for f in payload["families"]),
            k_grid=tuple(int(k) for k in payload["k_grid"]),
            n=int(payload["n"]),
            candidates=candidates,
            chosen_index=chosen_index,
        )


# --------------------------------------------------------------------- #
# Planning
# --------------------------------------------------------------------- #


_DEFAULT_GRID = (2, 4, 8, 16, 32, 64)


def default_k_grid(n: int) -> Tuple[int, ...]:
    """Powers-of-two piece budgets sensible for an ``n``-point series."""
    grid = tuple(k for k in _DEFAULT_GRID if k <= max(2, n // 4))
    return grid or (1,)


def _candidate_key(objective: str, result: BuildResult) -> Tuple:
    """Deterministic candidate ordering for the objective.

    Deliberately excludes the measured build time: two candidates that
    tie exactly on (error, stored) — merging and fast group merging
    often do — must resolve by enumeration order (the incumbent is only
    replaced on a strict improvement), not by run-to-run wall-clock
    noise, or a streaming re-plan could silently swap the serving family
    and regenerated golden fixtures would differ across machines.
    """
    err_key = error_sort_key(result.error)
    if objective == "min_bytes":
        return (result.stored_numbers, err_key)
    return (err_key, result.stored_numbers)


def plan_build(
    q: Union[np.ndarray, SparseFunction],
    budget: BuildBudget,
    families: Optional[Sequence[str]] = None,
    k_grid: Optional[Sequence[int]] = None,
    options: Optional[Dict[str, Dict[str, Any]]] = None,
) -> BuildPlan:
    """Choose the family and ``k`` for ``q`` under ``budget``.

    Parameters
    ----------
    q:
        The series to summarize, dense array or :class:`SparseFunction`.
    budget:
        The constraints and objective; see :class:`BuildBudget`.
    families:
        Candidate families (default: every registered family).  Order is
        respected within a cost tier; tiers always run cheapest first.
    k_grid:
        Candidate piece budgets (default: :func:`default_k_grid`); each
        family clips the grid to its supported ``k`` range.
    options:
        Optional per-family builder options, ``{family: {kwarg: value}}``.

    Returns
    -------
    BuildPlan
        The decision record; ``plan.result`` is the chosen
        :class:`~repro.serve.builders.BuildResult` (synopsis included).

    Raises
    ------
    BudgetInfeasibleError
        When no candidate satisfies the budget — certified by building
        every candidate (see the class docstring).
    ValueError
        When the budget sets no bound at all: unconstrained min_error is
        always won by the lossless ``exact`` copy (zero error, O(n)
        stored numbers), which is never what auto-selection is for.
    """
    sparse = q if isinstance(q, SparseFunction) else SparseFunction.from_dense(q)
    n = sparse.n
    family_names = tuple(families) if families is not None else SYNOPSIS_FAMILIES
    if not family_names:
        raise ValueError("at least one candidate family is required")
    specs = [family_spec(name) for name in family_names]  # validates names
    grid = tuple(
        sorted({int(k) for k in (k_grid if k_grid is not None else default_k_grid(n))})
    )
    if not grid or grid[0] < 1:
        raise ValueError(f"k grid must be positive integers, got {grid}")
    options = options or {}
    if budget.max_bytes is None and budget.max_error is None:
        # min_error with no size or error constraint is degenerate: the
        # lossless "exact" family's zero error always wins (a time bound
        # doesn't help — the O(n) run-length copy is also among the
        # cheapest builds), and the "synopsis" is a full O(n) copy of
        # the data.  Make the caller say what they are trading off
        # rather than silently defeating compression.
        raise ValueError(
            "an unconstrained budget would always select the lossless "
            "'exact' copy; set max_bytes and/or max_error "
            "(max_build_ms alone cannot steer the tradeoff)"
        )
    # Planning, like building, happens outside any serving component, so
    # its metrics go to the process-wide default registry.
    registry = get_default_registry()
    plan_started = time.perf_counter()
    objective = budget.resolved_objective()
    # min_bytes wants the smallest feasible k, so scan ascending; min_error
    # wants the largest k that still fits the size budget, so scan
    # descending.  Monotone-error families stop at the first fully
    # feasible candidate in scan order — it is that family's best.
    ascending = objective == "min_bytes"

    candidates: List[CandidateSpec] = []
    # Only the incumbent's BuildResult (synopsis included) is retained;
    # every other build is dropped as soon as its metrics are recorded,
    # so peak memory is one synopsis, not one per built candidate (the
    # probe-tier "exact" candidate alone is an O(n) lossless copy).
    incumbent: Optional[int] = None  # index into candidates
    incumbent_result: Optional[BuildResult] = None

    def family_candidates(spec) -> List[CandidateSpec]:
        supported = spec.k_range(n)
        ks = [k for k in grid if k in supported]
        if not ks:
            # An empty intersection would silently drop the family; clamp
            # to the nearest supported k instead (the "exact" family's
            # k_max=1 lands here for every default grid).
            ks = [min(max(grid[0], supported.start), supported.stop - 1)]
        ks.sort(reverse=not ascending)
        opts = dict(options.get(spec.name, {}))
        return [
            CandidateSpec(
                family=spec.name,
                k=k,
                options=opts,
                cost=spec.cost,
                size_bound_bytes=(
                    spec.size_bound(k, n) * BYTES_PER_NUMBER
                    if spec.size_bound is not None
                    else None
                ),
            )
            for k in ks
        ]

    def build_candidate(index: int) -> None:
        nonlocal incumbent, incumbent_result
        candidate = candidates[index]
        result = build_synopsis(
            sparse, candidate.family, candidate.k, **candidate.options
        )
        registry.counter(
            "plan_candidates_built_total",
            "candidate synopses actually built while planning",
        ).inc()
        violations = budget.violations(result)
        candidate.status = "built"
        candidate.feasible = not violations
        candidate.violations = violations
        candidate.stored_numbers = result.stored_numbers
        candidate.nbytes = result.stored_numbers * BYTES_PER_NUMBER
        candidate.error = result.error
        candidate.build_ms = result.build_seconds * 1e3
        candidate.pieces = result.pieces
        if candidate.feasible and (
            incumbent_result is None
            or _candidate_key(objective, result)
            < _candidate_key(objective, incumbent_result)
        ):
            incumbent, incumbent_result = index, result

    def prune(candidate: CandidateSpec, reason: str) -> None:
        candidate.status = "pruned"
        candidate.reason = reason

    for tier in COST_CLASSES:
        tier_specs = [spec for spec in specs if spec.cost == tier]
        # The fastest build measured in cheaper tiers: if even that
        # exceeded the time budget, every candidate in a costlier tier
        # is presumed over it too — without this, an unsatisfiable
        # budget with a millisecond max_build_ms would "certify"
        # infeasibility by running hours of exact-DP builds.
        fastest_cheaper_ms = min(
            (c.build_ms for c in candidates if c.build_ms is not None),
            default=None,
        )
        for spec in tier_specs:
            family_cands = family_candidates(spec)
            start_index = len(candidates)
            candidates.extend(family_cands)
            if tier != "probe" and incumbent is not None:
                winner = candidates[incumbent]
                reason = (
                    # Same-tier sibling vs genuinely cheaper tier: both
                    # are deliberate satisficing, but the recorded
                    # rationale must match what actually happened.
                    f"feasibility already restored by {winner.label()} in "
                    f"this {tier} tier; escalation is cost-ordered "
                    f"satisficing, not exhaustive"
                    if winner.cost == tier
                    else f"budget already met by {winner.label()} from a "
                    f"cheaper cost tier; skipping this {tier}-tier build "
                    f"(the ~100x build-cost tradeoff)"
                )
                for candidate in family_cands:
                    prune(candidate, reason)
                continue
            if (
                tier != "probe"
                and budget.max_build_ms is not None
                and fastest_cheaper_ms is not None
                and fastest_cheaper_ms > budget.max_build_ms
            ):
                for candidate in family_cands:
                    prune(
                        candidate,
                        f"even the fastest cheaper-tier build "
                        f"({fastest_cheaper_ms:.3g}ms) exceeded max_build_ms "
                        f"{budget.max_build_ms:g}; a {tier}-tier build "
                        f"cannot satisfy it",
                    )
                continue
            satisfied_at: Optional[CandidateSpec] = None
            for offset, candidate in enumerate(family_cands):
                if satisfied_at is not None:
                    direction = "larger" if ascending else "smaller"
                    prune(
                        candidate,
                        f"monotone error: {satisfied_at.label()} already "
                        f"satisfies the budget, so {direction} k cannot "
                        f"improve the {objective} objective",
                    )
                    continue
                build_candidate(start_index + offset)
                if (
                    spec.monotone_error
                    and candidates[start_index + offset].feasible
                ):
                    satisfied_at = candidate

    if incumbent is None:
        built = [c for c in candidates if c.was_built]
        time_pruned = len(candidates) - len(built)
        closest = min(
            built,
            key=lambda c: (len(c.violations), error_sort_key(c.error)),
            default=None,
        )
        detail = (
            f"; closest candidate {closest.label()}: "
            f"{'; '.join(closest.violations)}"
            if closest is not None
            else ""
        )
        if time_pruned:
            detail += (
                f" ({time_pruned} costlier candidates pruned: cheaper-tier "
                f"builds already exceeded max_build_ms)"
            )
        registry.counter(
            "plans_infeasible_total", "plan_build calls certified infeasible"
        ).inc()
        registry.histogram("plan_seconds", "planner decision time").observe(
            time.perf_counter() - plan_started
        )
        raise BudgetInfeasibleError(
            f"no synopsis family satisfies the budget ({budget.describe()}) "
            f"over families {', '.join(family_names)} and k grid "
            f"{list(grid)}: all {len(built)} built candidates were judged "
            f"infeasible{detail}"
        )

    candidates[incumbent].chosen = True
    registry.counter(
        "plans_total", "successful plan_build decisions"
    ).inc()
    registry.histogram("plan_seconds", "planner decision time").observe(
        time.perf_counter() - plan_started
    )
    return BuildPlan(
        budget=budget,
        objective=objective,
        families=family_names,
        k_grid=grid,
        n=n,
        candidates=candidates,
        chosen_index=incumbent,
        result=incumbent_result,
    )


def _member_plan(representative: BuildPlan, result: BuildResult) -> BuildPlan:
    """A cohort member's plan, derived from the representative's record.

    The member shares the representative's exploration (every other
    candidate line, chosen index, budget, grid) by reference, but its
    chosen candidate carries the *member's own* measured build — size,
    error, pieces, wall time — and ``plan.n`` is the member's length, so
    the record never claims measurements the member's data did not
    produce.
    """
    chosen = replace(
        representative.chosen,
        feasible=True,
        violations=[],
        stored_numbers=result.stored_numbers,
        nbytes=result.stored_numbers * BYTES_PER_NUMBER,
        error=result.error,
        build_ms=result.build_seconds * 1e3,
        pieces=result.pieces,
    )
    plan = representative.with_chosen(chosen, result.n)
    plan.result = result
    return plan


def plan_cohort(
    named_datasets: "Union[Dict[str, Any], Sequence[Tuple[str, Any]]]",
    budget: BuildBudget,
    families: Optional[Sequence[str]] = None,
    k_grid: Optional[Sequence[int]] = None,
    options: Optional[Dict[str, Dict[str, Any]]] = None,
) -> List[Tuple[str, BuildPlan]]:
    """Plan a whole cohort of series with one amortized grid probe.

    Fleet registration's planning step: the first series (the
    *representative*) gets a full :func:`plan_build` over the grid; every
    remaining member is built once with the representative's chosen
    ``(family, k, options)`` via :func:`build_synopsis_many` and, when
    its measured build satisfies the budget (``budget.violations`` is
    empty), shares the representative's plan by reference, owning only
    its length and a chosen candidate with its own measured metrics
    (:meth:`BuildPlan.with_chosen`).  Only members whose
    reused build *violates* the budget escalate to their own full
    :func:`plan_build` probe — so a cohort of similar series costs one
    grid scan plus one build per member instead of one grid scan per
    member.

    ``plans_probed_total`` counts full grid probes (representative plus
    escalations) and ``plans_reused_total`` counts members that rode the
    representative's plan; their ratio is the amortization win.

    Returns ``[(name, plan), ...]`` in input order, each plan carrying
    the member's built result in ``plan.result``.  Raises
    :exc:`BudgetInfeasibleError` if the representative or any escalated
    member certifies infeasibility, and :exc:`ValueError` on an empty
    cohort or duplicate names within it.
    """
    if hasattr(named_datasets, "items"):
        items = [(str(name), data) for name, data in named_datasets.items()]
    else:
        items = [(str(name), data) for name, data in named_datasets]
    if not items:
        raise ValueError("plan_cohort needs at least one (name, data) pair")
    seen: set = set()
    for name, _ in items:
        if name in seen:
            raise ValueError(f"duplicate name {name!r} in the cohort")
        seen.add(name)
    registry = get_default_registry()
    probed = registry.counter(
        "plans_probed_total",
        "cohort members planned with a full grid probe",
    )
    reused = registry.counter(
        "plans_reused_total",
        "cohort members that reused the representative's plan",
    )

    rep_name, rep_data = items[0]
    rep_plan = plan_build(
        rep_data, budget, families=families, k_grid=k_grid, options=options
    )
    probed.inc()
    plans: List[Tuple[str, BuildPlan]] = [(rep_name, rep_plan)]
    if len(items) == 1:
        return plans

    chosen = rep_plan.chosen
    member_results = build_synopsis_many(
        (data for _, data in items[1:]),
        chosen.family,
        chosen.k,
        **dict(chosen.options),
    )
    for (name, data), result in zip(items[1:], member_results):
        if budget.violations(result):
            plan = plan_build(
                data, budget, families=families, k_grid=k_grid, options=options
            )
            probed.inc()
        else:
            plan = _member_plan(rep_plan, result)
            reused.inc()
        plans.append((name, plan))
    return plans


def replan(plan: BuildPlan, q: Union[np.ndarray, SparseFunction]) -> BuildPlan:
    """Re-run :func:`plan_build` with a prior plan's exact inputs.

    The streaming refresh path: when an entry's learner drifts past its
    watermark the store re-plans over the *same* budget, families, and
    k-grid the entry was registered with, so the decision policy is
    stable across refreshes even if the winning family changes.
    """
    per_family_options = {
        c.family: dict(c.options) for c in plan.candidates if c.options
    }
    return plan_build(
        q,
        plan.budget,
        families=plan.families,
        k_grid=plan.k_grid,
        options=per_family_options,
    )

