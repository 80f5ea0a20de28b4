"""The ``dual`` baseline: greedy error-budget histograms [JKM+98].

The dual histogram problem fixes an l2 error budget ``b`` and asks for the
fewest pieces achieving it.  Jagadish et al. solve it with a greedy sweep:
extend the current bucket as far as its flattening error stays within the
per-bucket budget, then close it.  Because the best-constant SSE of a bucket
is nondecreasing as the bucket grows, each maximal bucket can be found by
binary search on its right endpoint, so a sweep costs ``O(pieces * log n)``
on top of the prefix sums.

The paper's experiments run this ``dual`` variant on the *primal* problem
via a binary search over the budget, which is what costs it the extra
logarithmic factor and the worse approximation ratios observed in Table 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..core.histogram import Histogram, flatten
from ..core.intervals import Partition
from ..core.prefix import PrefixSums
from ..core.sparse import SparseFunction

__all__ = ["DualResult", "greedy_histogram_for_budget", "dual_histogram"]


@dataclass(frozen=True)
class DualResult:
    """Histogram produced by the dual greedy plus search diagnostics."""

    histogram: Histogram
    error: float
    budget: float  # the (squared-error) bucket budget the sweep used
    search_steps: int

    @property
    def num_pieces(self) -> int:
        return self.histogram.num_pieces


def _as_sparse(q: Union[SparseFunction, np.ndarray]) -> SparseFunction:
    if isinstance(q, SparseFunction):
        return q
    return SparseFunction.from_dense(np.asarray(q, dtype=np.float64))


def greedy_histogram_for_budget(
    q: Union[SparseFunction, np.ndarray],
    budget_sq: float,
    prefix: PrefixSums = None,
    max_pieces: Optional[int] = None,
    method: str = "scan",
) -> Optional[Partition]:
    """One greedy sweep: each bucket extends maximally within ``budget_sq``.

    ``method='scan'`` is the paper-faithful [JKM+98] sweep: a single
    left-to-right pass maintaining the running first and second moments of
    the open bucket (``O(n)`` per sweep, which is what makes ``dual`` slower
    than merging in Table 1).

    ``method='search'`` is our improved variant: since ``err_q([a, b])`` is
    nondecreasing in ``b`` for fixed ``a`` (restricting the larger bucket's
    best constant to the smaller bucket can only improve), each maximal
    bucket endpoint can be found by binary search, giving ``O(k log n)`` per
    sweep.  Both methods produce the identical partition.

    If ``max_pieces`` is given, the sweep aborts and returns ``None`` as
    soon as it would open more buckets than that — the early exit that keeps
    the primal binary search cheap for ``method='search'``.
    """
    sparse = _as_sparse(q)
    if method == "scan":
        return _greedy_scan(sparse, budget_sq, max_pieces)
    if method == "search":
        ps = prefix if prefix is not None else sparse.prefix_sums()
        return _greedy_search(sparse, ps, budget_sq, max_pieces)
    raise ValueError(f"unknown method {method!r}")


def _greedy_scan(
    sparse: SparseFunction, budget_sq: float, max_pieces: Optional[int]
) -> Optional[Partition]:
    """Left-to-right O(n) sweep with incremental bucket moments."""
    dense = sparse.to_dense()
    n = dense.size
    rights = []
    start = 0
    running_sum = 0.0
    running_sq = 0.0
    for i in range(n):
        y = dense[i]
        new_sum = running_sum + y
        new_sq = running_sq + y * y
        length = i - start + 1
        err = new_sq - new_sum * new_sum / length
        if err > budget_sq and i > start:
            if max_pieces is not None and len(rights) + 1 >= max_pieces and i < n:
                return None
            rights.append(i - 1)
            start = i
            running_sum = y
            running_sq = y * y
        else:
            running_sum = new_sum
            running_sq = new_sq
    rights.append(n - 1)
    return Partition(n, np.asarray(rights, dtype=np.int64))


def _greedy_search(
    sparse: SparseFunction,
    ps: PrefixSums,
    budget_sq: float,
    max_pieces: Optional[int],
) -> Optional[Partition]:
    """Binary-search sweep exploiting monotonicity of the bucket error."""
    n = sparse.n
    rights = []
    start = 0
    while start < n:
        if max_pieces is not None and len(rights) >= max_pieces:
            return None
        lo, hi = start, n - 1
        if ps.interval_err(start, hi) <= budget_sq:
            end = hi
        else:
            # Largest end in [start, n-1] with err <= budget (err monotone).
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if ps.interval_err(start, mid) <= budget_sq:
                    lo = mid
                else:
                    hi = mid - 1
            end = lo
        rights.append(end)
        start = end + 1
    return Partition(n, np.asarray(rights, dtype=np.int64))


def dual_histogram(
    q: Union[SparseFunction, np.ndarray],
    k: int,
    tolerance: float = 1e-3,
    max_steps: int = 64,
    method: str = "scan",
) -> DualResult:
    """Primal histogram via binary search over the dual error budget.

    Searches for the smallest per-bucket squared budget at which the greedy
    sweep uses at most ``k`` pieces (the piece count is nonincreasing in the
    budget).  This mirrors the paper's ``dual`` competitor, including its
    extra logarithmic cost over the merging algorithm; pass
    ``method='search'`` for the improved sweep (see
    :func:`greedy_histogram_for_budget`).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sparse = _as_sparse(q)
    prefix = sparse.prefix_sums()

    total_err = prefix.interval_err(0, sparse.n - 1)
    if total_err == 0.0:
        part = greedy_histogram_for_budget(sparse, 0.0, prefix, method=method)
        hist = flatten(sparse, part, prefix=prefix)
        return DualResult(histogram=hist, error=0.0, budget=0.0, search_steps=0)

    lo, hi = 0.0, float(total_err)
    best_part = Partition.trivial(sparse.n)
    steps = 0
    for _ in range(max_steps):
        steps += 1
        mid = (lo + hi) / 2.0
        part = greedy_histogram_for_budget(
            sparse, mid, prefix, max_pieces=k, method=method
        )
        if part is not None:
            best_part = part
            hi = mid
        else:
            lo = mid
        if hi - lo <= tolerance * total_err:
            break

    hist = flatten(sparse, best_part, prefix=prefix)
    errs = prefix.interval_err(best_part.lefts, best_part.rights)
    error = math.sqrt(float(np.sum(errs)))
    return DualResult(histogram=hist, error=error, budget=hi, search_steps=steps)
