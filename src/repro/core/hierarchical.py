"""Algorithm 2: multi-scale histogram construction by hierarchical merging.

One pass over an s-sparse input produces the whole hierarchy of partitions
``I_0, I_1, ..., I_L`` (Section 3.4).  Each round pairs consecutive
intervals, keeps the quarter of pairs with the largest merge errors split,
and merges the rest, shrinking the interval count by a factor 3/4 per round.

Theorem 3.5: for *every* ``1 <= k <= s`` there is a level ``j`` with
``|I_j| <= 8k`` whose flattening has error at most ``2 * opt_k`` — a single
run approximates the entire Pareto curve between space (pieces) and error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

import numpy as np

from .histogram import Histogram, flatten
from .intervals import Partition, initial_partition
from .prefix import PrefixSums
from .sparse import SparseFunction

__all__ = ["HierarchicalResult", "construct_hierarchical_histogram"]


@dataclass(frozen=True)
class HierarchicalResult:
    """The partition hierarchy produced by Algorithm 2, plus accessors."""

    q: SparseFunction
    levels: List[Partition]
    prefix: PrefixSums

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def level_for_budget(self, k: int) -> Partition:
        """Coarsest level with at most ``8k`` intervals (Theorem 3.5).

        The theorem guarantees the first level whose interval count drops
        below ``8k`` has flattening error at most ``2 * opt_k``.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        budget = 8 * k
        for part in self.levels:
            if part.num_intervals <= budget:
                return part
        return self.levels[-1]

    def histogram_for_budget(self, k: int) -> Histogram:
        """The ``<= 8k``-piece histogram competing with ``opt_k``."""
        return flatten(self.q, self.level_for_budget(k), prefix=self.prefix)

    def histogram_at_level(self, j: int) -> Histogram:
        """Flattening of the input over level ``j`` of the hierarchy."""
        return flatten(self.q, self.levels[j], prefix=self.prefix)

    def error_at_level(self, j: int) -> float:
        """Exact ``||q_bar_{I_j} - q||_2`` via the prefix sums."""
        part = self.levels[j]
        errs = self.prefix.interval_err(part.lefts, part.rights)
        return float(np.sqrt(np.sum(errs)))

    def pareto_curve(self) -> List[tuple]:
        """``(pieces, error)`` per level, coarsest last."""
        return [
            (part.num_intervals, self.error_at_level(j))
            for j, part in enumerate(self.levels)
        ]


def construct_hierarchical_histogram(
    q: Union[SparseFunction, np.ndarray],
    min_intervals: int = 8,
) -> HierarchicalResult:
    """Algorithm 2: build the full merge hierarchy in ``O(s)`` total time.

    Parameters
    ----------
    q:
        The input function, sparse or dense.
    min_intervals:
        Stop merging once fewer than this many intervals remain.  The paper
        uses 8 (the loop guard ``|I_j| >= 8``); exposing it allows the
        hierarchy to be driven all the way down to a single interval.
    """
    if min_intervals < 2:
        raise ValueError(f"min_intervals must be >= 2, got {min_intervals}")
    sparse = q if isinstance(q, SparseFunction) else SparseFunction.from_dense(q)
    ps = sparse.prefix_sums()

    levels = [initial_partition(sparse)]
    rights = levels[0].rights
    while rights.size >= min_intervals:
        s = rights.size
        npairs = s // 2
        spare = npairs // 2  # keep the s_j/4 pairs with the largest errors
        lefts = np.empty_like(rights)
        lefts[0] = 0
        lefts[1:] = rights[:-1] + 1

        pair_lefts = lefts[0 : 2 * npairs : 2]
        pair_rights = rights[1 : 2 * npairs : 2]
        errors = ps.interval_err(pair_lefts, pair_rights)

        keep = np.zeros(s, dtype=bool)
        keep[1 : 2 * npairs : 2] = True
        if s % 2:
            keep[-1] = True
        if spare >= npairs:
            kept_pairs = np.arange(npairs)
        elif spare == 0:
            kept_pairs = np.empty(0, dtype=np.int64)
        else:
            kept_pairs = np.argpartition(errors, npairs - spare)[npairs - spare :]
        keep[2 * kept_pairs] = True
        new_rights = rights[keep]
        if new_rights.size == rights.size:
            break  # cannot shrink further (tiny inputs)
        rights = new_rights
        levels.append(Partition(sparse.n, rights))

    return HierarchicalResult(q=sparse, levels=levels, prefix=ps)
