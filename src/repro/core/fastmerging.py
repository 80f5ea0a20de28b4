"""The ``fastmerging`` variant: aggressive group merging.

Section 5 (footnote 3) of the paper describes a variant of Algorithm 1 that
merges *larger groups* of consecutive intervals in the early rounds, so that
only ``O(log log n)`` rounds are needed instead of ``O(log n)`` — the total
running time is still dominated by the first round and remains ``O(s)``, but
the constant factor shrinks considerably in practice.

Our group-size schedule follows the square-root rule: with ``s_j`` current
intervals and ``l = (1 + 1/delta) k`` spared groups per round, we merge
groups of ``g_j = ceil(sqrt(s_j / l))`` consecutive intervals.  Then
``s_{j+1} ~ l g_j + s_j / g_j ~ 2 sqrt(l s_j)``, which reaches ``O(l)`` in
``O(log log (s / l))`` rounds.  As in Algorithm 1, the groups with the
largest merge errors are kept split, so the same jump-counting argument
bounds the error of every flattened group.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

import numpy as np

from .histogram import Histogram, flatten
from .intervals import Partition, initial_partition
from .merging import MergingResult, _pair_rounds, keep_count, target_pieces
from .prefix import PrefixSums
from .sparse import SparseFunction

__all__ = ["construct_fast_histogram", "construct_fast_histogram_partition"]


def _group_round(
    rights: np.ndarray,
    prefix: PrefixSums,
    group_size: int,
    spare: int,
) -> np.ndarray:
    """Merge consecutive groups of ``group_size`` intervals, sparing the worst.

    Groups whose merge error ranks among the ``spare`` largest keep all their
    constituent intervals; every other group collapses to a single interval.
    A trailing partial group passes through unchanged.
    """
    s = rights.size
    ngroups = s // group_size
    lefts = np.empty_like(rights)
    lefts[0] = 0
    lefts[1:] = rights[:-1] + 1

    group_lefts = lefts[0 : ngroups * group_size : group_size]
    group_rights = rights[group_size - 1 : ngroups * group_size : group_size]
    errors = prefix.interval_err(group_lefts, group_rights)

    keep = np.zeros(s, dtype=bool)
    # The last interval of each group always survives, as does the tail.
    keep[group_size - 1 : ngroups * group_size : group_size] = True
    keep[ngroups * group_size :] = True
    if spare >= ngroups:
        kept_groups = np.arange(ngroups)
    else:
        kept_groups = np.argpartition(errors, ngroups - spare)[ngroups - spare :]
    # Splitting a group keeps every interval inside it.
    for g in kept_groups:
        keep[g * group_size : (g + 1) * group_size] = True
    return rights[keep]


def construct_fast_histogram_partition(
    q: Union[SparseFunction, np.ndarray],
    k: int,
    delta: float = 1.0,
    gamma: float = 1.0,
) -> MergingResult:
    """``fastmerging``: Algorithm 1 with a doubly-logarithmic round schedule.

    Same output guarantees shape as :func:`construct_histogram_partition`
    (at most ``(2 + 2/delta) k + gamma`` pieces); the group-merge rounds trade
    a small constant in approximation quality for far fewer rounds.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    sparse = q if isinstance(q, SparseFunction) else SparseFunction.from_dense(q)
    ps = sparse.prefix_sums()

    part = initial_partition(sparse)
    rights, rounds = _group_rounds(
        part.rights, ps, target_pieces(k, delta, gamma), keep_count(k, delta)
    )

    final = Partition(sparse.n, rights)
    hist = flatten(sparse, final, prefix=ps)
    return MergingResult(
        histogram=hist,
        partition=final,
        rounds=rounds,
        initial_intervals=part.num_intervals,
    )


def _group_rounds(
    rights: np.ndarray, prefix: PrefixSums, target: float, spare: int
) -> Tuple[np.ndarray, int]:
    """Group-merge rounds until at most ``target`` intervals remain.

    Returns the new right endpoints and the number of rounds run.
    """
    rounds = 0
    while rights.size > target:
        s = rights.size
        group_size = max(2, int(math.ceil(math.sqrt(s / spare))))
        if s // group_size <= spare:
            # Too few groups for aggressive merging to make progress; finish
            # with plain binary pair rounds on the *current* interval set.
            rights, extra = _pair_rounds(rights, prefix, target, spare)
            return rights, rounds + extra
        rights = _group_round(rights, prefix, group_size, spare)
        rounds += 1
    return rights, rounds


def construct_fast_histogram(
    q: Union[SparseFunction, np.ndarray],
    k: int,
    delta: float = 1.0,
    gamma: float = 1.0,
) -> Histogram:
    """Convenience wrapper returning only the ``fastmerging`` histogram."""
    return construct_fast_histogram_partition(q, k, delta=delta, gamma=gamma).histogram
