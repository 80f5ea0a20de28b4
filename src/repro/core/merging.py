"""Algorithm 1: near-optimal histogram construction by greedy merging.

This is the paper's main algorithmic contribution (Section 3.2).  Starting
from the exact ``O(s)``-interval representation of an s-sparse input, each
round pairs up consecutive intervals, computes the flattening error each
merge would incur, keeps the ``(1 + 1/delta) k`` pairs with the *largest*
errors un-merged, and merges all the rest.  The loop stops once at most
``(2 + 2/delta) k + gamma`` intervals remain; the output histogram is the
flattening of the input over the final partition.

Guarantees (Theorems 3.3, 3.4, Corollary 3.1):

* at most ``(2 + 2/delta) k + gamma`` pieces,
* error ``<= sqrt(1 + delta) * opt_k``,
* ``O(s)`` running time for ``gamma = Theta(k / delta)``, and
  ``O(s + k (1 + 1/delta) log((1 + 1/delta) k / gamma))`` in general.

The paper's experiments (Section 5) use ``delta = 1000`` and ``gamma = 1``,
which makes the output a ``(2k + 1)``-histogram; the ``merging2`` variant
calls the same routine with ``k' = k/2`` to get ``k + 1`` pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .histogram import Histogram, flatten
from .intervals import Partition, initial_partition
from .prefix import PrefixSums
from .sparse import SparseFunction

__all__ = [
    "MergingResult",
    "construct_histogram",
    "construct_histogram_partition",
    "keep_count",
    "target_pieces",
]


def target_pieces(k: int, delta: float, gamma: float) -> float:
    """Piece budget ``(2 + 2/delta) k + gamma`` at which merging stops."""
    return (2.0 + 2.0 / delta) * k + gamma


def keep_count(k: int, delta: float) -> int:
    """Number of pair merges spared each round: ``(1 + 1/delta) k`` largest."""
    return max(1, int(math.floor((1.0 + 1.0 / delta) * k)))


@dataclass(frozen=True)
class MergingResult:
    """Output of :func:`construct_histogram` with run diagnostics."""

    histogram: Histogram
    partition: Partition
    rounds: int
    initial_intervals: int

    @property
    def num_pieces(self) -> int:
        return self.partition.num_intervals


def _as_sparse(q: Union[SparseFunction, np.ndarray]) -> SparseFunction:
    if isinstance(q, SparseFunction):
        return q
    return SparseFunction.from_dense(np.asarray(q, dtype=np.float64))


def _merge_round(
    rights: np.ndarray, lefts: np.ndarray, prefix: PrefixSums, spare: int
) -> np.ndarray:
    """One round of pairing and merging; returns the new right endpoints.

    ``spare`` pairs with the largest merge errors are kept split; every other
    pair is merged.  An unpaired trailing interval passes through unchanged.
    """
    s = rights.size
    npairs = s // 2
    # Merge error of pair u = intervals (2u, 2u+1): flattening error of
    # [lefts[2u], rights[2u+1]], vectorized through the prefix sums.
    pair_lefts = lefts[0 : 2 * npairs : 2]
    pair_rights = rights[1 : 2 * npairs : 2]
    errors = prefix.interval_err(pair_lefts, pair_rights)

    keep = np.zeros(s, dtype=bool)
    keep[1 : 2 * npairs : 2] = True  # each pair's right end always survives
    if s % 2:
        keep[-1] = True  # unpaired trailing interval
    if spare >= npairs:
        kept_pairs = np.arange(npairs)
    else:
        # Linear-time selection of the `spare` largest merge errors
        # (np.argpartition is the introselect the paper's analysis assumes).
        kept_pairs = np.argpartition(errors, npairs - spare)[npairs - spare :]
    keep[2 * kept_pairs] = True  # splitting a pair keeps its left half too
    return rights[keep]


def _pair_rounds(
    rights: np.ndarray, prefix: PrefixSums, target: float, spare: int
) -> Tuple[np.ndarray, int]:
    """Pair-merge rounds until at most ``target`` intervals remain.

    Returns the new right endpoints and the number of rounds run.
    """
    rounds = 0
    while rights.size > target:
        npairs = rights.size // 2
        if npairs <= spare:
            break  # every pair would be spared; no further progress possible
        lefts = np.empty_like(rights)
        lefts[0] = 0
        lefts[1:] = rights[:-1] + 1
        rights = _merge_round(rights, lefts, prefix, spare)
        rounds += 1
    return rights, rounds


def construct_histogram_partition(
    q: Union[SparseFunction, np.ndarray],
    k: int,
    delta: float = 1.0,
    gamma: float = 1.0,
    prefix: PrefixSums = None,
) -> MergingResult:
    """Run Algorithm 1 and return the final partition plus diagnostics.

    Parameters
    ----------
    q:
        The input function, sparse or dense.
    k:
        Target number of histogram pieces to compete against (``opt_k``).
    delta:
        Trades approximation ratio (``sqrt(1 + delta)``) against the number
        of output pieces (``(2 + 2/delta) k + gamma``).  The paper's
        experiments use ``delta = 1000``.
    gamma:
        Trades running time against output pieces (Corollary 3.1).  Must be
        at least 1 so every round makes progress.
    prefix:
        Optional precomputed :class:`PrefixSums` for ``q``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    sparse = _as_sparse(q)
    ps = prefix if prefix is not None else sparse.prefix_sums()

    part = initial_partition(sparse)
    rights, rounds = _pair_rounds(
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


def construct_histogram(
    q: Union[SparseFunction, np.ndarray],
    k: int,
    delta: float = 1.0,
    gamma: float = 1.0,
) -> Histogram:
    """Algorithm 1: an ``O(k)``-piece histogram with error ``<= sqrt(1+delta) opt_k``.

    Convenience wrapper around :func:`construct_histogram_partition` that
    returns only the histogram.
    """
    return construct_histogram_partition(q, k, delta=delta, gamma=gamma).histogram
