"""Prefix sums over sparse functions for O(1) interval statistics.

Algorithm 1 of the paper precomputes the partial sums ``r_j = sum_{i_u <= j}
y_u`` and ``t_j = sum_{i_u <= j} y_u^2`` so that the mean ``mu_q(I)`` and the
flattening error ``err_q(I)`` of any interval can be evaluated in constant
time (proof of Theorem 3.4).  :class:`PrefixSums` is that structure, with
vectorized batch variants used by the merging loops.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from .sparse import SparseFunction

__all__ = ["PrefixSums"]

ArrayLike = Union[int, np.ndarray]


class PrefixSums:
    """Cumulative first and second moments of a :class:`SparseFunction`.

    All interval arguments are closed intervals ``[a, b]`` with
    ``0 <= a <= b < n``; batch methods accept equal-length arrays of
    endpoints and return arrays.  :meth:`SparseFunction.prefix_sums`
    memoizes one per function, so a build and its error measurement sum
    the input once.
    """

    __slots__ = ("indices", "_cum", "_cum_sq")

    def __init__(self, q: SparseFunction) -> None:
        # Only the positions are kept, not ``q``: ``q`` memoizes this
        # object (:meth:`SparseFunction.prefix_sums`), and a reference back
        # would leave every memoized pair to the cycle collector.
        self.indices = q.indices
        # _cum[j] = sum of the first j nonzero values, so that a range of
        # nonzero ranks [lo, hi) sums to _cum[hi] - _cum[lo].
        self._cum = np.concatenate(([0.0], np.cumsum(q.values)))
        self._cum_sq = np.concatenate(([0.0], np.cumsum(q.values * q.values)))

    # ------------------------------------------------------------------ #
    # Rank helpers
    # ------------------------------------------------------------------ #

    def _rank_range(self, a: ArrayLike, b: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
        """Ranks [lo, hi) of nonzeros with positions inside ``[a, b]``."""
        lo = np.searchsorted(self.indices, a, side="left")
        hi = np.searchsorted(self.indices, b, side="right")
        return lo, hi

    # ------------------------------------------------------------------ #
    # Interval statistics
    # ------------------------------------------------------------------ #

    def interval_sum(self, a: ArrayLike, b: ArrayLike) -> Union[float, np.ndarray]:
        """``sum_{i in [a, b]} q(i)`` (scalar or vectorized)."""
        lo, hi = self._rank_range(a, b)
        out = self._cum[hi] - self._cum[lo]
        return float(out) if np.ndim(a) == 0 else out

    def interval_sum_sq(self, a: ArrayLike, b: ArrayLike) -> Union[float, np.ndarray]:
        """``sum_{i in [a, b]} q(i)^2`` (scalar or vectorized)."""
        lo, hi = self._rank_range(a, b)
        out = self._cum_sq[hi] - self._cum_sq[lo]
        return float(out) if np.ndim(a) == 0 else out

    def interval_mean(self, a: ArrayLike, b: ArrayLike) -> Union[float, np.ndarray]:
        """``mu_q([a, b])``: the optimal constant fit on the interval."""
        length = np.asarray(b, dtype=np.float64) - np.asarray(a, dtype=np.float64) + 1.0
        out = self.interval_sum(a, b) / length
        return float(out) if np.ndim(a) == 0 else out

    def interval_err(self, a: ArrayLike, b: ArrayLike) -> Union[float, np.ndarray]:
        """``err_q([a, b])``: squared l2 error of the best constant fit.

        Computed as ``sum q^2 - (sum q)^2 / |I|`` (Definition 3.1 combined
        with the identity in the proof of Theorem 3.4).  Tiny negative values
        from floating-point cancellation are clamped to zero.
        """
        lo, hi = self._rank_range(a, b)
        total = self._cum[hi] - self._cum[lo]
        total_sq = self._cum_sq[hi] - self._cum_sq[lo]
        length = np.asarray(b, dtype=np.float64) - np.asarray(a, dtype=np.float64) + 1.0
        err = total_sq - (total * total) / length
        err = np.maximum(err, 0.0)
        return float(err) if np.ndim(a) == 0 else err

    def l2_sq_to_constant(
        self, a: ArrayLike, b: ArrayLike, value: ArrayLike
    ) -> Union[float, np.ndarray]:
        """Squared l2 distance between ``q`` and the constant ``value`` on [a, b].

        ``sum_{i in [a,b]} (q(i) - v)^2 = sum q^2 - 2 v sum q + v^2 |I|``.
        """
        lo, hi = self._rank_range(a, b)
        total = self._cum[hi] - self._cum[lo]
        total_sq = self._cum_sq[hi] - self._cum_sq[lo]
        v = np.asarray(value, dtype=np.float64)
        length = np.asarray(b, dtype=np.float64) - np.asarray(a, dtype=np.float64) + 1.0
        out = total_sq - 2.0 * v * total + v * v * length
        out = np.maximum(out, 0.0)
        return float(out) if np.ndim(a) == 0 else out
