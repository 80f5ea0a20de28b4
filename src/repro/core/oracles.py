"""Projection oracles for the generalized merging algorithm (Section 4.1).

A projection oracle for a function class ``F`` takes an interval and
returns the best approximation of the input within ``F`` on that interval,
together with the exact l2 error (Definition 4.1).  Algorithm 1 is the
special case where ``F`` is the constant functions; plugging in the
polynomial oracle yields the piecewise-polynomial fitter of Theorem 2.3.

Oracles here are *bound* to a fixed input function at construction so they
can precompute prefix sums once and serve vectorized batch error queries —
that is what keeps the merging loop sample-linear.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .fitpoly import PolynomialFit, fit_polynomial
from .sparse import SparseFunction

__all__ = ["ProjectionOracle", "ConstantOracle", "PolynomialOracle", "LinearOracle"]


class ProjectionOracle(ABC):
    """Best-fit queries against a fixed input ``q`` for a function class."""

    def __init__(self, q: SparseFunction) -> None:
        self.q = q

    @abstractmethod
    def error_sq(self, a: int, b: int) -> float:
        """Squared l2 error of the best class member on ``[a, b]``."""

    @abstractmethod
    def fit(self, a: int, b: int) -> PolynomialFit:
        """The best class member on ``[a, b]`` (as a polynomial piece)."""

    def error_sq_batch(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        """Vectorizable batch of :meth:`error_sq`; default loops."""
        return np.asarray(
            [self.error_sq(int(a), int(b)) for a, b in zip(lefts, rights)]
        )


class ConstantOracle(ProjectionOracle):
    """Degree-0 oracle: flattening.  Reduces the general merger to Algorithm 1."""

    def __init__(self, q: SparseFunction) -> None:
        super().__init__(q)
        self.prefix = q.prefix_sums()

    def error_sq(self, a: int, b: int) -> float:
        return self.prefix.interval_err(a, b)

    def error_sq_batch(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        return np.atleast_1d(self.prefix.interval_err(lefts, rights))

    def fit(self, a: int, b: int) -> PolynomialFit:
        mean = self.prefix.interval_mean(a, b)
        num_points = b - a + 1
        # A constant c has Gram coefficient a_0 = c * sqrt(N).
        coeffs = np.asarray([mean * np.sqrt(num_points)])
        return PolynomialFit(
            a=a, b=b, degree=0, coefficients=coeffs,
            error_sq=self.prefix.interval_err(a, b),
        )


class PolynomialOracle(ProjectionOracle):
    """Degree-``d`` oracle built on :func:`~repro.core.fitpoly.fit_polynomial`."""

    def __init__(self, q: SparseFunction, degree: int) -> None:
        if degree < 0:
            raise ValueError(f"degree must be nonnegative, got {degree}")
        super().__init__(q)
        self.degree = degree

    def error_sq(self, a: int, b: int) -> float:
        return fit_polynomial(self.q, a, b, self.degree).error_sq

    def fit(self, a: int, b: int) -> PolynomialFit:
        return fit_polynomial(self.q, a, b, self.degree)


class LinearOracle(ProjectionOracle):
    """Closed-form degree-1 oracle with O(1) batch error queries.

    For the linear class the two Gram coefficients have closed forms in
    three prefix sums — ``sum q``, ``sum q^2``, and ``sum i * q(i)``:

        a_0 = S_0 / sqrt(N),
        a_1 = (S_1 - (a + c) S_0) / sqrt(N b_1),   c = (N-1)/2,
        b_1 = (N^2 - 1) / 12,
        err^2 = sum q^2 - a_0^2 - a_1^2  (Parseval).

    This makes piecewise-*linear* merging run in O(s) total, exactly like
    Algorithm 1 — compare with the generic :class:`PolynomialOracle`, which
    pays O(s_I) per query.  Results are identical to ``PolynomialOracle(1)``
    up to floating point.
    """

    def __init__(self, q: SparseFunction) -> None:
        super().__init__(q)
        self.prefix = q.prefix_sums()
        # Prefix sums of the first-moment signal i * q(i).
        self._cum_xq = np.concatenate(
            ([0.0], np.cumsum(q.indices.astype(np.float64) * q.values))
        )

    def _moments(self, a, b):
        """Vectorized (S0, S1_centred, Ssq, N) over closed intervals."""
        lo = np.searchsorted(self.q.indices, a, side="left")
        hi = np.searchsorted(self.q.indices, b, side="right")
        s0 = self.prefix._cum[hi] - self.prefix._cum[lo]
        ssq = self.prefix._cum_sq[hi] - self.prefix._cum_sq[lo]
        s1 = self._cum_xq[hi] - self._cum_xq[lo]
        length = np.asarray(b, dtype=np.float64) - np.asarray(a, dtype=np.float64) + 1.0
        centre = np.asarray(a, dtype=np.float64) + (length - 1.0) / 2.0
        s1_centred = s1 - centre * s0
        return s0, s1_centred, ssq, length

    def error_sq_batch(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        s0, s1c, ssq, length = self._moments(lefts, rights)
        a0_sq = (s0 * s0) / length
        b1 = (length * length - 1.0) / 12.0
        denom = length * b1
        # Singleton intervals have no linear component (b1 = 0).
        a1_sq = np.where(denom > 0.0, (s1c * s1c) / np.where(denom > 0.0, denom, 1.0), 0.0)
        return np.atleast_1d(np.maximum(ssq - a0_sq - a1_sq, 0.0))

    def error_sq(self, a: int, b: int) -> float:
        return float(self.error_sq_batch(np.asarray([a]), np.asarray([b]))[0])

    def fit(self, a: int, b: int) -> PolynomialFit:
        s0, s1c, ssq, length = self._moments(a, b)
        n_pts = float(length)
        if n_pts < 2.0:
            coeffs = np.asarray([float(s0)])
            return PolynomialFit(a=a, b=b, degree=0, coefficients=coeffs, error_sq=0.0)
        b1 = (n_pts * n_pts - 1.0) / 12.0
        a0 = float(s0) / np.sqrt(n_pts)
        a1 = float(s1c) / np.sqrt(n_pts * b1)
        error_sq = max(float(ssq) - a0 * a0 - a1 * a1, 0.0)
        return PolynomialFit(
            a=a, b=b, degree=1, coefficients=np.asarray([a0, a1]), error_sq=error_sq
        )
