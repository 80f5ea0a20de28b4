"""Piecewise prefix-integral tables: the shared range-query primitive.

Every synopsis in the repo is piecewise-polynomial (a histogram is the
degree-0 case, a Haar reconstruction is piecewise constant), so its prefix
integral ``F(x) = sum_{i < x} f(i)`` decomposes into cumulative per-piece
masses plus a within-piece partial sum — itself a polynomial of degree
``d + 1`` in the offset ``t = x - left_u``.  :class:`PiecewisePrefix` is
that table: one ``searchsorted`` over the ``k`` piece boundaries plus a
Horner evaluation answers a batch of B prefix queries in ``O(B log k)``.

Numerical design: the within-piece partial-sum polynomial is stored in the
scaled variable ``s = 2 t / |I_u| - 1`` in ``[-1, 1]``, fitted by exact
interpolation at ``d + 2`` equispaced integer offsets.  Evaluating a
polynomial on ``[-1, 1]`` with interpolation-sized coefficients is
well-conditioned at the degrees that occur here (``d <= ~10``), unlike
Newton-at-zero forms whose ``C(t, m + 1)`` factors amplify coefficient
rounding by ``~t^(m+1)`` on long pieces.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Union

import numpy as np

from .fitpoly import PolynomialFit

__all__ = ["PiecewisePrefix", "as_count", "as_positions"]

ArrayLike = Union[int, np.ndarray]


def as_positions(x: Any) -> np.ndarray:
    """``x`` as int64 positions, or :exc:`ValueError` for a value that is
    not an integer.

    Integer arrays pass with no check.  Anything else must hold finite
    integral values (``3.0`` is position 3; ``1.5``, NaN and inf raise),
    so a position is never silently truncated.
    """
    xs = np.asarray(x)
    if xs.dtype.kind in "iu":
        return xs.astype(np.int64, copy=False)
    values = xs.astype(np.float64)
    integral = np.isfinite(values) & (values == np.floor(values))
    if not integral.all():
        raise ValueError(
            f"positions must be integers, got {values[~integral][0]}"
        )
    return values.astype(np.int64)


def as_count(m: Any) -> int:
    """A top-k size as an int, or :exc:`ValueError` unless ``m`` is one
    integer >= 1."""
    try:
        count = as_positions(m)
    except ValueError:
        count = None
    if count is None or count.ndim:
        raise ValueError(f"m must be an integer, got {m!r}")
    if count < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return int(count)


def _horner(coeffs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Evaluate per-row polynomials ``coeffs[..., m] s^m`` at ``s``."""
    out = coeffs[..., -1].copy() if coeffs.shape[-1] > 1 else coeffs[..., -1]
    for m in range(coeffs.shape[-1] - 2, -1, -1):
        out = out * s + coeffs[..., m]
    return out


def _partial_sum_coefficients(fit: PolynomialFit, width: int) -> np.ndarray:
    """Scaled-basis coefficients of ``S(t) = sum_{j < t} p(j)`` on one piece.

    ``S`` is a polynomial of degree ``fit.degree + 1``; interpolating it at
    ``degree + 2`` integer offsets spread over ``[0, |I|]`` determines it
    exactly.  The nodes' partial sums come from one dense pass over the
    piece (the table is built once and cached, so this O(|I|) cost is the
    same order as any use of the synopsis's reconstruction).
    """
    length = fit.num_points
    partial = np.concatenate(([0.0], np.cumsum(fit.to_dense())))
    nodes = np.round(np.linspace(0.0, length, fit.degree + 2)).astype(np.int64)
    s_nodes = 2.0 * nodes / length - 1.0
    coeffs = np.polynomial.polynomial.polyfit(
        s_nodes, partial[nodes], fit.degree + 1
    )
    row = np.zeros(width)
    row[: coeffs.size] = coeffs
    return row


class PiecewisePrefix:
    """Prefix-integral table of a piecewise-polynomial function on ``[0, n)``.

    Attributes
    ----------
    n:
        Universe size.
    lefts:
        Piece left endpoints, shape ``(k,)``, starting at 0.
    lengths:
        Piece cardinalities, shape ``(k,)``.
    coeffs:
        Within-piece partial-sum coefficient rows in the scaled variable
        ``s = 2 t / length - 1``, shape ``(k, width)``.
    boundary:
        Cumulative piece masses, shape ``(k + 1,)``; ``boundary[k]`` is the
        total mass.
    """

    __slots__ = ("n", "lefts", "lengths", "coeffs", "boundary", "_nondecreasing")

    def __init__(self, n: int, lefts: np.ndarray, coeffs: np.ndarray) -> None:
        self.n = int(n)
        self.lefts = np.asarray(lefts, dtype=np.int64)
        self.coeffs = np.asarray(coeffs, dtype=np.float64)
        self.lengths = np.diff(np.append(self.lefts, n)).astype(np.float64)
        # S(length) is the polynomial at s = 1, i.e. the row sum.
        masses = self.coeffs.sum(axis=-1)
        self.boundary = np.concatenate(([0.0], np.cumsum(masses)))
        self._nondecreasing: Union[bool, None] = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_constant_pieces(
        cls, n: int, lefts: np.ndarray, values: np.ndarray
    ) -> "PiecewisePrefix":
        """Table for a histogram: ``S(t) = v t`` maps to ``v L (s + 1) / 2``."""
        lefts = np.asarray(lefts, dtype=np.int64)
        half = values * np.diff(np.append(lefts, n)) / 2.0
        return cls(n, lefts, np.stack((half, half), axis=-1))

    @classmethod
    def from_polynomial_fits(
        cls, n: int, fits: Sequence[PolynomialFit]
    ) -> "PiecewisePrefix":
        """Table for a piecewise polynomial given its per-piece fits."""
        width = max(fit.degree for fit in fits) + 2
        lefts = np.asarray([fit.a for fit in fits], dtype=np.int64)
        coeffs = np.vstack(
            [_partial_sum_coefficients(fit, width) for fit in fits]
        )
        return cls(n, lefts, coeffs)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def num_pieces(self) -> int:
        return int(self.lefts.size)

    @property
    def total_mass(self) -> float:
        return float(self.boundary[-1])

    def piece_masses(self) -> np.ndarray:
        return np.diff(self.boundary)

    def rights(self) -> np.ndarray:
        """Inclusive piece right endpoints, aligned with :attr:`lefts`."""
        return np.append(self.lefts[1:] - 1, self.n - 1)

    @property
    def is_piecewise_linear(self) -> bool:
        """True when every partial-sum row is linear in ``s``, i.e. the
        underlying function is constant on each piece (every family except
        the piecewise-polynomial one)."""
        return self.coeffs.shape[1] <= 2 or not np.any(self.coeffs[:, 2:])

    @property
    def is_nondecreasing(self) -> bool:
        """Certified monotonicity of the prefix integral.

        Checks ``S'(s) >= 0`` on ``[-1, 1]`` for every piece (endpoints plus
        real critical points of ``S'``).  Continuous nonnegativity of the
        slope implies the integer-sampled prefix is nondecreasing; the check
        is conservative the other way — a reconstruction dipping negative
        between integers fails it even if the integer samples happen to be
        monotone.
        """
        if self._nondecreasing is None:
            poly = np.polynomial.polynomial
            tol = 1e-9 * (1.0 + float(np.max(np.abs(self.coeffs), initial=0.0)))
            ok = True
            for row in self.coeffs:
                d1 = poly.polyder(row)
                candidates = [-1.0, 1.0]
                if d1.size > 2:
                    for root in poly.polyroots(poly.polyder(d1)):
                        if abs(root.imag) < 1e-12 and -1.0 < root.real < 1.0:
                            candidates.append(float(root.real))
                if float(np.min(poly.polyval(np.asarray(candidates), d1))) < -tol:
                    ok = False
                    break
            self._nondecreasing = ok
        return self._nondecreasing

    def integral(self, x: ArrayLike) -> np.ndarray:
        """``F(x) = sum_{i < x} f(i)`` for ``x`` in ``[0, n]``, vectorized."""
        xs = np.asarray(x, dtype=np.int64)
        if np.any((xs < 0) | (xs > self.n)):
            raise IndexError(f"prefix positions must lie in [0, {self.n}]")
        u = np.clip(
            np.searchsorted(self.lefts, xs, side="right") - 1,
            0,
            self.num_pieces - 1,
        )
        s = 2.0 * (xs - self.lefts[u]) / self.lengths[u] - 1.0
        return self.boundary[u] + _horner(self.coeffs[u], s)
