"""Piecewise prefix-integral tables: the shared range-query primitive.

Every synopsis in the repo is piecewise-polynomial (a histogram is the
degree-0 case, a Haar reconstruction is piecewise constant), so its prefix
integral ``F(x) = sum_{i < x} f(i)`` decomposes into cumulative per-piece
masses plus a within-piece partial sum — itself a polynomial of degree
``d + 1`` in the offset ``t = x - left_u``.  :class:`PiecewisePrefix` is
that table for one function.

:class:`PrefixStack` is the one evaluator of such tables.  It stacks the
tables of one or more functions with per-entry key offsets, so one
``searchsorted`` over the stacked piece boundaries plus one Horner pass
answers a batch of B (entry, position) pairs in ``O(B log K)`` for ``K``
stacked pieces.  One table is the one-entry stack
(:meth:`PiecewisePrefix.as_stack`); the serving engine's ``PrefixTable``
and ``CohortTable`` stack many.

:func:`check_query` is each query kind's one check: the query methods
raise from it and a stacked serving call takes its row mask.

Numerical design: the within-piece partial-sum polynomial is stored in the
scaled variable ``s = 2 t / |I_u| - 1`` in ``[-1, 1]``, fitted by exact
interpolation at ``d + 2`` equispaced integer offsets.  Evaluating a
polynomial on ``[-1, 1]`` with interpolation-sized coefficients is
well-conditioned at the degrees that occur here (``d <= ~10``), unlike
Newton-at-zero forms whose ``C(t, m + 1)`` factors amplify coefficient
rounding by ``~t^(m+1)`` on long pieces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # fitpoly imports sparse, which imports this module
    from .fitpoly import PolynomialFit

__all__ = ["PiecewisePrefix", "PrefixStack", "as_count", "as_positions", "check_query"]

ArrayLike = Union[int, np.ndarray]

#: Points a :class:`PrefixStack` evaluates per vectorized pass, so each
#: temporary of a pass stays near 32 KB however many points a call holds
#: (a serving front end stacks a shard job's requests into one call).
_POINTS_PER_PASS = 4096

#: Positions saturate at the int64 range: a uint64 at or above 2**63 would
#: wrap negative, and a float beyond it cast to a platform-defined value.
_UINT_CAP = np.uint64(np.iinfo(np.int64).max)
_FLOAT_LOW, _FLOAT_HIGH = -(2.0**63), float(np.nextafter(2.0**63, 0.0))


class Checked(NamedTuple):
    """A query's converted arguments (positions int64, levels float64),
    its rows that fail any check and the first failing check's error."""

    args: Tuple[np.ndarray, ...]
    bad: np.ndarray
    error: Optional[Exception]

    def passed(self) -> Tuple[np.ndarray, ...]:
        """The converted arguments, or raise the first failing check's error."""
        if self.error is not None:
            raise self.error
        return self.args


def _per_point(values: Any, entries: Any) -> Any:
    """``values[e]`` of every point's entry (entry 0 if ``entries`` is None)."""
    return values[0] if entries is None else values[entries]


def check_query(
    kind: str,
    args: Sequence[Any],
    ns: Any = None,
    entries: Any = None,
    totals: Any = None,
    prefixes: Sequence["PiecewisePrefix"] = (),
) -> Checked:
    """Convert and check the arguments of one ``kind`` query (or of bare
    ``positions``).  A point of entry ``e`` (``entries``; None is entry
    0) has domain ``ns[e]``, mass ``totals[e]`` and table ``prefixes[e]``.

    The error is the first failing check's, in this order: positive mass
    (cdf, quantile); each position argument an integer, in argument order
    (one beyond int64 saturates, so it fails the domain); the level in
    ``[0, 1]``; a monotone prefix (quantile); the domain, named by the
    first failing point.  A conversion error raises unless a check failed
    before it.  A range's two ends come back broadcast against each other.
    """
    converted = []
    failures = []  # (rows, error) of each failing check, in check order
    try:
        if kind in ("cdf", "quantile"):
            empty = _per_point(totals, entries) <= 0.0
            if np.any(empty):
                error = ValueError(f"{kind} requires positive total mass")
                failures.append((empty, error))
        if kind == "quantile":
            levels = np.asarray(args[0], dtype=np.float64)
            converted.append(levels)
            outside = ~((levels >= 0.0) & (levels <= 1.0))
            if outside.any():
                error = ValueError("quantile levels must lie in [0, 1]")
                failures.append((outside, error))
            # A bincount finds the touched entries: the check sorts nothing.
            counts = [1] if entries is None else np.bincount(np.ravel(entries))
            undefined = np.zeros(len(prefixes), dtype=bool)
            for entry in np.flatnonzero(counts).tolist():
                p = prefixes[entry]
                undefined[entry] = not (p.is_piecewise_linear or p.is_nondecreasing)
            if undefined.any():
                error = ValueError(
                    "quantile is undefined for this synopsis: its reconstruction "
                    "goes negative, so the prefix integral is not monotone"
                )
                failures.append((_per_point(undefined, entries), error))
        else:
            for arg in args:
                xs = np.asarray(arg)
                if xs.dtype.kind == "u":
                    xs = np.minimum(xs, _UINT_CAP)
                elif xs.dtype.kind != "i":
                    values = xs.astype(np.float64)
                    bad = ~(np.isfinite(values) & (values == np.floor(values)))
                    if bad.any():
                        first = values[bad][0]
                        error = ValueError(f"positions must be integers, got {first}")
                        failures.append((bad, error))
                        values = np.where(bad, 0.0, values)
                    xs = np.clip(values, _FLOAT_LOW, _FLOAT_HIGH)
                converted.append(xs.astype(np.int64, copy=False))
        if kind not in ("quantile", "positions"):
            n = _per_point(ns, entries)
            if kind in ("range_sum", "range_mean"):
                if converted[0].shape != converted[1].shape:
                    # The ranges the broadcast pairs up: an empty side is
                    # no ranges at all, whatever the other side holds.
                    converted = np.broadcast_arrays(*converted)
                aa, bb = converted
                outside = (aa < 0) | (bb >= n) | (aa > bb)
                error_type, message = ValueError, "ranges must satisfy 0 <= a <= b < {}"
            elif kind == "integral":
                outside = (converted[0] < 0) | (converted[0] > n)
                error_type, message = IndexError, "prefix positions must lie in [0, {}]"
            else:
                outside = (converted[0] < 0) | (converted[0] >= n)
                error_type, message = ValueError, "positions must lie in [0, {})"
            if outside.any():
                bound = np.broadcast_to(n, outside.shape)[outside][0]
                failures.append((outside, error_type(message.format(bound))))
    except (TypeError, ValueError):
        if not failures:
            raise
        converted = []  # they may not broadcast: the failures shape the rows
    bad = np.zeros(np.broadcast(*converted, entries).shape, dtype=bool)
    for rows, _ in failures:
        bad = bad | rows
    return Checked(tuple(converted), bad, failures[0][1] if failures else None)


def as_positions(x: Any) -> np.ndarray:
    """``x`` as int64 positions (saturated at the int64 range), or
    :exc:`ValueError` for a value that is not a finite integer: ``3.0`` is
    position 3, while ``1.5``, NaN and inf raise instead of truncating."""
    return check_query("positions", (x,)).passed()[0]


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

    __slots__ = (
        "n", "lefts", "lengths", "coeffs", "boundary", "_nondecreasing", "_stack"
    )

    def __init__(self, n: int, lefts: np.ndarray, coeffs: np.ndarray) -> None:
        self.n = int(n)
        self.lefts = np.asarray(lefts, dtype=np.int64)
        self.coeffs = np.asarray(coeffs, dtype=np.float64)
        self.lengths = np.diff(np.append(self.lefts, n)).astype(np.float64)
        # S(length) is the polynomial at s = 1, i.e. the row sum.
        masses = self.coeffs.sum(axis=-1)
        self.boundary = np.concatenate(([0.0], np.cumsum(masses)))
        self._nondecreasing: Union[bool, None] = None
        self._stack: Optional[PrefixStack] = None

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

    def as_stack(self) -> "PrefixStack":
        """This table as a one-entry :class:`PrefixStack` (made once)."""
        if self._stack is None:
            self._stack = PrefixStack([self])
        return self._stack

    def integral(self, x: ArrayLike) -> np.ndarray:
        """``F(x) = sum_{i < x} f(i)`` for ``x`` in ``[0, n]``, vectorized.

        Positions must be integers; one outside ``[0, n]`` raises
        :exc:`IndexError` (:func:`check_query`).
        """
        stack = self.as_stack()
        (xs,) = check_query("integral", (x,), stack.ns).passed()
        return stack.integral(xs)


class PrefixStack:
    """The prefix tables of one or more functions, stacked into one evaluator.

    Entry ``j``'s piece arrays (lefts, lengths, coefficient rows, boundary
    masses) follow those of entries ``0 .. j-1``, and its position ``x``
    in ``[0, n_j]`` becomes the key ``offsets[j] + x``.  That key sorts
    after every piece key of the entries before ``j`` and before every
    one of the entries after it (lefts start at 0 and stay below
    ``n_j``), so one ``searchsorted`` over the stacked keys places every
    (entry, position) pair at once.  Each answer is bitwise the one the
    entry's own one-entry stack gives: the same gathers and the same
    elementwise arithmetic, and an entry narrower than the widest
    coefficient row starts its Horner recurrence at its own top power
    (a zero-padded start would turn a ``-0.0`` top coefficient into
    ``+0.0``).

    Attributes
    ----------
    ns:
        Per-entry domain sizes.
    totals:
        Per-entry total masses.
    starts:
        Entry ``j``'s pieces are ``starts[j]:starts[j + 1]`` of the
        stacked piece arrays.
    lefts, lengths, base:
        Stacked piece left endpoints (the entry's own positions), piece
        lengths, and the cumulative mass before each piece.
    """

    __slots__ = (
        "ns",
        "totals",
        "starts",
        "offsets",
        "keys",
        "lefts",
        "lengths",
        "base",
        "_coeffs",
        "_widths",
    )

    def __init__(self, prefixes: Sequence[PiecewisePrefix]) -> None:
        if not prefixes:
            raise ValueError("a prefix stack needs at least one table")
        self.ns = np.array([prefix.n for prefix in prefixes], dtype=np.int64)
        self.totals = np.array([prefix.boundary[-1] for prefix in prefixes])
        counts = [prefix.num_pieces for prefix in prefixes]
        self.starts = np.concatenate(([0], np.cumsum(counts)))
        widths = np.array(
            [prefix.coeffs.shape[1] for prefix in prefixes], dtype=np.int64
        )
        # One row per coefficient power, so each Horner step gathers from
        # one row.
        if len(prefixes) == 1:
            (prefix,) = prefixes
            self.offsets = np.zeros(1, dtype=np.int64)
            self.keys = self.lefts = prefix.lefts
            self.lengths = prefix.lengths
            self.base = prefix.boundary[:-1]
            self._coeffs = prefix.coeffs.T
        else:
            self.offsets = np.concatenate(([0], np.cumsum(self.ns + 1)[:-1]))
            self.lefts = np.concatenate([prefix.lefts for prefix in prefixes])
            self.keys = self.lefts + np.repeat(self.offsets, counts)
            self.lengths = np.concatenate([prefix.lengths for prefix in prefixes])
            self.base = np.concatenate(
                [prefix.boundary[:-1] for prefix in prefixes]
            )
            if np.all(widths == widths[0]):
                self._coeffs = np.concatenate(
                    [prefix.coeffs.T for prefix in prefixes], axis=1
                )
            else:
                # Zero-padded above a narrower entry's top power.
                coeffs = np.zeros((int(widths.max()), self.lefts.size))
                for prefix, start, stop in zip(
                    prefixes, self.starts[:-1], self.starts[1:]
                ):
                    coeffs[: prefix.coeffs.shape[1], start:stop] = prefix.coeffs.T
                self._coeffs = coeffs
        # Mixed widths need each entry's own start of Horner's recurrence.
        self._widths = widths if np.any(widths != widths[0]) else None

    def integral(
        self, xs: np.ndarray, entries: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``F_e(x)`` for int64 positions ``xs`` of entries ``entries``.

        ``entries`` broadcasts against ``xs`` (None is entry 0), and every
        position must lie inside its entry's ``[0, n_e]``; callers check.
        """
        if (
            xs.ndim == 1
            and xs.size > _POINTS_PER_PASS
            and (entries is None or entries.shape == xs.shape)
        ):
            out = np.empty(xs.size)
            for start in range(0, xs.size, _POINTS_PER_PASS):
                part = slice(start, start + _POINTS_PER_PASS)
                out[part] = self.integral(
                    xs[part], None if entries is None else entries[part]
                )
            return out
        keys = xs if entries is None else self.offsets[entries] + xs
        u = np.searchsorted(self.keys, keys, side="right") - 1
        s = 2.0 * (xs - self.lefts[u]) / self.lengths[u] - 1.0
        coeffs = self._coeffs
        top = coeffs.shape[0] - 1
        out = coeffs[top][u]
        widths = None
        if self._widths is not None:
            widths = self._widths[0 if entries is None else entries]
        for power in range(top - 1, -1, -1):
            row = coeffs[power][u]
            step = out * s + row
            if widths is not None:
                # An entry whose own top power is at or below this one
                # starts its recurrence here, as its own table would.
                step = np.where(widths > power + 1, step, row)
            out = step
        return self.base[u] + out
