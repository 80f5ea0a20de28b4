"""Shared hypothesis strategies for the test suite.

Kept in a plain module (not ``conftest.py``) so test files can import the
strategies explicitly: ``from helpers import dense_arrays`` resolves to this
file because pytest puts each test's directory on ``sys.path``, whereas
``from conftest import ...`` is ambiguous once other rootdirs (e.g.
``benchmarks/``) contribute their own ``conftest.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro import (
    Histogram,
    Partition,
    PiecewisePolynomial,
    SparseFunction,
    fit_polynomial,
    wavelet_synopsis,
)
from repro.core.integral import as_positions

__all__ = [
    "reference_answer",
    "reference_horner",
    "reference_integral",
    "reference_quantile_bisect",
    "reference_quantile_linear",
    "dense_arrays",
    "histograms",
    "piecewise_polynomials",
    "positive_dense_arrays",
    "sparse_functions",
    "summary_metadata",
    "synopsis_objects",
    "wavelet_synopses",
]


def summary_metadata(store):
    """``store.summary()`` rows minus live residency state.

    ``hydrated``/``resident_bytes`` describe the current memory tier of
    each entry (in-memory builds are resident, a lazy load starts cold),
    so round-trip tests compare the persisted metadata only.
    """
    rows = [dict(row) for row in store.summary()]
    for row in rows:
        row.pop("hydrated", None)
        row.pop("resident_bytes", None)
    return rows


def dense_arrays(min_size: int = 1, max_size: int = 40):
    """Dense float arrays with values in a tame range."""
    return st.lists(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=32),
        min_size=min_size,
        max_size=max_size,
    ).map(lambda xs: np.asarray(xs, dtype=np.float64))


def positive_dense_arrays(min_size: int = 1, max_size: int = 40):
    """Dense strictly-positive float arrays (safe for cdf/quantile queries)."""
    return st.lists(
        st.floats(min_value=0.015625, max_value=10.0, allow_nan=False, width=32),
        min_size=min_size,
        max_size=max_size,
    ).map(lambda xs: np.asarray(xs, dtype=np.float64))


@st.composite
def _partitions(draw, n: int):
    count = draw(st.integers(min_value=1, max_value=min(n, 6)))
    rights = []
    if count > 1:  # count >= 2 implies n >= 2, so [0, n-2] is non-empty
        rights = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 2),
                min_size=count - 1,
                max_size=count - 1,
                unique=True,
            )
        )
    return Partition(n, np.asarray(sorted(rights) + [n - 1], dtype=np.int64))


@st.composite
def histograms(draw, max_n: int = 60):
    """Random histograms: random partitions with random (any-sign) values."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    partition = draw(_partitions(n))
    values = draw(
        st.lists(
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, width=32),
            min_size=partition.num_intervals,
            max_size=partition.num_intervals,
        )
    )
    return Histogram(partition, np.asarray(values, dtype=np.float64))


@st.composite
def wavelet_synopses(draw, max_n: int = 40, max_budget: int = 10):
    """Random B-term Haar synopses, including the non-power-of-two padded path."""
    dense = draw(positive_dense_arrays(min_size=1, max_size=max_n))
    budget = draw(st.integers(min_value=1, max_value=max_budget))
    return wavelet_synopsis(dense, budget)


@st.composite
def piecewise_polynomials(draw, max_n: int = 50, max_degree: int = 3):
    """Random piecewise polynomials: per-piece l2 fits of a random sparse q."""
    q = draw(sparse_functions(max_n=max_n))
    partition = draw(_partitions(q.n))
    degree = draw(st.integers(min_value=0, max_value=max_degree))
    fits = [fit_polynomial(q, a, b, degree) for a, b in partition]
    return PiecewisePolynomial(q.n, fits)


def synopsis_objects():
    """One strategy covering every serializable synopsis family."""
    return st.one_of(
        histograms(),
        wavelet_synopses(),
        piecewise_polynomials(),
        sparse_functions(),
    )


@st.composite
def sparse_functions(draw, max_n: int = 60, max_nonzeros: int = 12):
    """Random sparse functions on small universes."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    count = draw(st.integers(min_value=0, max_value=min(max_nonzeros, n)))
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    indices = sorted(indices)
    values = draw(
        st.lists(
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, width=32).filter(
                lambda v: v != 0.0
            ),
            min_size=len(indices),
            max_size=len(indices),
        )
    )
    return SparseFunction(n, indices, values)


# --------------------------------------------------------------------- #
# Frozen reference for the prefix kernel
#
# The one-table prefix arithmetic and query semantics as they stood
# before every read went through the stacked evaluator
# (``repro.core.integral.PrefixStack``): ``PiecewisePrefix.integral``
# with its own ``searchsorted`` and ``_horner``, and ``PrefixTable``'s
# checks, ``_quantile_linear`` and ``_quantile_bisect``.  Stacked answers
# must equal these on their own entry, byte for byte.  Keep it frozen.
# --------------------------------------------------------------------- #


def reference_horner(coeffs, s):
    """Evaluate per-row polynomials ``coeffs[..., m] s^m`` at ``s``."""
    out = coeffs[..., -1].copy() if coeffs.shape[-1] > 1 else coeffs[..., -1]
    for m in range(coeffs.shape[-1] - 2, -1, -1):
        out = out * s + coeffs[..., m]
    return out


def reference_integral(prefix, x):
    """``F(x)`` of one ``PiecewisePrefix`` for ``x`` in ``[0, n]``."""
    xs = np.asarray(x, dtype=np.int64)
    if np.any((xs < 0) | (xs > prefix.n)):
        raise IndexError(f"prefix positions must lie in [0, {prefix.n}]")
    u = np.clip(
        np.searchsorted(prefix.lefts, xs, side="right") - 1,
        0,
        prefix.num_pieces - 1,
    )
    s = 2.0 * (xs - prefix.lefts[u]) / prefix.lengths[u] - 1.0
    return prefix.boundary[u] + reference_horner(prefix.coeffs[u], s)


def reference_quantile_linear(prefix, targets):
    """Exact first crossing for a piecewise-constant table of any sign."""
    cum = prefix.boundary
    lengths = prefix.lengths
    values = np.diff(cum) / lengths
    piece_max = np.maximum(cum[:-1] + values, cum[1:])
    running = np.maximum.accumulate(piece_max)
    u = np.minimum(
        np.searchsorted(running, targets, side="left"),
        prefix.num_pieces - 1,
    )
    vu = values[u]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.ceil((targets - cum[u]) / vu)
    t = np.where(vu > 0, t, 1.0)
    t = np.clip(t, 1.0, lengths[u])
    return prefix.lefts[u] + t.astype(np.int64) - 1


def reference_quantile_bisect(prefix, targets):
    """Vectorized binary search; requires a nondecreasing prefix.  Only
    open points move, so no answer leaves ``[0, n)``."""
    lo = np.zeros(targets.shape, dtype=np.int64)
    hi = np.full(targets.shape, prefix.n - 1, dtype=np.int64)
    while np.any(lo < hi):
        open_ = lo < hi
        mid = (lo + hi) >> 1
        reached = reference_integral(prefix, mid + 1) >= targets
        hi = np.where(open_ & reached, mid, hi)
        lo = np.where(open_ & ~reached, mid + 1, lo)
    return lo


def _reference_range_sum(prefix, a, b):
    aa = as_positions(a)
    bb = as_positions(b)
    if aa.shape != bb.shape:
        aa, bb = np.broadcast_arrays(aa, bb)
    if np.any((aa < 0) | (bb >= prefix.n) | (aa > bb)):
        raise ValueError(f"ranges must satisfy 0 <= a <= b < {prefix.n}")
    out = reference_integral(prefix, bb + 1) - reference_integral(prefix, aa)
    return float(out) if np.ndim(a) == 0 and np.ndim(b) == 0 else out


def reference_answer(prefix, kind, *args):
    """One table's answer to a query of ``kind`` (or its error), as the
    one-table ``PrefixTable`` gave it."""
    if kind == "range_sum":
        return _reference_range_sum(prefix, *args)
    if kind == "range_mean":
        a, b = args
        sums = _reference_range_sum(prefix, a, b)
        lengths = np.asarray(b, dtype=np.int64) - np.asarray(a, dtype=np.int64) + 1
        out = sums / lengths.astype(np.float64)
        return float(out) if np.ndim(a) == 0 and np.ndim(b) == 0 else out
    if kind == "point_mass":
        (x,) = args
        xs = as_positions(x)
        if np.any((xs < 0) | (xs >= prefix.n)):
            raise ValueError(f"positions must lie in [0, {prefix.n})")
        out = reference_integral(prefix, xs + 1) - reference_integral(prefix, xs)
        return float(out) if np.ndim(x) == 0 else out
    if kind == "cdf":
        (x,) = args
        total = prefix.total_mass
        if total <= 0.0:
            raise ValueError("cdf requires positive total mass")
        xs = as_positions(x)
        if np.any((xs < 0) | (xs >= prefix.n)):
            raise ValueError(f"positions must lie in [0, {prefix.n})")
        out = reference_integral(prefix, xs + 1) / total
        return float(out) if np.ndim(x) == 0 else out
    if kind == "quantile":
        (q,) = args
        total = prefix.total_mass
        if total <= 0.0:
            raise ValueError("quantile requires positive total mass")
        qs = np.asarray(q, dtype=np.float64)
        if np.any((qs < 0.0) | (qs > 1.0)):
            raise ValueError("quantile levels must lie in [0, 1]")
        targets = np.atleast_1d(qs) * total
        if prefix.is_piecewise_linear:
            out = reference_quantile_linear(prefix, targets)
        elif prefix.is_nondecreasing:
            out = reference_quantile_bisect(prefix, targets)
        else:
            raise ValueError(
                "quantile is undefined for this synopsis: its reconstruction "
                "goes negative, so the prefix integral is not monotone"
            )
        return int(out[0]) if np.ndim(q) == 0 else out
    raise ValueError(f"no reference for {kind!r}")
