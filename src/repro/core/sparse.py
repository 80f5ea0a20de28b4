"""Sparse representation of functions ``q : {0, ..., n-1} -> R``.

The paper's algorithms (Section 3.2) operate on *s-sparse* functions: the
input is given as the sorted set of nonzeros ``{(i_1, y_1), ..., (i_s, y_s)}``
and all running times are measured in the sparsity ``s`` rather than the
universe size ``n``.  :class:`SparseFunction` is that representation.  Dense
NumPy arrays convert losslessly in both directions, so the same algorithms
serve the "offline" (dense) experiments of Section 5.1 as well.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Tuple, Union

import numpy as np

from .integral import check_query
from .serialize import check_payload_tag

if TYPE_CHECKING:
    from .prefix import PrefixSums

__all__ = ["SparseFunction"]


class SparseFunction:
    """A function on ``{0, ..., n-1}`` stored as sorted nonzero entries.

    Parameters
    ----------
    n:
        Universe size.  The function is defined on ``{0, ..., n-1}``.
    indices:
        Strictly increasing integer positions of the nonzero entries.
    values:
        Values at those positions (same length as ``indices``).  Entries
        equal to zero are permitted but pruned, so ``sparsity`` always counts
        true nonzeros.

    Notes
    -----
    The paper indexes the universe ``[n] = {1, ..., n}``; we use 0-based
    indices throughout.
    """

    __slots__ = ("n", "indices", "values", "_prefix_cache")

    def __init__(
        self,
        n: int,
        indices: Union[np.ndarray, Iterable[int]],
        values: Union[np.ndarray, Iterable[float]],
    ) -> None:
        if n <= 0:
            raise ValueError(f"universe size must be positive, got {n}")
        idx = np.asarray(indices, dtype=np.int64)
        val = np.asarray(values, dtype=np.float64)
        if idx.ndim != 1 or val.ndim != 1:
            raise ValueError("indices and values must be one-dimensional")
        if idx.shape != val.shape:
            raise ValueError(
                f"indices and values must have equal length, "
                f"got {idx.shape[0]} and {val.shape[0]}"
            )
        if idx.size:
            if idx[0] < 0 or idx[-1] >= n:
                raise ValueError("indices must lie in [0, n)")
            if np.any(np.diff(idx) <= 0):
                raise ValueError("indices must be strictly increasing")
        keep = val != 0.0
        if not np.all(keep):
            idx = idx[keep]
            val = val[keep]
        self.n = int(n)
        self.indices = idx
        self.values = val
        self._prefix_cache = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_dense(cls, dense: Union[np.ndarray, Iterable[float]]) -> "SparseFunction":
        """Build a sparse function from a dense array of length ``n``."""
        arr = np.asarray(dense, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("dense input must be one-dimensional")
        if arr.size == 0:
            raise ValueError("dense input must be non-empty")
        nz = np.flatnonzero(arr)
        return cls(arr.size, nz, arr[nz])

    @classmethod
    def from_pairs(
        cls, n: int, pairs: Iterable[Tuple[int, float]]
    ) -> "SparseFunction":
        """Build from (index, value) pairs in any order; duplicate indices sum."""
        pair_list = list(pairs)
        if not pair_list:
            return cls(n, np.empty(0, dtype=np.int64), np.empty(0))
        idx = np.asarray([p[0] for p in pair_list], dtype=np.int64)
        val = np.asarray([p[1] for p in pair_list], dtype=np.float64)
        order = np.argsort(idx, kind="stable")
        idx, val = idx[order], val[order]
        uniq, start = np.unique(idx, return_index=True)
        summed = np.add.reduceat(val, start)
        return cls(n, uniq, summed)

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #

    @property
    def sparsity(self) -> int:
        """Number of nonzero entries (``s`` in the paper)."""
        return int(self.indices.size)

    def to_dense(self) -> np.ndarray:
        """Materialize the function as a length-``n`` array."""
        dense = np.zeros(self.n)
        dense[self.indices] = self.values
        return dense

    def __call__(self, x: Union[int, np.ndarray]) -> Union[float, np.ndarray]:
        """Evaluate the function at one position or an array of positions."""
        xs = np.atleast_1d(np.asarray(x, dtype=np.int64))
        if np.any((xs < 0) | (xs >= self.n)):
            raise IndexError("position out of range")
        out = np.zeros(xs.shape)
        if self.indices.size:
            pos = np.searchsorted(self.indices, xs)
            in_range = pos < self.indices.size
            safe_pos = np.where(in_range, pos, 0)
            hit = in_range & (self.indices[safe_pos] == xs)
            out[hit] = self.values[safe_pos[hit]]
        if np.ndim(x) == 0:
            return float(out[0])
        return out

    def total_mass(self) -> float:
        """Sum of all function values."""
        return float(self.values.sum())

    def prefix_integral(self, x: Union[int, np.ndarray]) -> Union[float, np.ndarray]:
        """``F(x) = sum_{i < x} q(i)`` for ``x`` in ``[0, n]``, vectorized.

        Range sums follow as ``F(b + 1) - F(a)``; each query costs
        ``O(log s)`` against the cached cumulative values.
        """
        cum = self.prefix_sums()._cum
        (xs,) = check_query("integral", (x,), (self.n,)).passed()
        out = cum[np.searchsorted(self.indices, xs, side="left")]
        return float(out) if np.ndim(x) == 0 else out

    def prefix_sums(self) -> PrefixSums:
        """The (cached) :class:`~repro.core.prefix.PrefixSums` of this function.

        Algorithm 1, the flattening and the error measurement of a build
        all read the same cumulative moments, so one input is summed once.
        """
        if self._prefix_cache is None:
            from .prefix import PrefixSums  # prefix.py imports this module

            self._prefix_cache = PrefixSums(self)
        return self._prefix_cache

    def l2_norm_squared(self) -> float:
        """``sum_i q(i)^2``."""
        return float(np.dot(self.values, self.values))

    def scaled(self, factor: float) -> "SparseFunction":
        """Return ``factor * q`` as a new sparse function."""
        return SparseFunction(self.n, self.indices.copy(), self.values * factor)

    def restricted(self, a: int, b: int) -> "SparseFunction":
        """Restriction ``q_I`` to the closed interval ``I = [a, b]``.

        The result keeps the same universe size; entries outside ``[a, b]``
        are dropped (set to zero), matching the paper's definition of ``f_I``.
        """
        if not (0 <= a <= b < self.n):
            raise ValueError(f"invalid interval [{a}, {b}] for n={self.n}")
        lo = int(np.searchsorted(self.indices, a, side="left"))
        hi = int(np.searchsorted(self.indices, b, side="right"))
        return SparseFunction(self.n, self.indices[lo:hi], self.values[lo:hi])

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    kind = "sparse"
    schema_version = 1

    def to_dict(self) -> dict:
        """A JSON-serializable representation: ``O(s)`` numbers."""
        return {
            "kind": self.kind,
            "schema": self.schema_version,
            "n": self.n,
            "indices": self.indices.tolist(),
            "values": self.values.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SparseFunction":
        """Inverse of :meth:`to_dict`; validates indices and shapes."""
        check_payload_tag(payload, cls)
        return cls(
            int(payload["n"]),
            np.asarray(payload["indices"], dtype=np.int64),
            np.asarray(payload["values"], dtype=np.float64),
        )

    # ------------------------------------------------------------------ #
    # Comparison helpers (used heavily in tests)
    # ------------------------------------------------------------------ #

    def allclose(self, other: "SparseFunction", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """True if both functions agree everywhere up to tolerances."""
        if self.n != other.n:
            return False
        if self.indices.size != other.indices.size:
            return False
        return bool(
            np.array_equal(self.indices, other.indices)
            and np.allclose(self.values, other.values, rtol=rtol, atol=atol)
        )

    def __repr__(self) -> str:
        return f"SparseFunction(n={self.n}, sparsity={self.sparsity})"
