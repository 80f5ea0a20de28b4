"""Piecewise-constant functions (histograms) over ``{0, ..., n-1}``.

A *k-histogram* (paper Section 2.1) is a function that is constant on each
interval of some k-interval partition.  :class:`Histogram` couples a
:class:`~repro.core.intervals.Partition` with one value per interval and
provides exact l2 geometry against dense arrays, sparse functions, and other
histograms — everything the algorithms and the experiment harness need.
"""

from __future__ import annotations

import math
from typing import List, Tuple, Union

import numpy as np

from .integral import PiecewisePrefix
from .intervals import Partition
from .prefix import PrefixSums
from .serialize import check_payload_tag
from .sparse import SparseFunction

__all__ = ["Histogram", "flatten"]


class Histogram:
    """A piecewise-constant function defined by a partition and values."""

    __slots__ = ("partition", "values", "_prefix_cache")

    def __init__(self, partition: Partition, values: Union[np.ndarray, List[float]]) -> None:
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1 or vals.size != partition.num_intervals:
            raise ValueError(
                f"need one value per interval: {partition.num_intervals} intervals, "
                f"{vals.size} values"
            )
        self.partition = partition
        self.values = vals
        self._prefix_cache = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def constant(cls, n: int, value: float) -> "Histogram":
        """The 1-histogram equal to ``value`` everywhere."""
        return cls(Partition.trivial(n), np.asarray([value]))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "Histogram":
        """Exact histogram of a dense array, merging equal consecutive runs."""
        arr = np.asarray(dense, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("dense input must be a non-empty 1-D array")
        change = np.flatnonzero(np.diff(arr) != 0.0)
        rights = np.concatenate((change, [arr.size - 1]))
        return cls(Partition(arr.size, rights), arr[rights])

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def num_pieces(self) -> int:
        return self.partition.num_intervals

    def __call__(self, x: Union[int, np.ndarray]) -> Union[float, np.ndarray]:
        """Evaluate at one position or an array of positions."""
        u = self.partition.locate(x)
        out = self.values[u]
        return float(out) if np.ndim(x) == 0 else out

    def to_dense(self) -> np.ndarray:
        """Materialize as a length-``n`` array."""
        return np.repeat(self.values, self.partition.lengths())

    def pieces(self) -> List[Tuple[int, int, float]]:
        """List of ``(left, right, value)`` triples."""
        return [(a, b, float(v)) for (a, b), v in zip(self.partition, self.values)]

    def total_mass(self) -> float:
        """``sum_i h(i)``."""
        return float(np.dot(self.values, self.partition.lengths()))

    def piece_masses(self) -> np.ndarray:
        """Per-piece masses ``v_u * |I_u|``, aligned with the partition."""
        return self.values * self.partition.lengths()

    def prefix_table(self) -> PiecewisePrefix:
        """The (cached) prefix-integral table over this histogram's pieces."""
        if self._prefix_cache is None:
            self._prefix_cache = PiecewisePrefix.from_constant_pieces(
                self.n, self.partition.lefts, self.values
            )
        return self._prefix_cache

    def prefix_integral(self, x: Union[int, np.ndarray]) -> Union[float, np.ndarray]:
        """``F(x) = sum_{i < x} h(i)`` for ``x`` in ``[0, n]``, vectorized.

        The half-open convention makes range sums a single subtraction:
        ``sum_{i in [a, b]} h(i) = F(b + 1) - F(a)``.  The table is cached
        on first use, so a batch of B queries costs ``O(B log k)``.
        """
        out = self.prefix_table().integral(x)
        return float(out) if np.ndim(x) == 0 else out

    def range_mass(self, a: int, b: int) -> float:
        """``sum_{i in [a, b]} h(i)`` in ``O(log k)`` — the synopsis query.

        For a histogram distribution this estimates ``P[a <= X <= b]``, the
        selectivity-estimation primitive histograms exist for in databases.
        """
        if not (0 <= a <= b < self.n):
            raise ValueError(f"invalid interval [{a}, {b}] for n={self.n}")
        first = self.partition.locate(a)
        last = self.partition.locate(b)
        lefts = self.partition.lefts
        rights = self.partition.rights
        if first == last:
            return float(self.values[first]) * (b - a + 1)
        mass = float(self.values[first]) * (rights[first] - a + 1)
        mass += float(self.values[last]) * (b - lefts[last] + 1)
        if last - first > 1:
            inner = slice(first + 1, last)
            mass += float(
                np.dot(self.values[inner], (rights[inner] - lefts[inner] + 1))
            )
        return mass

    def is_distribution(self, atol: float = 1e-9) -> bool:
        """True if all values are nonnegative and the mass is 1."""
        return bool(np.all(self.values >= -atol)) and math.isclose(
            self.total_mass(), 1.0, abs_tol=atol
        )

    # ------------------------------------------------------------------ #
    # l2 geometry
    # ------------------------------------------------------------------ #

    def l2_sq_to_sparse(self, q: SparseFunction) -> float:
        """Exact ``||h - q||_2^2`` against a sparse function, in O(k log s) work
        once ``q``'s cached prefix sums exist."""
        if q.n != self.n:
            raise ValueError("universe sizes differ")
        ps = q.prefix_sums()
        lefts = self.partition.lefts
        out = ps.l2_sq_to_constant(lefts, self.partition.rights, self.values)
        return float(np.sum(out))

    def l2_to_sparse(self, q: SparseFunction) -> float:
        """Exact ``||h - q||_2`` against a sparse function."""
        return math.sqrt(self.l2_sq_to_sparse(q))

    def l2_sq_to_dense(self, dense: np.ndarray) -> float:
        """Exact ``||h - q||_2^2`` against a dense array."""
        arr = np.asarray(dense, dtype=np.float64)
        if arr.size != self.n:
            raise ValueError("universe sizes differ")
        diff = self.to_dense() - arr
        return float(np.dot(diff, diff))

    def l2_to_dense(self, dense: np.ndarray) -> float:
        return math.sqrt(self.l2_sq_to_dense(dense))

    def l2_sq_to_histogram(self, other: "Histogram") -> float:
        """Exact ``||h - g||_2^2`` between two histograms without densifying."""
        if other.n != self.n:
            raise ValueError("universe sizes differ")
        rights = np.union1d(self.partition.rights, other.partition.rights)
        common = Partition(self.n, rights)
        lengths = common.lengths()
        mine = self.values[self.partition.locate(common.lefts)]
        theirs = other.values[other.partition.locate(common.lefts)]
        diff = mine - theirs
        return float(np.dot(diff * diff, lengths))

    def l2_to_histogram(self, other: "Histogram") -> float:
        return math.sqrt(self.l2_sq_to_histogram(other))

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #

    def normalized(self) -> "Histogram":
        """Scale so the total mass is 1 (requires nonzero mass)."""
        mass = self.total_mass()
        if mass == 0.0:
            raise ValueError("cannot normalize a zero-mass histogram")
        return Histogram(self.partition, self.values / mass)

    def clipped_nonnegative(self) -> "Histogram":
        """Replace negative piece values by zero."""
        return Histogram(self.partition, np.maximum(self.values, 0.0))

    # ------------------------------------------------------------------ #
    # Serialization (synopses are meant to be stored)
    # ------------------------------------------------------------------ #

    kind = "histogram"
    schema_version = 1

    def to_dict(self) -> dict:
        """A JSON-serializable representation: ``O(k)`` numbers.

        Tagged with ``kind`` and ``schema`` so payloads are self-describing
        (see :data:`repro.serve.builders.SYNOPSIS_CODECS`).
        """
        return {
            "kind": self.kind,
            "schema": self.schema_version,
            "n": self.n,
            "rights": self.partition.rights.tolist(),
            "values": self.values.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        """Inverse of :meth:`to_dict`; validates the partition.

        Untagged legacy payloads (no ``kind``/``schema`` keys) still load.
        """
        check_payload_tag(payload, cls)
        return cls(
            Partition(int(payload["n"]), np.asarray(payload["rights"], dtype=np.int64)),
            np.asarray(payload["values"], dtype=np.float64),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.partition == other.partition and np.array_equal(
            self.values, other.values
        )

    def __repr__(self) -> str:
        return f"Histogram(n={self.n}, pieces={self.num_pieces})"


def flatten(q: SparseFunction, partition: Partition, prefix: PrefixSums = None) -> Histogram:
    """The flattening ``q_bar_I`` of ``q`` over a partition (Definition 3.1).

    Each interval takes the value ``mu_q(I)``, the best constant fit, so the
    result is the best approximation of ``q`` among functions constant on
    the partition's intervals.  Flattening preserves total mass, so the
    flattening of an empirical distribution is itself a distribution.
    """
    if q.n != partition.n:
        raise ValueError("universe sizes differ")
    ps = prefix if prefix is not None else q.prefix_sums()
    means = ps.interval_mean(partition.lefts, partition.rights)
    return Histogram(partition, np.atleast_1d(means))
