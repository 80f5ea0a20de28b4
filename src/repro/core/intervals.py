"""Interval partitions of ``{0, ..., n-1}``.

A partition ``I = {I_1, ..., I_l}`` into consecutive intervals is stored as
the increasing array of *inclusive right endpoints*; the left endpoints are
implied.  This is the representation all merging algorithms manipulate.

This module also builds the paper's initial partition ``I_0``: Algorithm 1
first collects the *relevant index set* ``J = union_j {i_j - 1, i_j, i_j + 1}``
over the nonzero positions ``i_j``, then cuts ``[n]`` so that every element
of ``J`` is a singleton interval and every maximal run of irrelevant (zero)
positions is a single interval.  The resulting partition has ``O(s)``
intervals and represents the s-sparse input exactly (``q_bar_{I_0} = q``).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple, Union

import numpy as np

from .sparse import SparseFunction

__all__ = ["Partition", "initial_partition"]


class Partition:
    """A partition of ``{0, ..., n-1}`` into consecutive closed intervals."""

    __slots__ = ("n", "rights")

    def __init__(self, n: int, rights: Union[np.ndarray, List[int]]) -> None:
        r = np.asarray(rights, dtype=np.int64)
        if r.ndim != 1 or r.size == 0:
            raise ValueError("rights must be a non-empty 1-D array")
        if r[-1] != n - 1:
            raise ValueError(f"last right endpoint must be n-1={n - 1}, got {r[-1]}")
        if r[0] < 0 or np.any(np.diff(r) <= 0):
            raise ValueError("right endpoints must be strictly increasing and >= 0")
        self.n = int(n)
        self.rights = r

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        """The single-interval partition ``{[0, n-1]}``."""
        return cls(n, np.asarray([n - 1], dtype=np.int64))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        """The finest partition: every point is its own interval."""
        return cls(n, np.arange(n, dtype=np.int64))

    @classmethod
    def from_boundaries(cls, n: int, cuts: Union[np.ndarray, List[int]]) -> "Partition":
        """Partition cutting *after* each position in ``cuts`` (n-1 implied)."""
        c = np.unique(np.asarray(list(cuts) + [n - 1], dtype=np.int64))
        c = c[(c >= 0) & (c <= n - 1)]
        return cls(n, c)

    # ------------------------------------------------------------------ #

    @property
    def lefts(self) -> np.ndarray:
        """Inclusive left endpoints, aligned with :attr:`rights`."""
        out = np.empty_like(self.rights)
        out[0] = 0
        out[1:] = self.rights[:-1] + 1
        return out

    @property
    def num_intervals(self) -> int:
        return int(self.rights.size)

    def __len__(self) -> int:
        return self.num_intervals

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        lefts = self.lefts
        for a, b in zip(lefts, self.rights):
            yield int(a), int(b)

    def interval(self, u: int) -> Tuple[int, int]:
        """The ``u``-th interval as an ``(a, b)`` pair."""
        lefts = self.lefts
        return int(lefts[u]), int(self.rights[u])

    def lengths(self) -> np.ndarray:
        """Interval cardinalities ``|I_u|``."""
        return self.rights - self.lefts + 1

    def locate(self, x: Union[int, np.ndarray]) -> Union[int, np.ndarray]:
        """Index of the interval containing position ``x``."""
        xs = np.asarray(x, dtype=np.int64)
        if np.any((xs < 0) | (xs >= self.n)):
            raise IndexError("position out of range")
        out = np.searchsorted(self.rights, xs, side="left")
        return int(out) if np.ndim(x) == 0 else out

    def refines(self, coarser: "Partition") -> bool:
        """True if every interval of ``coarser`` is a union of ours."""
        if self.n != coarser.n:
            return False
        return bool(np.all(np.isin(coarser.rights, self.rights)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.rights, other.rights)

    def __hash__(self) -> int:
        return hash((self.n, self.rights.tobytes()))

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, intervals={self.num_intervals})"


def initial_partition(q: SparseFunction) -> Partition:
    """The paper's initial partition ``I_0`` for an s-sparse input.

    Every *relevant index* (a nonzero position or one of its two neighbours)
    becomes a singleton interval; maximal gaps of all-zero positions between
    them become single intervals.  The flattening of ``q`` over ``I_0``
    reproduces ``q`` exactly: singletons are trivially exact, and zero-gap
    intervals have mean zero.

    Returns a partition with at most ``4s + 1 = O(s)`` intervals, built in
    ``O(s)`` time with no sort and no hashing.
    """
    n = q.n
    idx = q.indices
    if idx.size == 0:
        return Partition.trivial(n)
    # Cutting after each relevant index r in {i-1, i, i+1} (a singleton's
    # right end) and after r - 1 (closing the zero gap before it, if any)
    # puts right endpoints at {i-2, i-1, i, i+1} for every nonzero i.
    # Row j of the window holds nonzero i_j's four cuts in increasing order;
    # keeping only those past the previous row's last cut, i_{j-1} + 1,
    # drops every duplicate, so the kept entries read row by row are
    # already sorted and unique.  The first row's bound of -1 drops the
    # negative cuts.
    window = idx[:, None] + np.arange(-2, 2, dtype=np.int64)
    prev_end = np.empty_like(idx)
    prev_end[0] = -1
    prev_end[1:] = idx[:-1] + 1
    cuts = window[window > prev_end[:, None]]
    # Only the last rows can reach n-1 or beyond; n-1 itself is appended.
    cuts = cuts[: np.searchsorted(cuts, n - 1)]
    return Partition(n, np.append(cuts, n - 1))
