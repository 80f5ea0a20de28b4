"""Unit and property tests for repro.core.intervals."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Partition, SparseFunction, flatten, initial_partition

from helpers import sparse_functions


class TestPartitionConstruction:
    def test_trivial(self):
        part = Partition.trivial(10)
        assert part.num_intervals == 1
        assert part.interval(0) == (0, 9)

    def test_singletons(self):
        part = Partition.singletons(5)
        assert part.num_intervals == 5
        assert list(part) == [(i, i) for i in range(5)]

    def test_from_boundaries(self):
        part = Partition.from_boundaries(10, [2, 6])
        assert list(part) == [(0, 2), (3, 6), (7, 9)]

    def test_from_boundaries_dedupes_and_clips(self):
        part = Partition.from_boundaries(10, [2, 2, -5, 9, 40])
        assert list(part) == [(0, 2), (3, 9)]

    def test_rejects_wrong_last_endpoint(self):
        with pytest.raises(ValueError, match="last right endpoint"):
            Partition(10, [5])

    def test_rejects_nonincreasing(self):
        with pytest.raises(ValueError, match="increasing"):
            Partition(10, [5, 5, 9])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="increasing"):
            Partition(10, [-1, 9])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            Partition(10, [])


class TestPartitionQueries:
    def test_lefts(self):
        part = Partition(10, [2, 6, 9])
        np.testing.assert_array_equal(part.lefts, [0, 3, 7])

    def test_lengths(self):
        part = Partition(10, [2, 6, 9])
        np.testing.assert_array_equal(part.lengths(), [3, 4, 3])
        assert int(part.lengths().sum()) == 10

    def test_locate_scalar(self):
        part = Partition(10, [2, 6, 9])
        assert part.locate(0) == 0
        assert part.locate(2) == 0
        assert part.locate(3) == 1
        assert part.locate(9) == 2

    def test_locate_vector(self):
        part = Partition(10, [2, 6, 9])
        np.testing.assert_array_equal(
            part.locate(np.asarray([0, 3, 7, 9])), [0, 1, 2, 2]
        )

    def test_locate_out_of_range(self):
        part = Partition.trivial(5)
        with pytest.raises(IndexError):
            part.locate(5)
        with pytest.raises(IndexError):
            part.locate(-1)

    def test_len_and_iter(self):
        part = Partition(10, [4, 9])
        assert len(part) == 2
        assert [i for i in part] == [(0, 4), (5, 9)]

    def test_equality_and_hash(self):
        a = Partition(10, [4, 9])
        b = Partition(10, [4, 9])
        c = Partition(10, [3, 9])
        assert a == b
        assert a != c
        assert hash(a) == hash(b)
        assert a != "not a partition"

    def test_refines(self):
        fine = Partition(10, [2, 4, 6, 9])
        coarse = Partition(10, [4, 9])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)
        assert fine.refines(fine)

    def test_refines_different_n(self):
        assert not Partition.trivial(5).refines(Partition.trivial(6))


class TestInitialPartition:
    def test_empty_function(self):
        q = SparseFunction(10, [], [])
        part = initial_partition(q)
        assert part.num_intervals == 1

    def test_single_interior_nonzero(self):
        q = SparseFunction(10, [5], [1.0])
        part = initial_partition(q)
        # Intervals: [0,3] gap, {4}, {5}, {6}, [7,9] gap.
        assert (4, 4) in list(part)
        assert (5, 5) in list(part)
        assert (6, 6) in list(part)

    def test_nonzero_at_edges(self):
        q = SparseFunction(10, [0, 9], [1.0, 2.0])
        part = initial_partition(q)
        assert (0, 0) in list(part)
        assert (9, 9) in list(part)

    def test_size_is_linear_in_sparsity(self):
        q = SparseFunction(1000, [100, 500, 900], [1.0, 1.0, 1.0])
        part = initial_partition(q)
        assert part.num_intervals <= 6 * q.sparsity + 1

    @given(sparse_functions())
    def test_flattening_is_exact(self, q):
        """q_bar over I_0 equals q: the representation is lossless (Sec 3.2)."""
        part = initial_partition(q)
        hist = flatten(q, part)
        np.testing.assert_allclose(hist.to_dense(), q.to_dense(), atol=1e-12)

    @given(sparse_functions())
    def test_every_nonzero_is_singleton(self, q):
        part = initial_partition(q)
        lefts, rights = part.lefts, part.rights
        for i in q.indices:
            u = part.locate(int(i))
            assert lefts[u] == rights[u] == i

    @given(sparse_functions())
    def test_partition_is_valid(self, q):
        part = initial_partition(q)
        assert part.rights[-1] == q.n - 1
        assert int(part.lengths().sum()) == q.n


def reference_rights(n, indices):
    """``I_0``'s right endpoints straight from the paper's definition.

    ``J = {i-1, i, i+1} & [0, n-1]`` over the nonzeros ``i``, as a dense
    mask.  Every ``j`` in ``J`` is a singleton, so ``j`` and ``j - 1`` end
    intervals; every maximal zero gap is one interval, so it ends only
    where ``J`` resumes or at ``n - 1``.
    """
    relevant = np.zeros(n + 2, dtype=bool)  # one pad cell on each side
    for i in indices:
        relevant[i : i + 3] = True  # positions i-1, i, i+1, shifted by one
    relevant = relevant[1 : n + 1]
    ends = relevant.copy()
    ends[:-1] |= relevant[1:]
    ends[-1] = True
    return np.flatnonzero(ends)


@st.composite
def nonzero_masks(draw, max_n=80):
    """Universes with any density, often with nonzeros at 0 and n - 1."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return n, [i for i, hit in enumerate(mask) if hit]


class TestInitialPartitionMatchesDefinition:
    """The O(s) window construction against the O(n) dense definition."""

    @staticmethod
    def _rights(n, indices):
        q = SparseFunction(n, indices, np.ones(len(indices)))
        rights = initial_partition(q).rights
        assert rights.dtype == np.int64
        return rights

    @given(nonzero_masks())
    def test_matches_dense_reference(self, case):
        n, indices = case
        np.testing.assert_array_equal(
            self._rights(n, indices), reference_rights(n, indices)
        )

    @pytest.mark.parametrize(
        "n, indices, expected",
        [
            (10, [], [9]),  # s = 0
            (1, [], [0]),
            (1, [0], [0]),  # n = 1
            (2, [0], [0, 1]),  # n = 2
            (2, [1], [0, 1]),
            (2, [0, 1], [0, 1]),
            (10, [0], [0, 1, 9]),  # nonzero at 0
            (10, [9], [7, 8, 9]),  # nonzero at n - 1
            (10, [0, 9], [0, 1, 7, 8, 9]),
            (10, [4, 5], [2, 3, 4, 5, 6, 9]),  # adjacent
            (10, [2, 4], [0, 1, 2, 3, 4, 5, 9]),  # 2 apart: windows overlap
            (10, [2, 5], [0, 1, 2, 3, 4, 5, 6, 9]),  # 3 apart: J runs touch
            (10, [2, 6], [0, 1, 2, 3, 4, 5, 6, 7, 9]),  # 4 apart: windows touch
            (12, [2, 7], [0, 1, 2, 3, 5, 6, 7, 8, 11]),  # 5 apart: one zero gap
        ],
    )
    def test_edges(self, n, indices, expected):
        np.testing.assert_array_equal(self._rights(n, indices), expected)
        np.testing.assert_array_equal(reference_rights(n, indices), expected)
