"""Unit and property tests for repro.core.prefix.PrefixSums."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import PrefixSums, SparseFunction

from helpers import sparse_functions


def brute_interval_stats(dense: np.ndarray, a: int, b: int):
    """Reference sums/means/errors computed directly on the dense window."""
    window = dense[a : b + 1]
    mean = window.mean()
    err = float(np.sum((window - mean) ** 2))
    return float(window.sum()), float(np.sum(window**2)), float(mean), err


class TestScalars:
    def test_sum_over_full_range(self, sparse_signal):
        ps = PrefixSums(sparse_signal)
        assert ps.interval_sum(0, 49) == pytest.approx(4.0)

    def test_sum_over_gap(self, sparse_signal):
        ps = PrefixSums(sparse_signal)
        assert ps.interval_sum(11, 28) == 0.0

    def test_sum_sq(self, sparse_signal):
        ps = PrefixSums(sparse_signal)
        assert ps.interval_sum_sq(3, 4) == pytest.approx(5.0)

    def test_mean_counts_zeros(self, sparse_signal):
        ps = PrefixSums(sparse_signal)
        # [0, 9] contains values 1.0 and -2.0 over ten positions.
        assert ps.interval_mean(0, 9) == pytest.approx(-0.1)

    def test_singleton_error_is_zero(self, sparse_signal):
        ps = PrefixSums(sparse_signal)
        for i in (0, 3, 29, 49):
            assert ps.interval_err(i, i) == 0.0

    def test_constant_block_error_is_zero(self):
        q = SparseFunction.from_dense(np.full(10, 3.3))
        ps = PrefixSums(q)
        assert ps.interval_err(0, 9) == pytest.approx(0.0, abs=1e-12)

    def test_err_definition(self):
        q = SparseFunction.from_dense(np.asarray([1.0, 3.0]))
        ps = PrefixSums(q)
        # mean 2, deviations 1 each -> err 2
        assert ps.interval_err(0, 1) == pytest.approx(2.0)

    def test_err_never_negative(self):
        # Cancellation-prone case: huge mean, tiny variance.
        q = SparseFunction.from_dense(np.full(1000, 1e8) + np.arange(1000) * 1e-8)
        ps = PrefixSums(q)
        assert ps.interval_err(0, 999) >= 0.0


class TestVectorized:
    def test_batch_matches_scalar(self, sparse_signal):
        ps = PrefixSums(sparse_signal)
        a = np.asarray([0, 3, 10, 30])
        b = np.asarray([2, 9, 29, 49])
        batch = ps.interval_err(a, b)
        for i in range(a.size):
            assert batch[i] == pytest.approx(ps.interval_err(int(a[i]), int(b[i])))

    def test_batch_sum(self, sparse_signal):
        ps = PrefixSums(sparse_signal)
        a = np.asarray([0, 25])
        b = np.asarray([24, 49])
        total = ps.interval_sum(a, b)
        assert float(np.sum(total)) == pytest.approx(sparse_signal.total_mass())

    def test_batch_returns_array(self, sparse_signal):
        ps = PrefixSums(sparse_signal)
        out = ps.interval_err(np.asarray([0]), np.asarray([49]))
        assert isinstance(out, np.ndarray)

    def test_scalar_returns_float(self, sparse_signal):
        ps = PrefixSums(sparse_signal)
        assert isinstance(ps.interval_err(0, 49), float)


class TestAgainstDense:
    @given(sparse_functions(), st.data())
    def test_all_stats_match_dense(self, q, data):
        ps = PrefixSums(q)
        dense = q.to_dense()
        a = data.draw(st.integers(min_value=0, max_value=q.n - 1))
        b = data.draw(st.integers(min_value=a, max_value=q.n - 1))
        total, total_sq, mean, err = brute_interval_stats(dense, a, b)
        assert ps.interval_sum(a, b) == pytest.approx(total, abs=1e-9)
        assert ps.interval_sum_sq(a, b) == pytest.approx(total_sq, abs=1e-9)
        assert ps.interval_mean(a, b) == pytest.approx(mean, abs=1e-9)
        assert ps.interval_err(a, b) == pytest.approx(err, abs=1e-7)

    @given(sparse_functions(), st.data())
    def test_l2_to_constant_matches_dense(self, q, data):
        ps = PrefixSums(q)
        dense = q.to_dense()
        a = data.draw(st.integers(min_value=0, max_value=q.n - 1))
        b = data.draw(st.integers(min_value=a, max_value=q.n - 1))
        c = data.draw(st.floats(min_value=-5, max_value=5, allow_nan=False))
        expected = float(np.sum((dense[a : b + 1] - c) ** 2))
        assert ps.l2_sq_to_constant(a, b, c) == pytest.approx(expected, abs=1e-7)

    @given(sparse_functions(), st.data())
    def test_mean_minimizes_constant_error(self, q, data):
        """err_q(I) = min_c sum (q - c)^2, attained at the mean (Def. 3.1)."""
        ps = PrefixSums(q)
        a = data.draw(st.integers(min_value=0, max_value=q.n - 1))
        b = data.draw(st.integers(min_value=a, max_value=q.n - 1))
        mean = ps.interval_mean(a, b)
        err_at_mean = ps.l2_sq_to_constant(a, b, mean)
        assert err_at_mean == pytest.approx(ps.interval_err(a, b), abs=1e-9)
        offset = data.draw(st.floats(min_value=0.01, max_value=3.0))
        assert ps.l2_sq_to_constant(a, b, mean + offset) >= err_at_mean - 1e-9


class TestPaperIdentity:
    def test_theorem_3_4_identity(self):
        """err_q(I) = t_b - t_a + y_a^2 - (r_b - r_a + y_a)^2 / |I|.

        The paper's constant-time error formula, cross-checked on a dense
        example against the definition.
        """
        rng = np.random.default_rng(0)
        dense = rng.normal(0.0, 1.0, 30)
        q = SparseFunction.from_dense(dense)
        ps = PrefixSums(q)
        for a, b in [(0, 29), (5, 12), (17, 17), (3, 28)]:
            _, _, _, err = brute_interval_stats(dense, a, b)
            assert ps.interval_err(a, b) == pytest.approx(err, abs=1e-9)


class TestMemoizedPerFunction:
    def test_one_object_per_function(self, sparse_signal):
        ps = sparse_signal.prefix_sums()
        assert sparse_signal.prefix_sums() is ps
        assert ps.interval_sum(0, 49) == PrefixSums(sparse_signal).interval_sum(0, 49)

    def test_merging_register_sums_its_input_once(self, monkeypatch):
        """Algorithm 1, the flattening and the build's error measurement
        all read one memoized PrefixSums of the registered series."""
        from repro import ShardRouter
        from repro.core import prefix

        calls = []
        original = prefix.PrefixSums.__init__

        def counting(self, q):
            calls.append(q)
            original(self, q)

        monkeypatch.setattr(prefix.PrefixSums, "__init__", counting)
        series = np.cumsum(np.random.default_rng(4).normal(size=20_000)) + 500.0
        router = ShardRouter(num_shards=2)
        entry = router.register("walk", series, family="merging", k=8)
        assert len(calls) == 1
        assert entry.result.error >= 0.0
        assert entry.result.error == entry.result.synopsis.l2_to_sparse(calls[0])
