"""The stacked prefix evaluator against the frozen one-table reference.

Every read goes through ``repro.core.integral.PrefixStack``: one
``searchsorted`` over per-entry key offsets plus one Horner pass, under
``PrefixTable`` (one table is the one-entry stack) and ``CohortTable``.
The property here stacks 1-5 tables of every family (a zero-mass and a
non-monotone entry among them) and checks each stacked answer, and each
row's rejection by ``PrefixTable.check``, against
``helpers.reference_answer`` on the row's own entry, byte for byte.  A
NaN level is checked against its entry's own one-row call instead: the
frozen reference predates that check.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AsyncServingFrontend,
    Histogram,
    PiecewisePolynomial,
    PrefixTable,
    QueryEngine,
    QueryRequest,
    ShardRouter,
    SparseFunction,
    SynopsisStore,
    family_spec,
    fit_polynomial,
)
from repro.core.integral import PrefixStack, as_positions
from repro.serve import CohortTable, builders
from repro.serve.builders import build_synopsis

from helpers import (
    _partitions,
    dense_arrays,
    histograms,
    piecewise_polynomials,
    positive_dense_arrays,
    reference_answer,
    reference_integral,
    sparse_functions,
    wavelet_synopses,
)

KINDS = ("range_sum", "range_mean", "point_mass", "cdf", "quantile")


@st.composite
def _built(draw, family):
    """A synopsis of a random series, built by a serving family."""
    data = draw(dense_arrays(min_size=1, max_size=40))
    k = draw(st.integers(1, 6))
    return build_synopsis(data, family, k, measure_error=False).synopsis


@st.composite
def _monotone_polys(draw):
    """Piecewise polynomials of positive data, whose prefix is usually
    monotone: quantile then takes the bisection fallback."""
    dense = draw(positive_dense_arrays(min_size=1, max_size=30))
    q = SparseFunction.from_dense(dense)
    partition = draw(_partitions(q.n))
    degree = draw(st.integers(1, 3))
    return PiecewisePolynomial(
        q.n, [fit_polynomial(q, a, b, degree) for a, b in partition]
    )


@st.composite
def _zero_mass(draw):
    """A histogram of total mass zero: its cdf and quantile are undefined."""
    n = draw(st.integers(1, 15))
    dense = draw(st.sampled_from([np.zeros(2 * n), np.tile([1.0, -1.0], n)]))
    return Histogram.from_dense(dense)


@st.composite
def _non_monotone_polys(draw):
    """A linear fit of a ramp that goes negative: the prefix is not
    monotone, so its quantile is undefined."""
    n = draw(st.integers(2, 30))
    top = draw(st.floats(0.5, 10.0))
    ramp = SparseFunction.from_dense(np.linspace(top, -top - 1.0, n))
    return PiecewisePolynomial(n, [fit_polynomial(ramp, 0, n - 1, 1)])


SYNOPSES = st.one_of(
    _built("merging"),
    _built("gks"),
    _built("exact"),
    wavelet_synopses(),
    sparse_functions(),
    histograms(),
    piecewise_polynomials(),
    _monotone_polys(),
    _zero_mass(),
    _non_monotone_polys(),
)


#: Positions beyond int64: they saturate, so they lie outside every domain.
HUGE = (1e20, -1e20, 2**63, np.uint64(2**64 - 1))


@st.composite
def _position(draw, n):
    """A position of a domain of size ``n``: mostly valid, sometimes one
    step outside it, an integral float or a non-integral one, not finite,
    beyond int64, or unsigned."""
    form = draw(st.sampled_from(
        ["int"] * 8 + ["float", "low", "high", "half", "inf", "nan", "huge", "uint"]
    ))
    if form == "low":
        return -1
    if form == "high":
        return n
    if form == "inf":
        return draw(st.sampled_from([float("inf"), float("-inf")]))
    if form == "nan":
        return float("nan")
    if form == "huge":
        return draw(st.sampled_from(HUGE))
    x = draw(st.integers(0, n - 1))
    if form == "float":
        return float(x)
    if form == "half":
        return x + 0.5
    if form == "uint":
        return np.uint64(x)
    return x


@st.composite
def _rows(draw, kind, ns):
    """``(entries, args)`` of a stacked call: entry codes in any order and
    one argument tuple per row."""
    count = draw(st.integers(1, 24))
    entries = draw(
        st.lists(st.integers(0, len(ns) - 1), min_size=count, max_size=count)
    )
    args = []
    for entry in entries:
        n = ns[entry]
        if kind in ("range_sum", "range_mean"):
            a, b = draw(_position(n)), draw(_position(n))
            if draw(st.booleans()):
                a, b = sorted((a, b))
            args.append((a, b))
        elif kind == "quantile":
            level = st.floats(0.0, 1.0, allow_nan=False)
            args.append((draw(st.one_of(level, level, st.sampled_from(
                [0.0, 1.0, -0.05, 1.05, float("nan")]))),))
        else:
            args.append((draw(_position(n)),))
    return entries, args


def _nan_level(kind, args):
    """Whether a row is a quantile at a NaN level."""
    return kind == "quantile" and bool(np.isnan(args[0]))


def _outcome(call):
    """``(answer, None)`` or ``(None, error)`` of a call."""
    try:
        return call(), None
    except (ValueError, IndexError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _same(got, want):
    """Byte-for-byte equality of two answers, types included."""
    if type(got) is not type(want):
        return False
    if isinstance(want, np.ndarray):
        return got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestStackedEvaluator:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_answer_equals_its_entry_reference(self, data):
        synopses = data.draw(st.lists(SYNOPSES, min_size=1, max_size=5))
        tables = [PrefixTable.from_synopsis(synopsis) for synopsis in synopses]
        prefixes = [table.prefix for table in tables]
        ns = [prefix.n for prefix in prefixes]
        stack = PrefixTable.stack(tables)
        for kind in KINDS:
            entries, args = data.draw(_rows(kind, ns))
            codes = np.array(entries, dtype=np.intp)
            columns = [np.array(column) for column in zip(*args)]
            # A row is rejected exactly when it fails on its own entry.  The
            # frozen reference predates the NaN-level check, so a NaN level
            # is compared with its entry's own one-row call instead.
            alone = [
                _outcome(
                    lambda e=e, a=a: getattr(tables[e], kind)(*a)
                    if _nan_level(kind, a)
                    else reference_answer(prefixes[e], kind, *a)
                )[1]
                for e, a in zip(entries, args)
            ]
            rejected = stack.check(kind, columns, codes).bad
            assert rejected.tolist() == [error is not None for error in alone]
            # The whole call fails with the error one rejected row gets alone.
            value, error = _outcome(lambda: getattr(stack, kind)(*columns, codes))
            if rejected.any():
                assert error in {e for e in alone if e is not None}
            else:
                assert error is None
            # The accepted rows answer as their own entry's table.
            keep = ~rejected
            if not keep.any():
                continue
            kept = [column[keep] for column in columns]
            got = getattr(stack, kind)(*kept, codes[keep])
            for entry in np.unique(codes[keep]).tolist():
                mine = codes[keep] == entry
                own = [column[mine] for column in kept]
                want = reference_answer(prefixes[entry], kind, *own)
                assert _same(got[mine], want), (kind, entry)
                # The unstacked table is the one-entry case.
                assert _same(getattr(tables[entry], kind)(*own), want)
                first = [column[0].item() for column in own]
                assert _same(
                    getattr(tables[entry], kind)(*first),
                    reference_answer(prefixes[entry], kind, *first),
                )

    @settings(max_examples=100, deadline=None)
    @given(synopsis=SYNOPSES, data=st.data())
    def test_integral_matches_reference(self, synopsis, data):
        table = PrefixTable.from_synopsis(synopsis)
        xs = np.array(
            data.draw(st.lists(st.integers(0, table.n), min_size=0, max_size=20)),
            dtype=np.int64,
        )
        want = reference_integral(table.prefix, xs)
        assert _same(table.prefix.integral(xs), want)
        assert _same(table.integral(xs), want)
        if isinstance(synopsis, Histogram):
            assert _same(synopsis.prefix_integral(xs), want)


class TestPositionsMustBeIntegers:
    """The prefix primitives reject a non-integral position instead of
    truncating it; out-of-range positions still raise IndexError."""

    def test_prefix_primitives(self):
        dense = np.arange(1.0, 17.0)
        histogram = Histogram.from_dense(dense)
        sparse = SparseFunction.from_dense(dense)
        poly = build_synopsis(dense, "poly", 2, measure_error=False).synopsis
        table = PrefixTable.from_synopsis(histogram)
        calls = [
            table.integral,
            table.prefix.integral,
            histogram.prefix_integral,
            sparse.prefix_integral,
            poly.prefix_integral,
            PrefixTable.from_synopsis(poly).integral,
        ]
        for call in calls:
            for bad in (1.5, np.array([2, 0.5]), float("nan"), float("inf")):
                with pytest.raises(ValueError, match="positions must be integers"):
                    call(bad)
            assert call(3.0) == call(3)
            with pytest.raises(IndexError, match="must lie in"):
                call(17)
            with pytest.raises(IndexError, match="must lie in"):
                call(-1)
        assert table.integral(1) == 1.0
        with pytest.raises(ValueError, match="got 1.5"):
            table.integral(1.5)


class TestHugeIntegers:
    """A position or top-k size beyond int64 saturates at the int64 range
    instead of wrapping (a uint64 at or above 2**63) or casting to a
    platform-defined value with a RuntimeWarning (a float beyond int64):
    a huge position fails the domain check with its usual message, and a
    huge ``m`` returns every piece.  Every warning is an error here."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_conversion_saturates(self):
        unsigned = np.array([2**63, 2**64 - 1, 5], dtype=np.uint64)
        assert as_positions(unsigned).tolist() == [2**63 - 1, 2**63 - 1, 5]
        floats = np.array([1e20, -1e20, 3.0])
        assert as_positions(floats).tolist() == [2**63 - 1024, -(2**63), 3]
        assert as_positions(2**64) == 2**63 - 1024

    def test_positions_fail_the_domain_check(self):
        dense = np.arange(1.0, 17.0)
        table = PrefixTable.from_synopsis(Histogram.from_dense(dense))
        sparse = SparseFunction.from_dense(dense)
        calls = {
            "positions must lie in [0, 16)": (table.point_mass, table.cdf),
            "ranges must satisfy 0 <= a <= b < 16": (
                lambda x: table.range_sum(0, x),
                lambda x: table.range_mean(x, np.array([3, 4])),
            ),
            "prefix positions must lie in [0, 16]": (
                table.integral, table.prefix.integral, sparse.prefix_integral
            ),
        }
        for huge in HUGE + (2**64, np.uint64(2**63), np.array([3, 1e20])):
            for message, fns in calls.items():
                for fn in fns:
                    with pytest.raises((ValueError, IndexError)) as excinfo:
                        fn(huge)
                    assert str(excinfo.value) == message

    def test_front_end_rows_fail_alone(self):
        router = ShardRouter(num_shards=2)
        router.register("h", np.arange(1.0, 17.0), family="exact", k=1)
        batch = [
            QueryRequest("point_mass", "h", (3,)),
            QueryRequest("point_mass", "h", (1e20,)),
            QueryRequest("range_sum", "h", (0, np.uint64(2**63))),
            QueryRequest("cdf", "h", (np.array([2, 2**63], dtype=np.uint64),)),
            QueryRequest("range_sum", "h", (np.array([1.0, 2.0]), -1e20)),
            QueryRequest("range_sum", "h", (1, 4)),
        ]
        with AsyncServingFrontend(router) as frontend:
            results = frontend.serve(batch)
        assert [result.error for result in results] == [
            None,
            "positions must lie in [0, 16)",
            "ranges must satisfy 0 <= a <= b < 16",
            "positions must lie in [0, 16)",
            "ranges must satisfy 0 <= a <= b < 16",
            None,
        ]
        assert results[0].value == router.point_mass("h", 3)
        assert results[5].value == router.range_sum("h", 1, 4)

    def test_huge_m_returns_every_piece(self):
        tables = [
            PrefixTable.from_synopsis(Histogram.from_dense(dense))
            for dense in (np.arange(1.0, 17.0), np.arange(16.0, 0.0, -1.0))
        ]
        cohort = CohortTable(tables)
        every = tables[0].top_k_buckets(tables[0].num_pieces)
        merged = cohort.top_k(10**6)
        for m in (2**63, 2**64, np.uint64(2**63), np.uint64(2**64 - 1), 1e20):
            assert tables[0].top_k_buckets(m) == every
            assert cohort.top_k(m) == merged
        for table in (tables[0].top_k_buckets, cohort.top_k):
            with pytest.raises(ValueError, match=r"m must be >= 1, got -1e\+20"):
                table(-1e20)


class TestCheckOrder:
    """A conversion error counts only when no check failed before it, as
    when each argument was checked and raised in turn."""

    def test_earlier_checks_win(self):
        table = PrefixTable.from_synopsis(Histogram.from_dense(np.arange(1.0, 17.0)))
        empty = PrefixTable.from_synopsis(Histogram.from_dense(np.zeros(4)))
        calls = {
            "positions must be integers, got 1.5": (
                lambda: table.range_sum(np.array([1.5, 2.0]), np.array([1, 2, 3])),
                lambda: table.range_sum(1.5, "x"),
            ),
            "cdf requires positive total mass": (lambda: empty.cdf("x"),),
            "quantile requires positive total mass": (lambda: empty.quantile("x"),),
        }
        for message, fns in calls.items():
            for fn in fns:
                with pytest.raises(ValueError) as excinfo:
                    fn()
                assert str(excinfo.value) == message
        with pytest.raises(ValueError, match="could not convert"):
            table.range_sum(1, "x")


class TestLongCalls:
    def test_passes_answer_like_one_evaluation(self):
        """A call of more points than one pass evaluates is split into
        passes; every answer still equals its entry's reference."""
        rng = np.random.default_rng(7)
        synopses = [
            build_synopsis(rng.random(300), family, 6, measure_error=False).synopsis
            for family in ("merging", "poly", "wavelet")
        ]
        tables = [PrefixTable.from_synopsis(synopsis) for synopsis in synopses]
        stack = PrefixTable.stack(tables)
        entries = rng.integers(0, 3, 10_000).astype(np.intp)
        a, b = np.sort(rng.integers(0, 300, (2, 10_000)), axis=0)
        got = stack.range_sum(a, b, entries)
        for entry, table in enumerate(tables):
            mine = entries == entry
            want = reference_answer(table.prefix, "range_sum", a[mine], b[mine])
            assert _same(got[mine], want)
        xs = rng.integers(0, 301, 10_000)
        assert _same(
            tables[1].prefix.integral(xs), reference_integral(tables[1].prefix, xs)
        )


#: A series whose one cubic fit has F(n) one rounding step below its total
#: mass, so a level of 1.0 never reaches it: a search that steps a closed
#: point again moves it from n - 1 = 5 to n = 6, outside the domain.
CUBIC_DATA = np.array([9.0, 4.0, 7.0, 5.0, 5.0, 7.0])


def _one_cubic(q, k):
    return PiecewisePolynomial(q.n, [fit_polynomial(q, 0, q.n - 1, 3)])


@pytest.fixture
def cubic_family(monkeypatch):
    """A serving family, for this test only, that fits one cubic."""
    spec = dataclasses.replace(family_spec("poly"), name="one_cubic", fn=_one_cubic)
    monkeypatch.setitem(builders._BUILDERS, "one_cubic", spec)
    return "one_cubic"


class TestQuantileBisection:
    def test_each_entry_searches_as_if_alone(self):
        """On this polynomial F(n) rounds just below the total mass, so a
        level of 1.0 never reaches it: alone, the search stops at n - 1,
        but every extra step moves it to n.  Only open points move."""
        q = SparseFunction.from_dense(np.array([8.0, 7.0]))
        poly = PiecewisePolynomial(2, [fit_polynomial(q, 0, 1, 3)])
        table = PrefixTable.from_synopsis(poly)
        assert table.prefix.is_nondecreasing and not table.prefix.is_piecewise_linear
        assert reference_integral(table.prefix, 2) < table.prefix.total_mass
        ramp = SparseFunction.from_dense(np.arange(1.0, 65.0))
        wide = PrefixTable.from_synopsis(
            PiecewisePolynomial(64, [fit_polynomial(ramp, 0, 63, 1)])
        )
        assert wide.prefix.is_nondecreasing and not wide.prefix.is_piecewise_linear
        stack = PrefixTable.stack([table, wide])
        levels = np.array([1.0, 0.3])
        got = stack.quantile(levels, np.array([0, 1]))
        assert got[0] == reference_answer(table.prefix, "quantile", levels[:1])[0] == 1
        assert got[1] == reference_answer(wide.prefix, "quantile", levels[1:])[0]

    def test_closed_points_stay_in_the_domain(self, cubic_family):
        """A closed point stays put while another point of its own entry
        is still open: level 1.0 answers n - 1 = 5 with or without 0.3
        beside it, alone, stacked and on the engine."""
        cubic = _one_cubic(SparseFunction.from_dense(CUBIC_DATA), 1)
        table = PrefixTable.from_synopsis(cubic)
        assert table.prefix.is_nondecreasing and not table.prefix.is_piecewise_linear
        assert reference_integral(table.prefix, 6) < table.prefix.total_mass
        levels = np.array([1.0, 0.3])
        assert table.quantile(1.0) == 5
        assert table.quantile(levels).tolist() == [5, 1]
        other = PrefixTable.from_synopsis(Histogram.from_dense(np.arange(1.0, 17.0)))
        stack = PrefixTable.stack([other, table])
        got = stack.quantile(np.array([1.0, 0.5, 0.3]), np.array([1, 0, 1]))
        assert got.tolist() == [5, 11, 1]
        store = SynopsisStore()
        store.register("cubic", CUBIC_DATA, family=cubic_family, k=1)
        assert QueryEngine(store).quantile("cubic", levels).tolist() == [5, 1]

    def test_front_end_batch_stays_in_the_domain(self, cubic_family):
        """Two quantile requests to one polynomial entry share one stacked
        call; the level-1.0 answer is 5, as alone."""
        router = ShardRouter(num_shards=2)
        router.register("cubic", CUBIC_DATA, family=cubic_family, k=1)
        batch = [
            QueryRequest("quantile", "cubic", (1.0,)),
            QueryRequest("quantile", "cubic", (0.3,)),
        ]
        with AsyncServingFrontend(router) as frontend:
            results = frontend.serve(batch)
        assert [result.value for result in results] == [5, 1]
        assert [router.quantile("cubic", level) for level in (1.0, 0.3)] == [5, 1]


class TestQuantileLevels:
    """A NaN level fails the ``[0, 1]`` check, like any level outside it."""

    MESSAGE = "quantile levels must lie in [0, 1]"

    def test_engine_rejects_a_nan_level(self):
        store = SynopsisStore()
        store.register("h", np.arange(1.0, 17.0), family="exact", k=1)
        engine = QueryEngine(store)
        for levels in (float("nan"), np.array([0.5, float("nan")])):
            with pytest.raises(ValueError) as excinfo:
                engine.quantile("h", levels)
            assert str(excinfo.value) == self.MESSAGE
        assert engine.quantile("h", 0.5) == 11

    def test_only_the_nan_request_errors_in_a_batch(self):
        router = ShardRouter(num_shards=2)
        router.register("h", np.arange(1.0, 17.0), family="exact", k=1)
        router.register("g", np.linspace(1.0, 4.0, 16), family="merging", k=2)
        batch = [
            QueryRequest("quantile", "h", (0.5,)),
            QueryRequest("quantile", "h", (float("nan"),)),
            QueryRequest("quantile", "g", (0.25,)),
            QueryRequest("quantile", "h", (np.array([0.1, 0.9]),)),
        ]
        with AsyncServingFrontend(router) as frontend:
            results = frontend.serve(batch)
        assert [result.error for result in results] == [None, self.MESSAGE, None, None]
        assert results[0].value == 11
        assert results[2].value == router.quantile("g", 0.25)
        assert results[3].value.tolist() == router.quantile("h", [0.1, 0.9]).tolist()


class TestStackLayout:
    def test_one_table_shares_its_arrays(self):
        table = PrefixTable.from_synopsis(Histogram.from_dense(np.arange(1.0, 9.0)))
        stack = table.evaluator
        assert stack is table.prefix.as_stack()
        assert stack.lefts is table.prefix.lefts
        assert stack.keys is table.prefix.lefts

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError, match="at least one table"):
            PrefixStack([])
