"""Tail-count recurrences, series expansion, and the pair correspondence."""

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction
from itertools import islice

import pytest

from gapwords import counting
from gapwords.intervals import (
    check_correspondence,
    complexity_series,
    gap_pair_complexity,
    gap_range_complexity,
    series_terms,
    tail_count_series,
    tail_counts,
    tail_counts_simplified,
)

TABLE_A = [1, 1, 2, 3, 5, 7, 11, 16, 24, 35, 52, 76, 112]
TABLE_K = [1, 2, 4, 7, 12, 19, 30, 46, 70, 105, 157, 233, 345]


class TestTailCounts:
    def test_worked_table(self):
        assert tail_counts(13, 2, 4) == TABLE_A

    def test_single_position(self):
        assert tail_counts(1, 3, 9) == [1]

    def test_every_gap_one(self):
        # frozen from the oracle: with gap set {1} exactly i subwords end at
        # position i (the contiguous suffixes)
        assert tail_counts(8, 1, 1) == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_bad_span_rejected(self):
        with pytest.raises(ValueError):
            tail_counts(5, 3, 2)
        with pytest.raises(ValueError):
            tail_counts(5, 0, 2)


class TestSimplifiedRecurrence:
    def test_worked_table(self):
        assert tail_counts_simplified(13, 2, 4) == TABLE_A

    def test_boundary_zeros(self):
        assert tail_counts_simplified(2, 2, 4) == [1, 1]

    def test_agrees_with_direct_recurrence(self):
        for d1 in range(1, 9):
            for d2 in range(d1, 9):
                assert tail_counts_simplified(40, d1, d2) == tail_counts(40, d1, d2), (d1, d2)


class TestRangeComplexity:
    def test_worked_table(self):
        assert [gap_range_complexity(n, 2, 4) for n in range(1, 14)] == TABLE_K

    def test_matches_matrix_method(self):
        for n in range(1, 15):
            for d1 in range(1, n):
                for d2 in range(d1, n):
                    assert gap_range_complexity(n, d1, d2) == counting.complexity(
                        n, range(d1, d2 + 1)
                    ), (n, d1, d2)
                    # both run the tail-count engine; the direct recurrence does not
                    assert gap_range_complexity(n, d1, d2) == sum(tail_counts(n, d1, d2)), (
                        n, d1, d2,
                    )

    def test_top_gap_may_exceed_length(self):
        assert gap_range_complexity(6, 2, 5) == 20
        assert gap_range_complexity(6, 2, 50) == counting.complexity(6, range(2, 51))
        assert gap_range_complexity(6, 2, 50) == sum(tail_counts(6, 2, 50))

    def test_returns_int(self):
        assert type(gap_range_complexity(3000, 2, 4)) is int

    def test_bad_arguments_rejected(self):
        for args in [(0, 2, 4), (5, 3, 2), (5, 0, 2)]:
            with pytest.raises(ValueError):
                gap_range_complexity(*args)

    def test_positive_tail_counts(self):
        values = tail_counts(30, 3, 5)
        assert all(v >= 1 for v in values)
        ones = tail_counts(30, 1, 4)
        assert all(b >= a for a, b in zip(ones, ones[1:]))  # nondecreasing when d1 = 1


class TestSeries:
    def test_tail_series_table(self):
        assert tail_count_series(2, 4, 13) == [0] + TABLE_A

    def test_complexity_series_table(self):
        got = complexity_series(2, 4, 13)
        assert got == [0] + TABLE_K
        assert got[1] == 1
        assert got[6] == 19

    def test_coefficient_zero_is_zero(self):
        for d1, d2 in [(1, 1), (2, 4), (3, 7)]:
            assert tail_count_series(d1, d2, 4)[0] == 0
            assert complexity_series(d1, d2, 4)[0] == 0

    def test_unit_gap_series(self):
        assert tail_count_series(1, 1, 5) == [0, 1, 2, 3, 4, 5]

    def test_series_equals_recurrence(self):
        for d1, d2 in [(1, 1), (1, 5), (2, 4), (3, 3), (2, 7)]:
            n = 25
            assert tail_count_series(d1, d2, n)[1:] == tail_counts(n, d1, d2)
            ks = complexity_series(d1, d2, n)
            assert ks[n] == gap_range_complexity(n, d1, d2)
            assert ks[n] == sum(tail_counts(n, d1, d2))

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            tail_count_series(2, 4, 0)

    def test_lists_hold_ints(self):
        for expand in (tail_count_series, complexity_series):
            assert all(type(v) is int for v in expand(2, 4, 200))


class TestSeriesTerms:
    def test_lazy_terms_match_lists(self):
        assert list(series_terms("a", 2, 4, 13)) == TABLE_A
        assert list(series_terms("K", 2, 4, 13)) == TABLE_K
        terms = series_terms("K", 1, 1, 10**9)  # produced on demand, never listed
        assert list(islice(terms, 5)) == [1, 3, 6, 10, 15]

    def test_arguments_checked_before_the_first_term(self):
        for args in [
            ("a", 4, 2, 3), ("K", 0, 2, 3), ("a", 2, 4, 0), ("x", 2, 4, 3),
            ("a", 2, 4, True), ("a", 2, 4, 7.5), ("K", 2, 4, "3"),
        ]:
            with pytest.raises(ValueError):
                series_terms(*args)
        with pytest.raises(ValueError):
            tail_count_series(2, 4, 2.5)
        # the arithmetic is that of the int 1 or Decimal(1), nothing else;
        # the context never rounds, so only `one` is wrong here
        exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])
        with localcontext(exact):
            for one in (2, 1.0, True, Fraction(1, 2), Fraction(1), Decimal("1.0"), Decimal(2), "1"):
                with pytest.raises(ValueError):
                    series_terms("a", 2, 4, 6, one)

    def test_decimals_need_a_context_that_never_rounds(self):
        # under the default 28-digit context the last term would silently round
        with localcontext(Context()):
            with pytest.raises(ValueError):
                series_terms("a", 1, 2, 200, Decimal(1))

    def test_exact_decimals_match_ints(self):
        exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])
        with localcontext(exact):
            for which in ("a", "K"):
                terms = list(series_terms(which, 1, 2, 3000, Decimal(1)))
                assert all(type(v) is Decimal for v in terms)
                assert list(map(str, terms)) == list(map(str, series_terms(which, 1, 2, 3000)))


class TestGapPair:
    def test_worked_examples(self):
        assert gap_pair_complexity(5, 3) == 19
        assert gap_pair_complexity(4, 3) == 11

    def test_inert_large_gap(self):
        # with d >= n the second gap never fires; matrix method agrees
        for n in range(2, 8):
            for d in range(n, n + 3):
                assert gap_pair_complexity(n, d) == counting.complexity(n, {1, d}), (n, d)

    def test_matches_matrix_method(self):
        for n in range(1, 15):
            for d in range(2, n):
                assert gap_pair_complexity(n, d) == counting.complexity(n, {1, d}), (n, d)

    def test_d_below_two_rejected(self):
        for d in [1, 0, 2.5, True]:
            with pytest.raises(ValueError):
                gap_pair_complexity(7, d)


class TestCorrespondence:
    def test_worked_example(self):
        res = check_correspondence(5, 3)
        assert res.pair_count == 19
        assert res.min_gap_count == 19
        assert res.matches

    def test_single_letter(self):
        # frozen from the oracle: one {1,2}-subword of a single letter, one
        # nontrivial subword of a length-3 word with gaps {2}
        assert check_correspondence(1, 2) == (1, 1, True)

    def test_grid(self):
        for n in range(1, 16):
            for d in range(2, 7):
                assert check_correspondence(n, d).matches, (n, d)
