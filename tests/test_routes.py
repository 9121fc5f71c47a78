"""Property tests: every counting route gives the same number.

The Toeplitz-row count `complexity` is checked against the Warshall matrix
sum and the brute-force oracle where those can run, and against the closed
forms and the range recurrence at word lengths where only fast routes run.
Its engine `_tail_counts` is checked position by position against the
Warshall columns, and the series built on it against the direct recurrence.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapwords import counting, intervals, oracle
from gapwords.words import GapSet, rainbow_word


def warshall_sum(n, gaps):
    """Sum of I + W with W from the Warshall engine."""
    return n + sum(map(sum, counting.path_counts(counting.gap_adjacency(n, gaps))))


def word_and_gaps(max_n, max_gap):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(st.just(n), st.frozensets(st.integers(1, max_gap(n))))
    )


big_n = st.integers(1000, 2000)
series_n = st.integers(1000, 3000)


@settings(max_examples=200, deadline=None)
@given(word_and_gaps(10, lambda n: n + 2))
def test_small_words_match_oracle(case):
    n, gaps = case
    count = oracle.count_selections(rainbow_word(n), gaps)
    assert counting.complexity(n, gaps) == warshall_sum(n, gaps) == count


@settings(max_examples=150, deadline=None)
@given(word_and_gaps(40, lambda n: 2 * n))
@example((40, frozenset()))
@example((40, frozenset(range(40, 80))))
def test_matches_warshall_sum(case):
    n, gaps = case
    assert counting.complexity(n, gaps) == warshall_sum(n, gaps)


@settings(max_examples=150, deadline=None)
@given(word_and_gaps(40, lambda n: 2 * n))
@example((40, frozenset()))
@example((40, frozenset(range(40, 80))))
@example((40, frozenset({1, 3, 4, 5, 9, 17, 18, 39})))
def test_tail_counts_match_warshall_columns(case):
    # subwords ending at position j: the single letter plus column j of W
    n, gaps = case
    w = counting.path_counts(counting.gap_adjacency(n, gaps))
    columns = [1 + sum(row[j] for row in w) for j in range(n)]
    assert counting._tail_counts(n, GapSet.of(gaps).runs()) == columns


@settings(max_examples=20, deadline=None)
@given(series_n, st.integers(1, 3100), st.integers(0, 30))
def test_series_match_direct_recurrence(n, d1, width):
    d2 = d1 + width
    assert intervals.tail_count_series(d1, d2, n)[1:] == intervals.tail_counts(n, d1, d2)
    assert intervals.complexity_series(d1, d2, n)[n] == intervals.gap_range_complexity(n, d1, d2)


@settings(max_examples=20, deadline=None)
@given(big_n, st.integers(0, 500))
def test_every_gap(n, beyond):
    assert counting.complexity(n, range(1, n + beyond)) == 2**n - 1


@settings(max_examples=20, deadline=None)
@given(big_n, st.data())
def test_min_gap_closed_form(n, data):
    d = data.draw(st.integers(1, n))
    assert counting.complexity(n, range(d, n)) == counting.min_gap_complexity(n, d)


@settings(max_examples=20, deadline=None)
@given(big_n, st.integers(1, 2500))
def test_single_gap_closed_form(n, d):
    assert counting.complexity(n, [d]) == counting.single_gap_complexity(n, d)


@settings(max_examples=20, deadline=None)
@given(big_n, st.integers(1, 2000), st.integers(0, 30))
def test_gap_range_recurrence(n, d1, width):
    d2 = d1 + width
    assert counting.complexity(n, range(d1, d2 + 1)) == intervals.gap_range_complexity(n, d1, d2)
