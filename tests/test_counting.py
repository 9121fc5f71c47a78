"""Matrix engine, Toeplitz-row count, closed forms and the Warshall kernel."""

from itertools import combinations

import pytest

from gapwords import counting, oracle
from gapwords.counting import _path_count_kernel as pure_kernel
from gapwords.counting import (
    add_identity,
    binomial,
    complexity,
    gap_adjacency,
    gap_range_upper_bound,
    min_gap_complexity,
    path_counts,
    path_counts_by_powers,
    prefix_gap_complexity,
    single_gap_complexity,
)
from gapwords.words import rainbow_word

ADJ_6 = [
    [0, 0, 1, 1, 1, 1],
    [0, 0, 0, 1, 1, 1],
    [0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
]

PATHS_6 = [
    [0, 0, 1, 1, 2, 3],
    [0, 0, 0, 1, 1, 2],
    [0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
]


def all_gap_sets(n):
    for size in range(n):
        yield from combinations(range(1, n), size)


class TestBinomial:
    def test_values(self):
        assert binomial(6, 2) == 15
        assert binomial(5, 0) == 1
        assert binomial(0, 0) == 1

    def test_zero_outside_domain(self):
        assert binomial(3, 5) == 0
        assert binomial(-1, 0) == 0
        assert binomial(4, -2) == 0


class TestAdjacency:
    def test_worked_example(self):
        assert gap_adjacency(6, range(2, 6)) == ADJ_6

    def test_empty_gaps(self):
        assert gap_adjacency(3, ()) == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]

    def test_gap_pair(self):
        adj = gap_adjacency(4, [1, 3])
        ones = {(i, j) for i in range(4) for j in range(4) if adj[i][j]}
        assert ones == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            gap_adjacency(0, [1])


class TestPathCounts:
    def test_worked_example(self):
        assert path_counts(ADJ_6) == PATHS_6

    def test_zero_matrix(self):
        zero = [[0, 0], [0, 0]]
        assert path_counts(zero) == zero

    def test_gap_pair_paths(self):
        # frozen from the oracle: selections of abcd with gaps {1,3}, grouped
        # by start and end position
        assert path_counts(gap_adjacency(4, [1, 3])) == [
            [0, 1, 1, 2],
            [0, 0, 1, 1],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
        ]

    def test_matches_power_sum_exhaustively(self):
        for n in range(1, 9):
            for m in all_gap_sets(n):
                adj = gap_adjacency(n, m)
                assert path_counts(adj) == path_counts_by_powers(adj), (n, m)

    def test_result_strictly_upper_triangular(self):
        w = path_counts(gap_adjacency(7, [1, 2, 3]))
        for i in range(7):
            for j in range(i + 1):
                assert w[i][j] == 0

    @pytest.mark.parametrize(
        "bad",
        [
            [[0, 1], [0]],  # ragged
            [[0, 2], [0, 0]],  # not 0/1
            [[0, 0], [1, 0]],  # below diagonal
            [[1, 0], [0, 0]],  # diagonal
        ],
    )
    def test_rejects_bad_adjacency(self, bad):
        with pytest.raises(ValueError):
            path_counts(bad)

    def test_add_identity(self):
        r = add_identity(PATHS_6)
        assert r[0][0] == 1 and r[0][4] == 2
        assert sum(sum(row) for row in r) == 20


class TestComplexity:
    def test_worked_values(self):
        assert complexity(6, range(2, 6)) == 20
        assert complexity(7, [2, 3]) == 25
        assert complexity(7, range(2, 7)) == 33

    def test_single_letter_word(self):
        assert complexity(1, ()) == 1
        assert complexity(1, [1, 2, 3]) == 1

    def test_matches_oracle(self):
        for n in range(1, 8):
            w = rainbow_word(n)
            for m in all_gap_sets(n):
                assert complexity(n, m) == oracle.count_selections(w, m), (n, m)


class TestClosedForms:
    def test_min_gap_values(self):
        assert min_gap_complexity(7, 4) == 13
        assert min_gap_complexity(7, 2) == 33
        assert min_gap_complexity(6, 2) == 20

    def test_min_gap_grid(self):
        for n in range(1, 21):
            for d in range(1, n + 1):
                assert min_gap_complexity(n, d) == complexity(n, range(d, n)), (n, d)

    def test_prefix_values(self):
        # 14 and 58 frozen from the oracle on abcd/{1,2} and abcdef/{1,2,3}
        assert prefix_gap_complexity(4, 2) == 14
        assert prefix_gap_complexity(6, 3) == 58
        assert prefix_gap_complexity(5, 1) == 2**5 - 1

    def test_prefix_grid(self):
        for n in range(1, 21):
            d = 1
            while n >= 2 * d - 2:
                assert prefix_gap_complexity(n, d) == complexity(n, range(1, n - d + 1)), (n, d)
                d += 1

    def test_prefix_outside_range_rejected(self):
        with pytest.raises(ValueError):
            prefix_gap_complexity(3, 4)

    def test_single_gap_values(self):
        # 16 and 12 frozen from the oracle; tail counts of {2} on a length-7
        # word are 1,1,2,2,3,3,4
        assert single_gap_complexity(7, 2) == 16
        assert single_gap_complexity(6, 2) == 12
        assert single_gap_complexity(4, 9) == 4  # gap longer than the word

    def test_single_gap_grid(self):
        for n in range(1, 21):
            for d in range(1, n + 1):
                assert single_gap_complexity(n, d) == complexity(n, [d]), (n, d)


class TestUpperBound:
    def test_worked_value(self):
        assert gap_range_upper_bound(7, 2, 3) == 27

    def test_tight_when_range_reaches_top(self):
        assert gap_range_upper_bound(7, 4, 6) == min_gap_complexity(7, 4) == 13

    def test_full_range_is_power_of_two(self):
        for n in range(2, 12):
            assert gap_range_upper_bound(n, 1, n - 1) == 2**n - 1 == complexity(n, range(1, n))

    def test_dominates_exact_count(self):
        for n in range(2, 11):
            for d1 in range(1, n):
                for d2 in range(d1, n):
                    bound = gap_range_upper_bound(n, d1, d2)
                    assert bound >= complexity(n, range(d1, d2 + 1)), (n, d1, d2)

    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            gap_range_upper_bound(5, 3, 2)


class TestKernels:
    def test_bigint_integrity(self):
        # 2^70 - 1 does not fit in 64 bits; both routes must agree exactly
        value = complexity(70, range(1, 70))
        assert value == 2**70 - 1 == prefix_gap_complexity(70, 1)

    def test_pure_kernel_directly(self):
        assert pure_kernel([row[:] for row in ADJ_6]) == PATHS_6
