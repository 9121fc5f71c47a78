"""Matrix engine, Toeplitz-row count, closed forms and the Warshall kernel."""

import os
import subprocess
import sys
from itertools import combinations, islice
from pathlib import Path

import pytest

import gapwords
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
    prefix_gap_complexity,
    single_gap_complexity,
)
from gapwords.words import GapSet, rainbow_word

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


def run_in_child(code, megabytes):
    """Run `python -c code` on this checkout's sources with the address space capped."""
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))

    src = str(Path(gapwords.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=limit_memory,
        timeout=120,
    )


def all_gap_sets(n):
    for size in range(n):
        yield from combinations(range(1, n), size)


def with_clipped_shapes(n):
    """Every gap set below n, and each nonempty one again with its last run
    going on to n - 1, just past it and far past it: the runs the engine clips."""
    for m in all_gap_sets(n):
        yield m
        if m:
            *runs, last = GapSet.of(m).runs
            for stop in (n, n + 1, 10**9):
                yield GapSet([*runs, range(last.start, stop)])


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

    def test_wide_range_is_clipped_at_the_length(self):
        assert gap_adjacency(3, range(1, 10**18)) == [[0, 1, 1], [0, 0, 1], [0, 0, 0]]


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

    def test_matches_toeplitz_row_exhaustively(self):
        # W[i][j] counts the paths of length j - i; the tail-count engine
        # gives that row as differences of its column sums
        for n in range(1, 9):
            for m in with_clipped_shapes(n):
                a = [0] + list(counting._tail_counts(n, GapSet.of(m).runs))
                row = [a[d + 1] - a[d] for d in range(n)]
                w = path_counts(gap_adjacency(n, m))
                expected = [[row[j - i] if j > i else 0 for j in range(n)] for i in range(n)]
                assert w == expected, (n, m)

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
            [[0, 1.0], [0, 0]],  # not int
            [[0 if j <= i else 1.0 for j in range(60)] for i in range(60)],  # would sum to a float
            [[0, True, 1], [0, 0, True], [0, 0, 0]],  # bools would come back as entries
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
        for n in range(1, 9):
            w = rainbow_word(n)
            for m in with_clipped_shapes(n):
                assert complexity(n, m) == oracle.count_selections(w, m), (n, m)

    def test_long_word_in_bounded_memory(self):
        # a list of all n tail counts would hold about 370 MB at n=100,000;
        # the count keeps only the last few, so a 256 MB child finishes
        n, gaps, p = 100_000, (2, 3, 4), 1_000_000_007
        code = f"from gapwords.counting import complexity; print(complexity({n}, {gaps}) % {p})"
        proc = run_in_child(code, 256)
        a = [0] * (n + 1)
        for i in range(1, n + 1):
            a[i] = (1 + sum(a[i - g] for g in gaps if g < i)) % p
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{sum(a) % p}\n".encode(), b"")

    def test_run_reaching_the_end_needs_no_ring_of_n(self):
        # the far end of a run that reaches n - 1 is always a[0], so only its
        # near end is kept: a ring of 10^12 slots could never be allocated
        for lo in (1, 3, 7):
            terms = islice(counting._tail_counts(10**12, [range(lo, 10**13)]), 40)
            a = [0] * 41
            for i in range(1, 41):
                a[i] = 1 + sum(a[i - g] for g in range(lo, i))
            assert list(terms) == a[1:], lo

    def test_huge_range_in_bounded_memory(self):
        # a range is stored as one run and clipped at n - 1 by the engine, so
        # a gap set of 10^18 values fits a 64 MB child
        code = (
            "from gapwords.counting import complexity; from gapwords.words import GapSet; "
            "print(complexity(5, range(1, 10**18)), GapSet.of(range(3, 10**18)).runs)"
        )
        proc = run_in_child(code, 64)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, b"31 (range(3, 1000000000000000000),)\n", b""
        )


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

    @pytest.mark.parametrize(
        "form, args",
        [
            (single_gap_complexity, (7.5, 2)),  # would be 18.0
            (prefix_gap_complexity, (10.0, 2)),  # would be 1022.0
            (single_gap_complexity, (7, 2.0)),
            (min_gap_complexity, (True, 1)),
            (min_gap_complexity, (7, True)),
            (gap_range_upper_bound, (7, 2, 3.0)),
            (gap_range_upper_bound, (7, True, 3)),
        ],
    )
    def test_rejects_non_integer_arguments(self, form, args):
        with pytest.raises(ValueError, match="integer >= 1|need 1 <= d1 <= d2"):
            form(*args)

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
        with pytest.raises(ValueError, match="need 1 <= d1 <= d2"):
            gap_range_upper_bound(5, 3, 2)

    def test_rejects_gap_below_one(self):
        with pytest.raises(ValueError, match="need 1 <= d1 <= d2, got d1=0, d2=2"):
            gap_range_upper_bound(5, 0, 2)


class TestKernels:
    def test_bigint_integrity(self):
        # 2^70 - 1 does not fit in 64 bits; both routes must agree exactly
        value = complexity(70, range(1, 70))
        assert value == 2**70 - 1 == prefix_gap_complexity(70, 1)

    def test_pure_kernel_directly(self):
        assert pure_kernel([row[:] for row in ADJ_6]) == PATHS_6
