"""Nontrivial subwords: the listing walk against the set-valued Warshall pass and the oracle."""

import math
from itertools import chain, combinations, product

import pytest

from gapwords import counting, latin, oracle
from gapwords.latin import (
    initial_latin_matrix,
    nontrivial_subwords,
    subword_text,
    warshall_latin,
)
from gapwords.words import rainbow_word


def matrix_from_cells(n, cells):
    out = [[set() for _ in range(n)] for _ in range(n)]
    for (i, j), words in cells.items():
        out[i - 1][j - 1] = set(words)
    return out


# worked 8-letter example with gaps 3..7, seed state
INITIAL_8 = matrix_from_cells(
    8,
    {
        (1, 4): ["ad"], (1, 5): ["ae"], (1, 6): ["af"], (1, 7): ["ag"], (1, 8): ["ah"],
        (2, 5): ["be"], (2, 6): ["bf"], (2, 7): ["bg"], (2, 8): ["bh"],
        (3, 6): ["cf"], (3, 7): ["cg"], (3, 8): ["ch"],
        (4, 7): ["dg"], (4, 8): ["dh"],
        (5, 8): ["eh"],
    },
)

# same example after the pass: three cells gain longer witnesses
FINAL_8 = matrix_from_cells(
    8,
    {
        (1, 4): ["ad"], (1, 5): ["ae"], (1, 6): ["af"],
        (1, 7): ["ag", "adg"], (1, 8): ["ah", "adh", "aeh"],
        (2, 5): ["be"], (2, 6): ["bf"], (2, 7): ["bg"], (2, 8): ["bh", "beh"],
        (3, 6): ["cf"], (3, 7): ["cg"], (3, 8): ["ch"],
        (4, 7): ["dg"], (4, 8): ["dh"],
        (5, 8): ["eh"],
    },
)


class TestInitialMatrix:
    def test_worked_example(self):
        assert initial_latin_matrix("abcdefgh", range(3, 8)) == INITIAL_8

    def test_empty_gap_set(self):
        assert initial_latin_matrix("abc", ()) == [[set()] * 3 for _ in range(3)]

    def test_gap_pair(self):
        got = initial_latin_matrix("abcd", [1, 3])
        assert got == matrix_from_cells(
            4, {(1, 2): ["ab"], (2, 3): ["bc"], (3, 4): ["cd"], (1, 4): ["ad"]}
        )


class TestWarshallLatin:
    def test_worked_example(self):
        assert warshall_latin(INITIAL_8) == FINAL_8

    def test_input_not_mutated(self):
        seed = initial_latin_matrix("abcdefgh", range(3, 8))
        warshall_latin(seed)
        assert seed == INITIAL_8

    def test_empty_fixpoint(self):
        empty = [[set() for _ in range(4)] for _ in range(4)]
        assert warshall_latin(empty) == empty

    def test_gap_pair_cell(self):
        # frozen from the oracle: subwords of abcd with gaps {1,3} that start
        # at position 1 and end at position 4
        final = warshall_latin(initial_latin_matrix("abcd", [1, 3]))
        assert final[0][3] == {"abcd", "ad"}

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param([[set(), {"ab"}], [set()]], id="ragged"),
            pytest.param([[{"aa"}, set()], [set(), set()]], id="diagonal"),
            pytest.param([[set(), set()], [{"ba"}, set()]], id="below-diagonal"),
        ],
    )
    def test_rejects_lower_triangle(self, bad):
        with pytest.raises(ValueError):
            warshall_latin(bad)


class TestNontrivialSubwords:
    def test_19_word_example(self):
        expected = sorted("ad ae af ag adg ah adh aeh be bf bg bh beh cf cg ch dg dh eh".split())
        assert nontrivial_subwords("abcdefgh", range(3, 8)) == expected

    def test_non_rainbow_dedup(self):
        assert nontrivial_subwords("aabbbaaa", range(3, 8), dedup=True) == [
            "aa", "ab", "aba", "ba",
        ]

    def test_non_rainbow_keeps_cell_copies_without_dedup(self):
        # the set pass holds a string once per (start, end) cell: aa in six
        # cells, ab and aba in three, ba in six; the listing holds it once
        final = warshall_latin(initial_latin_matrix("aabbbaaa", range(3, 8)))
        cells = sorted(s for row in final for cell in row for s in cell)
        assert cells == ["aa"] * 6 + ["ab"] * 3 + ["aba"] * 3 + ["ba"] * 6
        assert nontrivial_subwords("aabbbaaa", range(3, 8)) == sorted(set(cells))

    def test_empty_gap_set(self):
        assert nontrivial_subwords("abcde", ()) == []

    def test_wide_gap_range_is_clipped_at_the_word_length(self):
        # the walk visits gaps below the word length only, so this ends at once
        assert nontrivial_subwords("abc", range(1, 10**18)) == ["ab", "abc", "ac", "bc"]


class TestAgainstOracleAndCounts:
    def test_cells_match_path_counts(self):
        # the set matrix is the path-count matrix lifted to witnesses
        for n in range(1, 8):
            w = rainbow_word(n)
            for size in range(n):
                for m in combinations(range(1, n), size):
                    final = warshall_latin(initial_latin_matrix(w, m))
                    paths = counting.path_counts(counting.gap_adjacency(n, m))
                    for i in range(n):
                        for j in range(n):
                            assert len(final[i][j]) == paths[i][j], (n, m, i, j)

    def test_cell_contents_well_formed(self):
        w = rainbow_word(7)
        final = warshall_latin(initial_latin_matrix(w, [1, 3, 4]))
        seen = set()
        for i in range(7):
            for j in range(7):
                for s in final[i][j]:
                    assert 2 <= len(s) <= 7
                    assert s[0] == w.text[i] and s[-1] == w.text[j]
                    assert s not in seen  # rainbow cells are pairwise disjoint
                    seen.add(s)

    def test_union_with_singles_equals_oracle(self):
        for n in range(1, 8):
            w = rainbow_word(n)
            for size in range(n):
                for m in combinations(range(1, n), size):
                    got = set(nontrivial_subwords(w, m)) | set(w.text)
                    assert got == oracle.enumerate_subwords(w, m), (n, m)
                    assert len(nontrivial_subwords(w, m)) == counting.complexity(n, m) - n


# Rainbow words whose letter order differs from their position order, and
# the identity order: runs must follow letters, not positions.
OUT_OF_ORDER = ("dbgacfe", "ZaB1c", rainbow_word(30).text[22:29])

# Words with repeated letters: every word over {a,b} up to 6 letters, and some over {a,b,c}.
REPEATED = (
    *("".join(letters) for n in range(1, 7) for letters in product("ab", repeat=n)),
    "abcabca", "cbacbca", "aacbcbba",
)

# Subwords a listing may hold at once: from one stored run up to all.
BUDGETS = (1, 2, 3, latin._BUDGET, math.inf)


def split_batches(*args):
    """The count of `subword_text` and its batches, each split into its lines."""
    count, end, texts = subword_text(*args)
    return count, [text.split(end) for text in texts]


class TestSubwordRuns:
    def test_runs_follow_letter_order(self):
        # b starts no subword of length >= 2, so it has no batch
        count, runs = split_batches("cab", [1, 2])
        assert (count, runs) == (4, [["ab"], ["ca", "cab", "cb"]])

    def test_a_batch_closes_once_it_holds_the_budget(self):
        # a step of the walk adds one subword or one stored run, which holds
        # at most `_BUDGET`; only the last batch of each first letter is short
        count, runs = split_batches(rainbow_word(16), range(1, 16))
        sizes = [len(run) for run in runs]
        assert sum(sizes) == count == 2**16 - 17
        assert max(sizes) < 2 * latin._BUDGET
        assert sum(size < latin._BUDGET for size in sizes) <= 16

    def test_non_rainbow_runs_are_sorted_and_concatenate_to_the_listing(self):
        count, runs = split_batches("aabbbaaa", range(3, 8), True)
        assert (count, list(chain(*runs))) == (4, ["aa", "ab", "aba", "ba"])
        assert all(run == sorted(run) for run in runs)

    def test_rainbow_runs_match_warshall_cells_and_oracle(self, monkeypatch):
        # every gap set for every prefix of length <= 7 of a rainbow word and
        # every word with repeated letters, with as few stored runs as each
        # budget allows, up to all of them: each distinct string of the cells
        # is listed once, with dedup or without
        rainbow = [text[:n] for text in (*OUT_OF_ORDER, rainbow_word(7).text) for n in range(1, len(text) + 1)]
        for w in (*rainbow, *REPEATED):
            n = len(w)
            for size in range(n):
                for m in combinations(range(1, n), size):
                    final = warshall_latin(initial_latin_matrix(w, m))
                    cells = sorted(s for row in final for cell in row for s in cell)
                    assert set(cells) | set(w) == oracle.enumerate_subwords(w, m), (w, m)
                    expected = {False: sorted(set(cells)), True: sorted(set(cells) | set(w))}
                    for budget in BUDGETS:
                        monkeypatch.setattr(latin, "_BUDGET", budget)
                        for dedup, (singles, listing) in product((False, True), expected.items()):
                            count, runs = split_batches(w, m, dedup, singles)
                            flat = [s for run in runs for s in run]
                            assert (count, flat) == (len(listing), listing), (w, m, budget, dedup, singles)
                            assert all(run == sorted(run) for run in runs), (w, m, budget, dedup, singles)

    def test_singles_sit_before_their_start(self, monkeypatch):
        # with singles, a rainbow word lists every subword of the oracle in order
        for w in OUT_OF_ORDER:
            for size in range(len(w)):
                for m in combinations(range(1, len(w)), size):
                    expected = sorted(oracle.enumerate_subwords(w, m))
                    for budget in BUDGETS:
                        monkeypatch.setattr(latin, "_BUDGET", budget)
                        count, runs = split_batches(w, m, False, True)
                        flat = [s for run in runs for s in run]
                        assert (count, flat) == (len(expected), expected), (w, m, budget)

    def test_singles_on_non_rainbow_words(self):
        for dedup in (False, True):
            count, runs = split_batches("abab", [1, 2], dedup, True)
            expected = sorted(chain("ab", nontrivial_subwords("abab", [1, 2])))
            assert (count, list(chain(*runs))) == (len(expected), expected)
            assert all(run == sorted(run) for run in runs)


# Words whose text needs care: quotes, backslashes, commas, line ends of any
# kind, control characters and letters outside ASCII.
TEXT_WORDS = ('a"b\\c', 'ab,c"a', "a\nb\na", "\n", "x\r\ny", "é€😀x", "a\tb\x01c")


class TestSubwordText:
    @pytest.mark.parametrize(
        "word, end", [("abc", "\n"), ("a\tb\x01c", "\n"), ("x\r\ny", "\x00"), ("\x00\n", "\x01")]
    )
    def test_line_end_is_newline_unless_the_word_holds_one(self, word, end):
        assert subword_text(word, [1])[1] == end

    def test_batches_are_the_listing_joined_by_the_line_end(self, monkeypatch):
        # the lines of every batch, in order, are the distinct strings of the
        # set-valued pass, for every budget from one stored run up to all, and
        # no batch is empty
        for w in (*TEXT_WORDS, "abcdefg", "aabbbaaa"):
            for m in ((), (1,), (1, 3), range(1, len(w))):
                final = warshall_latin(initial_latin_matrix(w, m))
                cells = {s for row in final for cell in row for s in cell}
                expected = {False: sorted(cells), True: sorted(cells | set(w))}
                for budget in BUDGETS:
                    monkeypatch.setattr(latin, "_BUDGET", budget)
                    for dedup, (singles, listing) in product((False, True), expected.items()):
                        count, end, texts = subword_text(w, m, dedup, singles)
                        texts = list(texts)
                        lines = [s for text in texts for s in text.split(end)]
                        assert end not in w
                        assert (count, lines) == (len(listing), listing), (w, m, budget, dedup, singles)
                        assert all(texts), (w, m, budget, dedup, singles)
