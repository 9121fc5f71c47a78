"""Word types, gap sets, value semantics, and the brute-force oracle."""

import copy
import doctest
import pickle
from itertools import combinations, islice
from pathlib import Path

import pytest

import gapwords
from gapwords import oracle
from gapwords.intervals import CorrespondenceResult
from gapwords.words import GapSet, Word, rainbow_word


def all_gap_sets(n):
    universe = range(1, n)
    for size in range(n):
        yield from combinations(universe, size)


def test_public_names_resolve():
    namespace = {}
    exec("from gapwords import *", namespace)
    assert set(gapwords.__all__) <= namespace.keys()
    assert "parse_word" not in namespace
    assert not hasattr(gapwords, "parse_word")


def test_readme_examples():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


# (value, an equal value, a different value of the same type, its repr,
# the plain value it wraps, an attribute to assign)
VALUES = [
    (Word("abc"), Word("abc"), Word("abd"), "Word(text='abc')", "abc", "text"),
    (
        GapSet((3, 1)),
        GapSet((1, 3)),
        GapSet((1,)),
        "GapSet(runs=(range(1, 2), range(3, 4)))",
        (1, 3),
        "runs",
    ),
    (
        CorrespondenceResult(3, 3, True),
        CorrespondenceResult(3, 3, True),
        CorrespondenceResult(3, 4, False),
        "CorrespondenceResult(pair_count=3, min_gap_count=3, matches=True)",
        "(3, 3, True)",  # a named tuple equals its plain tuple, so compare with a str
        "matches",
    ),
]


@pytest.mark.parametrize(
    "value, equal, other, text, plain, field", VALUES, ids=[v[0].__class__.__name__ for v in VALUES]
)
class TestValueSemantics:
    def test_equality_and_hash(self, value, equal, other, text, plain, field):
        assert value == equal and not value != equal
        assert hash(value) == hash(equal)
        assert value != other
        assert value != plain and plain != value
        assert len({value, equal, other}) == 2

    def test_repr(self, value, equal, other, text, plain, field):
        assert repr(value) == text

    def test_assignment_raises(self, value, equal, other, text, plain, field):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert value == equal

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_round_trip(self, value, equal, other, text, plain, field, clone):
        got = clone(value)
        assert got == value and type(got) is type(value)
        assert hash(got) == hash(value) and repr(got) == text


class TestWord:
    def test_parse_rainbow(self):
        w = Word("abcd")
        assert len(w) == 4
        assert len(set(w.text)) == len(w)

    def test_parse_non_rainbow(self):
        w = Word("aabbbaaa")
        assert len(w) == 8
        assert len(set(w.text)) != len(w)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Word("")

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            Word(5)

    def test_case_sensitive_letters(self):
        w = Word("aA")
        assert len(set(w.text)) == len(w)

    def test_rainbow_word_helper(self):
        assert rainbow_word(4).text == "abcd"
        w = rainbow_word(26)
        assert len(set(w.text)) == len(w)
        with pytest.raises(ValueError):
            rainbow_word(0)


class TestGapSet:
    def test_canonical_form(self):
        gs = GapSet.of([3, 1, 3, 2])
        assert gs.runs == (range(1, 4),)
        assert list(gs) == [1, 2, 3]
        assert 2 in gs and 4 not in gs

    def test_empty_allowed(self):
        assert len(GapSet.of(())) == 0

    @pytest.mark.parametrize(
        "bad",
        [[0], [-1], ["2"], [1, "a"], [2, None], [range(0, 3)], [range(1, 9, 2)]],
        ids=lambda bad: ",".join(map(str, bad)),
    )
    def test_invalid_values(self, bad):
        # each item is checked before the runs are sorted, so mixed types are a ValueError too
        with pytest.raises(ValueError):
            GapSet.of(bad)

    def test_bounds_if_contiguous(self):
        assert GapSet.of([2, 3, 4]).bounds_if_contiguous() == (2, 4)
        assert GapSet.of([5]).bounds_if_contiguous() == (5, 5)
        assert GapSet.of([1, 3]).bounds_if_contiguous() is None
        assert GapSet.of(()).bounds_if_contiguous() is None

    def test_runs(self):
        assert GapSet.of([7, 1, 2, 3, 5, 8, 9]).runs == (range(1, 4), range(5, 6), range(7, 10))
        assert GapSet.of([4]).runs == (range(4, 5),)
        assert GapSet.of(()).runs == ()
        # ranges stay whole; overlapping and touching ones merge, empty ones drop out
        mixed = GapSet([range(3, 6), 6, 2, range(10, 10), range(8, 12), 9])
        assert mixed.runs == (range(2, 7), range(8, 12))

    def test_large_gaps_inert(self):
        # values at or beyond the word length are legal, they just never fire
        assert oracle.count_selections("abc", GapSet.of([5])) == 3
        assert oracle.enumerate_subwords("abc", [99]) == {"a", "b", "c"}

    def test_below(self):
        gs = GapSet([range(2, 5), 7, range(9, 10**18)])
        assert list(gs.below(8)) == [2, 3, 4, 7]
        assert list(gs.below(12)) == [2, 3, 4, 7, 9, 10, 11]
        assert list(gs.below(2)) == [] == list(GapSet(()).below(5))

    def test_wide_range_is_clipped_before_the_walk(self):
        # the walks visit gaps below the word length only, so this ends at once
        wide = range(1, 10**18)
        assert oracle.count_selections("abc", wide) == 7
        assert oracle.is_subword("ac", "abc", wide)
        assert not oracle.is_subword("ca", "abc", wide)


class TestOracle:
    def test_abcd_gap_1_3(self):
        expected = {"a", "ab", "abc", "abcd", "ad", "b", "bc", "bcd", "c", "cd", "d"}
        assert oracle.enumerate_subwords("abcd", {1, 3}) == expected
        assert oracle.count_selections("abcd", {1, 3}) == 11

    def test_abcdef_min_gap_2(self):
        expected = set(
            "a ac ad ae af ace acf adf b bd be bf bdf c ce cf d df e f".split()
        )
        assert oracle.enumerate_subwords("abcdef", {2, 3, 4, 5}) == expected
        assert oracle.count_selections("abcdef", {2, 3, 4, 5}) == 20

    def test_non_rainbow_distinct_strings(self):
        got = oracle.enumerate_subwords("aabbbaaa", range(3, 8))
        assert got == {"a", "b", "aa", "ab", "aba", "ba"}

    def test_empty_gap_set_gives_single_letters(self):
        for text in ["x", "abcde", "aaa"]:
            assert oracle.count_selections(text, ()) == len(text)

    def test_selection_order_is_depth_first(self):
        picked = list(oracle.iter_selections("abcd", {1, 3}))
        assert picked == [
            (1,), (1, 2), (1, 2, 3), (1, 2, 3, 4), (1, 4),
            (2,), (2, 3), (2, 3, 4), (3,), (3, 4), (4,),
        ]

    def test_long_selections(self):
        # one stack frame per position would pass the default recursion limit
        first = list(islice(oracle.iter_selections("x" * 1200, [1]), 1200))
        assert first[-1] == tuple(range(1, 1201))

    def test_is_subword(self):
        assert oracle.is_subword("ad", "abcd", {3})
        assert not oracle.is_subword("ad", "abcd", {1, 2})
        assert not oracle.is_subword("", "abcd", {1})
        assert oracle.is_subword("aba", "aabbbaaa", range(3, 8))

    def test_is_subword_long_candidate(self):
        # one stack frame per letter would pass the default recursion limit
        assert oracle.is_subword("ab" * 600, "ab" * 700, {1, 2})
        assert not oracle.is_subword("x" + "a" * 1200 + "c", "x" + "a" * 1200 + "b", {1})

    def test_occurrences_diverge_from_distinct_strings(self):
        # aaa with gap 1: selections a(x3), aa(x2), aaa but only 3 strings
        assert oracle.count_selections("aaa", {1}) == 6
        assert oracle.enumerate_subwords("aaa", {1}) == {"a", "aa", "aaa"}


class TestOracleProperties:
    def test_enumerate_count_agree_on_rainbow(self):
        # occurrences and distinct strings coincide when letters are distinct
        for n in range(1, 8):
            w = rainbow_word(n)
            for m in all_gap_sets(n):
                assert len(oracle.enumerate_subwords(w, m)) == oracle.count_selections(w, m)

    def test_monotone_in_gap_set(self):
        for n in range(1, 7):
            w = rainbow_word(n)
            sets = list(all_gap_sets(n))
            for small in sets:
                for large in sets:
                    if set(small) <= set(large):
                        assert oracle.count_selections(w, small) <= oracle.count_selections(
                            w, large
                        )

    def test_count_at_least_length(self):
        for text in ["a", "ab", "abcdef", "banana"]:
            n = len(text)
            for m in all_gap_sets(n):
                count = oracle.count_selections(text, m)
                assert count >= n
                if not any(g < n for g in m):
                    assert count == n

    def test_enumeration_closed_under_definition(self):
        for text, m in [("abcdef", (2, 3)), ("aabbbaaa", (3, 4, 5, 6, 7)), ("banana", (1, 4))]:
            for sub in oracle.enumerate_subwords(text, m):
                assert oracle.is_subword(sub, text, m)
