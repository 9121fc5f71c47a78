"""Brute-force reference for gap-constrained subwords.

Everything here walks position selections one at a time, which is exponential
on purpose: these functions are the independent oracle that the matrix engine,
the closed forms and the recurrences are tested against. They stay naive and
share no code with those implementations.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from gapwords.words import GapSet, Word, as_word

WordLike = Word | str
GapsLike = GapSet | Iterable[int]


def iter_selections(word: WordLike, gaps: GapsLike) -> Iterator[tuple[int, ...]]:
    """Yield each selection as a tuple of strictly increasing 1-based positions.

    Depth-first over start positions, then gap choices, in ascending order;
    each selection comes before its extensions. The walk keeps an explicit
    stack of position tuples, so selections of any length work.
    """
    n = len(as_word(word))
    steps = list(GapSet.of(gaps).below(n))
    stack = [(start,) for start in range(n, 0, -1)]
    while stack:
        chosen = stack.pop()
        yield chosen
        last = chosen[-1]
        for g in reversed(steps):
            if last + g <= n:
                stack.append(chosen + (last + g,))


def enumerate_subwords(word: WordLike, gaps: GapsLike) -> set[str]:
    """All distinct subwords reachable with the allowed gaps (length >= 1)."""
    text = as_word(word).text
    return {"".join(text[i - 1] for i in chosen) for chosen in iter_selections(text, gaps)}


def count_selections(word: WordLike, gaps: GapsLike) -> int:
    """Number of valid position selections (occurrences, not distinct strings).

    On a rainbow word every selection extracts a different string, so this
    also equals the number of distinct subwords.
    """
    return sum(1 for _ in iter_selections(word, gaps))


def is_subword(candidate: str, word: WordLike, gaps: GapsLike) -> bool:
    """Scan the word for the candidate as a gap-constrained selection.

    Depth-first over (position, letters matched) pairs in ascending order of
    start and gap, with an explicit stack so candidates of any length work;
    no state is memoised.
    """
    if not candidate:
        return False
    text = as_word(word).text
    n = len(text)
    steps = list(GapSet.of(gaps).below(n))
    stack = [(start, 1) for start in range(n, 0, -1) if text[start - 1] == candidate[0]]
    while stack:
        pos, matched = stack.pop()
        if matched == len(candidate):
            return True
        for g in reversed(steps):
            nxt = pos + g
            if nxt <= n and text[nxt - 1] == candidate[matched]:
                stack.append((nxt, matched + 1))
    return False
