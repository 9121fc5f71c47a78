"""Core types for scattered subwords with gap constraints.

A scattered subword picks letters at strictly increasing positions of a word;
here the difference between consecutive chosen positions must come from a
fixed set of allowed gaps. Positions are 1-based throughout, matching the
usual convention in combinatorics on words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


@dataclass(frozen=True)
class Word:
    """A nonempty word; letters are opaque, case-sensitive characters."""

    text: str

    def __post_init__(self) -> None:
        if not isinstance(self.text, str):
            raise TypeError(f"word must be a string, got {type(self.text).__name__}")
        if not self.text:
            raise ValueError("word must be nonempty")

    def __len__(self) -> int:
        return len(self.text)

    @property
    def is_rainbow(self) -> bool:
        """True when all letters are pairwise distinct."""
        return len(set(self.text)) == len(self.text)


def as_word(value: Union[Word, str]) -> Word:
    return value if isinstance(value, Word) else Word(value)


def rainbow_word(n: int) -> Word:
    """A canonical rainbow word of length n (letters a, b, c, ...)."""
    if not 1 <= n <= len(ALPHABET):
        raise ValueError(f"canonical rainbow words need 1 <= n <= {len(ALPHABET)}, got {n}")
    return Word(ALPHABET[:n])


@dataclass(frozen=True)
class GapSet:
    """The allowed distances between consecutive chosen positions.

    Canonical form: sorted, deduplicated, every value >= 1. The set may be
    empty, in which case only single-letter subwords exist. Values at or
    above the word length are legal and simply never usable, so one GapSet
    can serve words of any length.
    """

    gaps: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        canon = tuple(sorted(set(self.gaps)))
        for g in canon:
            if not isinstance(g, int) or isinstance(g, bool) or g < 1:
                raise ValueError(f"gaps must be integers >= 1, got {g!r}")
        object.__setattr__(self, "gaps", canon)

    @classmethod
    def of(cls, value: Union["GapSet", Iterable[int]]) -> "GapSet":
        if isinstance(value, GapSet):
            return value
        return cls(tuple(value))

    def __iter__(self):
        return iter(self.gaps)

    def __len__(self) -> int:
        return len(self.gaps)

    def runs(self) -> list[tuple[int, int]]:
        """Maximal runs lo..hi of consecutive gaps, in ascending order."""
        out: list[tuple[int, int]] = []
        for g in self.gaps:
            if out and out[-1][1] == g - 1:
                out[-1] = (out[-1][0], g)
            else:
                out.append((g, g))
        return out

    def bounds_if_contiguous(self) -> tuple[int, int] | None:
        """(lo, hi) when the gaps form the full run lo..hi, else None."""
        runs = self.runs()
        return runs[0] if len(runs) == 1 else None


@dataclass(frozen=True)
class IndexSelection:
    """Strictly increasing 1-based positions selecting one scattered subword."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.indices:
            raise ValueError("a selection must pick at least one position")
        prev = 0
        for i in self.indices:
            if not isinstance(i, int) or isinstance(i, bool) or i < 1:
                raise ValueError(f"positions must be integers >= 1, got {i!r}")
            if i <= prev:
                raise ValueError("positions must be strictly increasing")
            prev = i

    def extract(self, word: Union[Word, str]) -> str:
        """The subword this selection picks out of the given word."""
        w = as_word(word)
        if self.indices[-1] > len(w):
            raise ValueError("selection reaches past the end of the word")
        return "".join(w.text[i - 1] for i in self.indices)
