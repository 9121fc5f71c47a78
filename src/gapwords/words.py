"""Core types for scattered subwords with gap constraints.

A scattered subword picks letters at strictly increasing positions of a word;
here the difference between consecutive chosen positions must come from a
fixed set of allowed gaps. Positions are 1-based throughout, matching the
usual convention in combinatorics on words.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain

ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


class _Value:
    """An immutable value in one slot, with the equality, hash and repr of a frozen dataclass.

    Equal values reduce to the same constructor call; copies and pickles make
    that call, so they validate again.
    """

    __slots__ = ()

    def __reduce__(self):
        return self.__class__, (getattr(self, self.__slots__[0]),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__reduce__() == other.__reduce__()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        name = self.__slots__[0]
        return f"{self.__class__.__qualname__}({name}={getattr(self, name)!r})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class Word(_Value):
    """A nonempty word; letters are opaque, case-sensitive characters."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        if not isinstance(text, str):
            raise TypeError(f"word must be a string, got {type(text).__name__}")
        if not text:
            raise ValueError("word must be nonempty")
        object.__setattr__(self, "text", text)

    def __len__(self) -> int:
        return len(self.text)


def as_word(value: Word | str) -> Word:
    return value if isinstance(value, Word) else Word(value)


def rainbow_word(n: int) -> Word:
    """A canonical rainbow word of length n (letters a, b, c, ...)."""
    if not 1 <= n <= len(ALPHABET):
        raise ValueError(f"canonical rainbow words need 1 <= n <= {len(ALPHABET)}, got {n}")
    return Word(ALPHABET[:n])


class GapSet(_Value):
    """The allowed distances between consecutive chosen positions.

    Canonical form: the maximal runs, ascending step-1 ranges of values >= 1.
    The constructor takes ints and step-1 ranges and never expands a range.
    The set may be empty, in which case only single-letter subwords exist.
    Values at or above the word length are legal and simply never usable, so
    one GapSet can serve words of any length.
    """

    __slots__ = ("runs",)

    def __init__(self, gaps: Iterable[int | range] = ()) -> None:
        spans = []
        for g in gaps:
            if isinstance(g, range) and g.step == 1 and g.start >= 1:
                spans.append(g)
            elif isinstance(g, int) and not isinstance(g, bool) and g >= 1:
                spans.append(range(g, g + 1))
            else:
                raise ValueError(f"gaps must be integers >= 1 or step-1 ranges of them, got {g!r}")
        runs: list[range] = []
        for r in sorted(filter(None, spans), key=lambda r: r.start):
            if runs and r.start <= runs[-1].stop:
                runs[-1] = range(runs[-1].start, max(runs[-1].stop, r.stop))
            else:
                runs.append(r)
        object.__setattr__(self, "runs", tuple(runs))

    @classmethod
    def of(cls, value: GapSet | Iterable[int]) -> GapSet:
        if isinstance(value, GapSet):
            return value
        return cls([value] if isinstance(value, range) and value.step == 1 else value)

    def __iter__(self):
        return chain.from_iterable(self.runs)

    def __len__(self) -> int:
        return sum(map(len, self.runs))

    def below(self, n: int) -> Iterator[int]:
        """The gaps below n, the ones a word of length n can use; larger ones are never visited."""
        return chain.from_iterable(range(r.start, min(r.stop, n)) for r in self.runs)

    def bounds_if_contiguous(self) -> tuple[int, int] | None:
        """(lo, hi) when the gaps form the full run lo..hi, else None."""
        return (self.runs[0].start, self.runs[0][-1]) if len(self.runs) == 1 else None
