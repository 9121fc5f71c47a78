"""Every nontrivial gap-constrained subword: per-start runs and the set-valued Warshall pass.

On a rainbow word every subword has one position path, so the subwords that
start at position i follow from those that start at i + g, one pass from the
right: `subword_runs` lists them already sorted, with no sets and no global
sort. Other words go through the set-valued Warshall pass, which `check`
also runs on rainbow words as the paper artefact and an independent check.

In that pass, cell (i, j) holds the actual subwords that start at position
i and end at position j (always length >= 2). It is `counting.warshall`, the
pass that counts paths; joining through an intermediate position k
concatenates a left witness with a right witness whose first letter is
erased, so the shared letter at k is not doubled.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Union

from gapwords.counting import gap_adjacency, warshall
from gapwords.words import GapSet, Word, as_word

SetMatrix = list[list[set[str]]]


def initial_latin_matrix(word: Union[Word, str], gaps: Union[GapSet, Iterable[int]]) -> SetMatrix:
    """Seed matrix: cell (i, j) is {letter_i + letter_j} where the gap graph has edge i -> j."""
    text = as_word(word).text
    return [
        [{text[i] + text[j]} if edge else set() for j, edge in enumerate(row)]
        for i, row in enumerate(gap_adjacency(len(text), gaps))
    ]


def warshall_latin(matrix: SetMatrix) -> SetMatrix:
    """Grow the seed matrix to a fixpoint; input cells are copied, not mutated.

    After the pass, cell (i, j) holds every subword that starts at position i
    and ends at position j. Raises ValueError unless the matrix is square with
    empty cells on and below the diagonal.
    """
    return warshall([[set(cell) for cell in row] for row in matrix], _concat)


def _concat(cell: set[str], left: set[str], right: set[str]) -> set[str]:
    cell.update(a + b[1:] for a in left for b in right)
    return cell


def subword_runs(
    word: Union[Word, str],
    gaps: Union[GapSet, Iterable[int]],
    dedup: bool = False,
) -> list[list[str]]:
    """Sorted lists whose concatenation is `nontrivial_subwords(word, gaps, dedup)`.

    On a rainbow word there is one run per start position, in letter order
    of the start: run(i) is letter_i followed by letter_i + run(i + g) for
    each usable gap g, taken in letter order of position i + g, with the
    leading single letter dropped at the end. Other words give one run,
    listed from the set-valued Warshall cells.
    """
    w = as_word(word)
    if not w.is_rainbow:
        final = warshall_latin(initial_latin_matrix(w, gaps))
        found = [s for row in final for cell in row for s in cell]
        return [sorted(set(found)) if dedup else sorted(found)]
    text = w.text
    n = len(text)
    steps = [g for g in GapSet.of(gaps) if g < n]
    runs: list[list[str]] = [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):
        c = text[i]
        out = runs[i]
        out.append(c)
        for j in sorted((i + g for g in steps if i + g < n), key=text.__getitem__):
            out += map(c.__add__, runs[j])
    for run in runs:
        del run[0]
    return [runs[i] for i in sorted(range(n), key=text.__getitem__)]


def nontrivial_subwords(
    word: Union[Word, str],
    gaps: Union[GapSet, Iterable[int]],
    dedup: bool = False,
) -> list[str]:
    """Every subword of length >= 2, sorted lexicographically.

    On a non-rainbow word the same string can appear in several start/end
    cells of the Warshall pass; without dedup it is listed once per cell,
    with dedup identical strings are merged. Rainbow words are unaffected by
    the flag.
    """
    return list(chain.from_iterable(subword_runs(word, gaps, dedup)))
