"""Set-valued Warshall pass that lists every nontrivial gap-constrained subword.

Instead of path counts, cell (i, j) holds the actual subwords that start at
position i and end at position j (always length >= 2). The pass is
`counting.warshall`, the one that counts paths; joining through an
intermediate position k concatenates a left witness with a right witness
whose first letter is erased, so the shared letter at k is not doubled.
"""

from __future__ import annotations

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


def nontrivial_subwords(
    word: Union[Word, str],
    gaps: Union[GapSet, Iterable[int]],
    dedup: bool = False,
) -> list[str]:
    """Every subword of length >= 2, sorted lexicographically.

    Cells never hold internal duplicates, but on a non-rainbow word the same
    string can appear in several start/end cells; without dedup it is listed
    once per cell, with dedup identical strings are merged. Rainbow words are
    unaffected by the flag.
    """
    final = warshall_latin(initial_latin_matrix(word, gaps))
    found = [s for row in final for cell in row for s in cell]
    if dedup:
        return sorted(set(found))
    return sorted(found)
