"""Every nontrivial gap-constrained subword: a walk for rainbow words and the set-valued Warshall pass.

On a rainbow word every subword has one position path, so the subwords that
start at position i are i itself followed by those that start at i + g, for
each usable gap g. `subword_runs` walks these trees depth first, children in
letter order, and writes the listing already sorted, a batch at a time, with
no sets and no global sort. Other words go through the set-valued Warshall
pass, which `check` also runs on rainbow words as the paper artefact and an
independent check.

In that pass, cell (i, j) holds the actual subwords that start at position
i and end at position j (always length >= 2). It is `counting.warshall`, the
pass that counts paths; joining through an intermediate position k
concatenates a left witness with a right witness whose first letter is
erased, so the shared letter at k is not doubled.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain

from gapwords.counting import _tail_counts, gap_adjacency, warshall
from gapwords.words import GapSet, Word, as_word

SetMatrix = list[list[set[str]]]

# Subwords held at once by a rainbow listing: in stored runs, and again in one batch.
_BUDGET = 4096


def initial_latin_matrix(word: Word | str, gaps: GapSet | Iterable[int]) -> SetMatrix:
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
    word: Word | str,
    gaps: GapSet | Iterable[int],
    dedup: bool = False,
    singles: bool = False,
) -> tuple[int, Iterator[list[str]]]:
    """The number of subwords and sorted batches whose concatenation lists them.

    Without `singles` the listing is `nontrivial_subwords(word, gaps, dedup)`;
    with it, the length-1 subwords are merged in, one per letter position (one
    per letter with `dedup`). The number is known before the first batch.

    On a rainbow word the batches come lazily, start by start in letter order
    of the start, from a walk over the subwords that start there. The subword
    ending at position i is followed by those that extend it by one gap, in
    letter order of their new last position. Only a few subwords are held at a
    time. Other words give one batch, listed from the set-valued Warshall cells.
    """
    w = as_word(word)
    if w.is_rainbow:
        return _rainbow_runs(w.text, GapSet.of(gaps), singles)
    final = warshall_latin(initial_latin_matrix(w, gaps))
    found = [s for row in final for cell in row for s in cell]
    if singles:
        found += w.text
    listing = sorted(set(found)) if dedup else sorted(found)
    return len(listing), iter([listing])


def _rainbow_runs(text: str, gs: GapSet, singles: bool) -> tuple[int, Iterator[list[str]]]:
    n = len(text)
    steps = [g for g in gs if g < n]
    # kids[i]: the positions one gap after i, in letter order
    kids = [sorted((i + g for g in steps if i + g < n), key=text.__getitem__) for i in range(n)]
    # sizes[i]: the number of subwords that start at position i, itself included;
    # read backwards, as many end at position n - i, the engine's tail count
    sizes = list(_tail_counts(n, gs.runs()))[::-1]
    # Positions from `stored` on keep their sorted runs, built from the right
    # as long as all of them together hold at most `budget` subwords; the walk
    # writes such a run in bulk under each prefix that reaches it.
    budget = _BUDGET
    stored, held = n, 0
    while stored and held + sizes[stored - 1] <= budget:
        stored -= 1
        held += sizes[stored]
    runs: list[list[str]] = [[] for _ in range(n)]
    for i in range(n - 1, stored - 1, -1):
        c = text[i]
        runs[i].append(c)
        for k in kids[i]:
            runs[i] += map(c.__add__, runs[k])

    def batches() -> Iterator[list[str]]:
        for i in sorted(range(n), key=text.__getitem__):
            out = [text[i]] if singles else []
            # Depth first, with each prefix beside the kids it has yet to visit.
            stack = [(text[i], iter(kids[i]))]
            while stack:
                prefix, rest = stack[-1]
                for k in rest:
                    if k >= stored:
                        out += map(prefix.__add__, runs[k])
                    else:
                        longer = prefix + text[k]
                        out.append(longer)
                        stack.append((longer, iter(kids[k])))
                        break
                else:
                    stack.pop()
                if len(out) >= budget:
                    yield out
                    out = []
            yield out

    return sum(sizes) - (0 if singles else n), batches()


def nontrivial_subwords(
    word: Word | str,
    gaps: GapSet | Iterable[int],
    dedup: bool = False,
) -> list[str]:
    """Every subword of length >= 2, sorted lexicographically.

    On a non-rainbow word the same string can appear in several start/end
    cells of the Warshall pass; without dedup it is listed once per cell,
    with dedup identical strings are merged. Rainbow words are unaffected by
    the flag.
    """
    return list(chain.from_iterable(subword_runs(word, gaps, dedup)[1]))
