"""Every nontrivial gap-constrained subword: one listing walk and the set-valued Warshall pass.

`subword_text` lists the subwords of any word from a depth-first walk over
them, children in letter order, so the listing comes out sorted, a batch of
text at a time, with no global sort; `nontrivial_subwords` splits it. A
subword's state is the set of positions where its spellings end, kept per
start position (their union with dedup), so a string is listed once per
(start, end) pair, or once. The set-valued Warshall pass stays as the paper
artefact and the reference that `check` and the tests compare against.

In that pass, cell (i, j) holds the actual subwords that start at position
i and end at position j (always length >= 2). It is `counting.warshall`, the
pass that counts paths; joining through an intermediate position k
concatenates a left witness with a right witness whose first letter is
erased, so the shared letter at k is not doubled.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import reduce
from operator import or_

from gapwords.counting import gap_adjacency, warshall
from gapwords.words import GapSet, Word, as_word

SetMatrix = list[list[set[str]]]

# Subwords held at once by a listing: in stored runs, and again in one batch.
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


def subword_text(
    word: Word | str, gaps: GapSet | Iterable[int], dedup: bool = False, singles: bool = False
) -> tuple[int, str, Iterator[str]]:
    """The number of subwords, a line end, and nonempty sorted batches of lines joined by it.

    Without `singles` the lines are `nontrivial_subwords(word, gaps, dedup)`;
    with it, the length-1 subwords are merged in, one per letter position (one
    per letter with `dedup`). The number is known before the first batch. The
    line end is "\n", or for a word that contains "\n", the first character
    the word lacks; the batches joined by it are the whole listing.

    The batches come lazily, first letter by first letter in letter order,
    from a walk over the subwords, each followed by those that extend it by
    one gap, in letter order of their new last letter. A subword's state
    holds, for each start position that spells it, the bitmask of its end
    positions (with `dedup`, their union); it is listed once per (start, end)
    pair, or once. Each state's children and total are worked out once, before
    the first batch: one state per position on a rainbow word, many more on a
    long irregular one. Only a few subwords are held at a time.
    """
    text = as_word(word).text
    n = len(text)
    end = "\n" if "\n" not in text else min({*map(chr, range(n + 1))} - {*text})
    steps = list(GapSet.of(gaps).below(n))
    starts: dict[str, list[int]] = {}  # the positions of each letter, as bits
    for i, c in enumerate(text):
        starts.setdefault(c, []).append(1 << i)
    at = {c: sum(bits) for c, bits in starts.items()}
    letters = sorted(at)
    roots = [(c, (at[c],) if dedup else tuple(starts[c])) for c in letters]

    def weight(state: tuple[int, ...]) -> int:
        return 1 if dedup else sum(map(int.bit_count, state))

    # kids[state]: (letter, child state, its weight) in letter order;
    # total[state]: the lines it writes, with those of all its extensions
    kids: dict[tuple[int, ...], list] = {}
    total: dict[tuple[int, ...], int] = {}
    todo = [state for _, state in roots]
    while todo:
        state = todo[-1]
        if state in kids:
            total[todo.pop()] = weight(state) + sum(total[child] for _, child, _ in kids[state])
            continue
        reach = [reduce(or_, [m << g for g in steps], 0) for m in state]
        kids[state] = found = []
        for c in letters:
            child = tuple(filter(None, [r & at[c] for r in reach]))
            if child:
                found.append((c, child, weight(child)))
        todo += [child for _, child, _ in found if child not in kids]
    # States keep their sorted runs, smallest total first, as long as all of
    # them together hold at most `budget` subwords. A run is one text block,
    # the lines that follow the state's last letter joined by `end`; the walk
    # writes it under each prefix that reaches the state with one replace.
    budget = _BUDGET
    runs: dict[tuple[int, ...], str] = {}
    held = 0
    for state in sorted(total, key=total.__getitem__):
        held += total[state]
        if held > budget:
            break
        parts = [""] * weight(state) + [c + runs[child].replace(end, end + c) for c, child, _ in kids[state]]
        runs[state] = end.join(parts)

    def batches() -> Iterator[str]:
        for c, root in roots:
            out = [c] * weight(root) if singles else []
            lines = len(out)
            # Depth first, with each prefix beside the kids it has yet to visit.
            stack = [(c, iter(kids[root]))]
            while stack:
                prefix, rest = stack[-1]
                for letter, child, w in rest:
                    longer = prefix + letter
                    run = runs.get(child)
                    if run is not None:
                        out.append(longer + run.replace(end, end + longer))
                        lines += total[child]
                    else:
                        out += [longer] * w
                        lines += w
                        stack.append((longer, iter(kids[child])))
                        break
                else:
                    stack.pop()
                if lines >= budget:
                    yield end.join(out)
                    out, lines = [], 0
            if out:
                yield end.join(out)

    return sum(total[root] - (0 if singles else weight(root)) for _, root in roots), end, batches()


def nontrivial_subwords(word: Word | str, gaps: GapSet | Iterable[int], dedup: bool = False) -> list[str]:
    """Every subword of length >= 2, sorted lexicographically.

    On a non-rainbow word the same string can be spelled from several
    (start, end) position pairs, the cells of the Warshall pass; without
    dedup it is listed once per pair, with dedup once. Rainbow words are
    unaffected by the flag.
    """
    _, end, texts = subword_text(word, gaps, dedup)
    return [s for text in texts for s in text.split(end)]
