"""Recurrences and series for contiguous gap ranges {d1, ..., d2}.

Per-position tail counts satisfy a short linear recurrence, their prefix sums
give the complexity, and both sequences are coefficient streams of rational
generating functions. The three-term recurrence, `gap_range_complexity` and
the series are read from `counting._tail_counts`, the engine behind
`counting.complexity`. `series_terms` streams the series lazily, in exact
integers or, for printing, exact decimals; the list forms return ints.
`tail_counts` keeps the paper's direct recurrence as the independent check.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import accumulate

from gapwords.counting import (
    _check_gap,
    _check_length,
    _check_span,
    _is_int,
    _tail_counts,
    binomial,
    min_gap_complexity,
)


CorrespondenceResult = namedtuple("CorrespondenceResult", "pair_count min_gap_count matches")
CorrespondenceResult.__doc__ = """Both sides of the {1, d} versus min-gap-d correspondence.

pair_count counts the subwords of a length-n word with every gap 1 or d,
min_gap_count the length >= 2 subwords of a length n+d word with gaps >= d.
"""


def tail_counts(n: int, d1: int, d2: int) -> list[int]:
    """Counts of subwords ending at positions 1..n, by the direct recurrence.

    a[i] = 1 + a[i-d1] + a[i-d1-1] + ... + a[i-d2], with a[i] = 0 for i <= 0;
    the leading 1 counts the single letter at position i.
    """
    _check_length(n)
    _check_span(d1, d2)
    a = [0] * (n + 1)
    for i in range(1, n + 1):
        total = 1
        for g in range(d1, min(d2, i - 1) + 1):
            total += a[i - g]
        a[i] = total
    return a[1:]


def tail_counts_simplified(n: int, d1: int, d2: int) -> list[int]:
    """Same sequence via the three-term form a[i] = a[i-1] + a[i-d1] - a[i-1-d2].

    The one run d1..d2 telescopes to its two ends, so this is
    `counting._tail_counts` on that run; out-of-range indices count as zero.
    """
    _check_length(n)
    _check_span(d1, d2)
    return list(_tail_counts(n, [range(d1, d2 + 1)]))


def gap_range_complexity(n: int, d1: int, d2: int) -> int:
    """Exact complexity for the gap range {d1, ..., d2}: the sum of all tail counts.

    The tail counts come from the three-term form, as in
    `tail_counts_simplified`, in O(n) additions whatever the width of the
    range. Gap values at or beyond n contribute nothing, so d2 may exceed n - 1.
    """
    _check_length(n)
    _check_span(d1, d2)
    return sum(_tail_counts(n, [range(d1, d2 + 1)]))


def series_terms(which: str, d1: int, d2: int, count: int, one=1) -> Iterator:
    """Coefficients 1..count of the tail series ("a") or the complexity series ("K").

    The arguments are checked before the first term, and the terms are then
    produced one at a time, in the arithmetic of `one` (the int 1 or
    `Decimal(1)`) as for `counting._tail_counts`: the series of a is
    z / (z^(d2+1) - z^d1 - z + 1) and the series of K is that divided by
    1 - z, its running sums. A `Decimal` one needs an active context that
    traps `Inexact`, so that a term too long for its precision raises
    instead of rounding; draw the terms in that context too.
    """
    _check_span(d1, d2)
    if not _is_int(count) or count < 1:
        raise ValueError(f"need count >= 1, got {count!r}")
    if which not in ("a", "K"):
        raise ValueError(f"which must be 'a' or 'K', got {which!r}")
    if not (_is_int(one) and one == 1):
        import decimal
        if not isinstance(one, decimal.Decimal) or str(one) != "1":
            raise ValueError(f"one must be the int 1 or Decimal(1), got {one!r}")
        if not decimal.getcontext().traps[decimal.Inexact]:
            raise ValueError("exact decimal terms need a context that traps Inexact")
    terms = _tail_counts(count, [range(d1, d2 + 1)], one)
    return terms if which == "a" else accumulate(terms)


def tail_count_series(d1: int, d2: int, count: int) -> list[int]:
    """Coefficients 0..count of z / (z^(d2+1) - z^d1 - z + 1).

    The denominator is (1 - z)(1 - z^d1 - ... - z^d2), so coefficient i is
    the tail count at position i from the three-term recurrence, and
    coefficient 0 is always 0 because the numerator is z.
    """
    return [0, *series_terms("a", d1, d2, count)]


def complexity_series(d1: int, d2: int, count: int) -> list[int]:
    """Coefficients 0..count of the complexity series: running sums of the tail series.

    Equivalent to dividing the tail series by 1 - z.
    """
    return [0, *series_terms("K", d1, d2, count)]


def gap_pair_complexity(n: int, d: int) -> int:
    """Binomial-sum count for the two-gap set {1, d}: sum of C(n+1-(d-1)k, k+2).

    Needs d >= 2; with d = 1 the set collapses to {1} and the sum counts
    something else.
    """
    _check_length(n)
    _check_gap(d)
    if d < 2:
        raise ValueError(f"the pair formula needs d >= 2, got {d}")
    return _pair_sum(n, d)


def check_correspondence(n: int, d: int) -> CorrespondenceResult:
    """Compare the {1, d} count for length n against the nontrivial min-gap-d count for length n + d.

    The two binomial sums are reindexings of each other (shift k by one), so
    matches should always come back True; both values are returned so the
    check stays honest.
    """
    _check_length(n)
    _check_gap(d)
    pair = _pair_sum(n, d)
    tail = min_gap_complexity(n + d, d) - (n + d)
    return CorrespondenceResult(pair, tail, pair == tail)


def _pair_sum(n: int, d: int) -> int:
    return sum(binomial(n + 1 - (d - 1) * k, k + 2) for k in range((n - 1) // d + 1))
