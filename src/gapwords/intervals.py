"""Recurrences and series for contiguous gap ranges {d1, ..., d2}.

Per-position tail counts satisfy a short linear recurrence, their prefix sums
give the complexity, and both sequences are coefficient streams of rational
generating functions. The series and the three-term recurrence are read from
`counting._tail_counts`, the engine behind `counting.complexity`, in exact
integer arithmetic. `tail_counts` keeps the paper's direct recurrence as the
independent route that `gap_range_complexity` sums.
"""

from __future__ import annotations

from typing import NamedTuple

from gapwords.counting import _check_gap, _check_length, _tail_counts, binomial, min_gap_complexity


class CorrespondenceResult(NamedTuple):
    """Both sides of the {1, d} versus min-gap-d correspondence."""

    pair_count: int  # subwords of a length-n word with every gap 1 or d
    min_gap_count: int  # length >= 2 subwords of a length n+d word with gaps >= d
    matches: bool


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
    return _tail_counts(n, [(d1, d2)])


def gap_range_complexity(n: int, d1: int, d2: int) -> int:
    """Exact complexity for the gap range {d1, ..., d2}: the sum of all tail counts.

    Gap values at or beyond n contribute nothing, so d2 may exceed n - 1.
    """
    return sum(tail_counts(n, d1, d2))


def tail_count_series(d1: int, d2: int, count: int) -> list[int]:
    """Coefficients 0..count of z / (z^(d2+1) - z^d1 - z + 1).

    The denominator is (1 - z)(1 - z^d1 - ... - z^d2), so coefficient i is
    the tail count at position i from the three-term recurrence, and
    coefficient 0 is always 0 because the numerator is z.
    """
    _check_span(d1, d2)
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    return [0] + _tail_counts(count, [(d1, d2)])


def complexity_series(d1: int, d2: int, count: int) -> list[int]:
    """Coefficients 0..count of the complexity series: running sums of the tail series.

    Equivalent to dividing the tail series by 1 - z.
    """
    a = tail_count_series(d1, d2, count)
    out = [0] * (count + 1)
    for i in range(1, count + 1):
        out[i] = out[i - 1] + a[i]
    return out


def gap_pair_complexity(n: int, d: int) -> int:
    """Binomial-sum count for the two-gap set {1, d}: sum of C(n+1-(d-1)k, k+2).

    Needs d >= 2; with d = 1 the set collapses to {1} and the sum counts
    something else.
    """
    _check_length(n)
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


def _check_span(d1: int, d2: int) -> None:
    if d1 < 1 or d2 < d1:
        raise ValueError(f"need 1 <= d1 <= d2, got d1={d1}, d2={d2}")
