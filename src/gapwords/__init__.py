"""Scattered subwords with gap constraints.

Exact counting and enumeration of subwords whose consecutive letters sit at
distances taken from a prescribed gap set, for rainbow words (all letters
distinct) and beyond: one tail-count recurrence engine behind the counts and
the generating-function series, one Warshall-type pass that fills both the
path-count matrix and the matrix of subword sets, a depth-first walk that
lists the subwords of any word, closed-form binomial sums,
the paper's direct recurrence, and a naive brute-force oracle everything is
cross-checked against.
"""

from gapwords.counting import (
    HAS_COMPILED_KERNEL,
    add_identity,
    binomial,
    complexity,
    gap_adjacency,
    gap_range_upper_bound,
    min_gap_complexity,
    path_counts,
    prefix_gap_complexity,
    single_gap_complexity,
)
from gapwords.intervals import (
    CorrespondenceResult,
    check_correspondence,
    complexity_series,
    gap_pair_complexity,
    gap_range_complexity,
    series_terms,
    tail_count_series,
    tail_counts,
    tail_counts_simplified,
)
from gapwords.latin import initial_latin_matrix, nontrivial_subwords, subword_text, warshall_latin
from gapwords.words import GapSet, Word, rainbow_word

__version__ = "0.1.0"

__all__ = [
    "GapSet",
    "Word",
    "rainbow_word",
    "binomial",
    "gap_adjacency",
    "path_counts",
    "add_identity",
    "complexity",
    "min_gap_complexity",
    "prefix_gap_complexity",
    "single_gap_complexity",
    "gap_range_upper_bound",
    "initial_latin_matrix",
    "warshall_latin",
    "nontrivial_subwords",
    "subword_text",
    "tail_counts",
    "tail_counts_simplified",
    "gap_range_complexity",
    "series_terms",
    "tail_count_series",
    "complexity_series",
    "gap_pair_complexity",
    "check_correspondence",
    "CorrespondenceResult",
    "HAS_COMPILED_KERNEL",
    "__version__",
]
