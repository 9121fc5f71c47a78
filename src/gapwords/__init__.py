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

__version__ = "0.1.0"

# The public names of each module. A name loads its module on first use (PEP
# 562), so a CLI run imports only the modules that its command runs.
_HOMES = {
    name: module
    for module, names in {
        "words": "GapSet Word rainbow_word",
        "counting": "binomial gap_adjacency path_counts add_identity complexity min_gap_complexity"
        " prefix_gap_complexity single_gap_complexity gap_range_upper_bound HAS_COMPILED_KERNEL",
        "latin": "initial_latin_matrix warshall_latin nontrivial_subwords subword_text",
        "intervals": "tail_counts tail_counts_simplified gap_range_complexity series_terms"
        " tail_count_series complexity_series gap_pair_complexity check_correspondence"
        " CorrespondenceResult",
    }.items()
    for name in names.split()
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = __import__(f"{__name__}.{_HOMES[name]}", fromlist=[name])
    value = globals()[name] = getattr(home, name)
    return value
