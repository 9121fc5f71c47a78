"""Tail-count engine, path-count matrix and closed forms for rainbow-word subword complexity.

The number of gap-constrained subwords of a rainbow word depends only on the
word length and the gap set, so everything here works on the length alone.
Vertices 1..n with an edge i -> j whenever j - i is an allowed gap form a DAG;
subwords of length >= 2 correspond to directed paths, and the total count is
obtained by summing a path-count matrix. That matrix is Toeplitz (the number
of paths from i to j depends only on j - i), so `complexity` sums it from the
tail counts of `_tail_counts`, which keeps only the last few of them, as
far back as the ends of the gap runs read. The range count and the series in `intervals` read the same
engine, the series in exact decimals when the CLI prints them. `path_counts`
builds the matrix in full for any DAG by `warshall`, the one pass that
`latin` also runs on subword sets. Results are exact Python integers.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from math import comb

from gapwords.words import GapSet

# Only the pure-Python kernel exists; the flag stays public for callers that
# report which kernel is active.
HAS_COMPILED_KERNEL = False

GapsLike = GapSet | Iterable[int]
Matrix = list[list[int]]


def binomial(n: int, k: int) -> int:
    """C(n, k), zero outside 0 <= k <= n so the finite sums below just run out."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def gap_adjacency(n: int, gaps: GapsLike) -> Matrix:
    """0/1 matrix with a 1 at (i, j) exactly when j - i is an allowed gap.

    Strictly upper triangular since gaps are positive; gap values beyond
    n - 1 contribute nothing.
    """
    _check_length(n)
    allowed = set(GapSet.of(gaps).below(n))
    return [[1 if (j - i) in allowed else 0 for j in range(n)] for i in range(n)]


def path_counts(matrix: Matrix) -> Matrix:
    """Counts of directed paths of length >= 1 between all vertex pairs.

    Input must be a strictly upper triangular adjacency of int 0s and 1s (a
    DAG whose topological order is the index order); anything else raises
    ValueError.
    Equivalent to summing all positive powers of the adjacency matrix, but
    computed in one pass of `warshall`.
    """
    for row in matrix:
        for v in row:
            if not _is_int(v) or v not in (0, 1):
                raise ValueError(f"adjacency entries must be 0 or 1, got {v!r}")
    return _path_count_kernel(matrix)


def add_identity(matrix: Matrix) -> Matrix:
    """A fresh copy of the matrix with 1 added along the diagonal."""
    out = [list(row) for row in matrix]
    for i in range(len(out)):
        out[i][i] += 1
    return out


def complexity(n: int, gaps: GapsLike) -> int:
    """Number of gap-constrained subwords of a rainbow word of length n.

    Works for any gap set: the sum of every entry of I + W, where W holds the
    path counts of the gap graph and the identity accounts for the n single
    letters. The entry at (i, i + d) depends only on d, so column j of the
    matrix sums to the number a[j] of subwords ending at position j, and the
    count is a[1] + ... + a[n] from `_tail_counts`; no matrix is built.
    `path_counts(gap_adjacency(n, gaps))` is the matrix route to the same value.
    """
    _check_length(n)
    return sum(_tail_counts(n, GapSet.of(gaps).runs))


def _tail_counts(n: int, runs: Iterable[range], one=1) -> Iterator:
    """Subwords ending at positions 1..n for the gap set with these maximal runs.

    The runs are ascending step-1 ranges, as in `GapSet.runs`; only their ends are read.

    a[i] = 1 + sum of a[i - g] over allowed g < i, with a[0] = 0: the single
    letter at i, or a subword ending at i - g extended by gap g. Subtracting
    the same sum for a[i - 1] leaves, for each run lo..hi, only its two ends,
    a[i] = a[i - 1] + sum over runs of (a[i - lo] - a[i - hi - 1]) with
    out-of-range indices read as a[0]. That is O(n * runs) big-integer
    additions; the series of a is z / ((1 - z)(1 - sum of z^g)). Gaps beyond
    n - 1 are never usable, and the one run that reaches n - 1 (the last) has
    a far end a[i - hi - 1] = a[0] at every i <= n, so only its near end is
    read. A ring holds the last values the ends read, as many as the largest
    of them is far back: a[i] sits in slot i % size, and each slot is read
    before it is overwritten. Slots not yet written read as a[0] = 0.

    The type of `one` sets the arithmetic: plain ints by default, or an exact
    `decimal.Decimal(1)` for callers that print every term, since Decimal
    renders in linear time where int-to-str is quadratic.
    """
    ends = [(r.start, r.stop) for r in runs if r.stop < n]
    near = [r.start for r in runs if r.start < n <= r.stop]  # of the run that reaches n - 1
    size = max([stop for _, stop in ends] + near, default=1)
    ring = [one - one] * size
    v = one
    # Up to its near end `top`, the run that reaches n - 1 adds nothing, so a
    # gap set without one runs only the first loop. Past it, every other run
    # is past its near end too, and that run adds one term.
    top = near[0] if near else n
    for i in range(1, top + 1):
        for lo, stop in ends:
            if lo >= i:
                break
            v += ring[(i - lo) % size] - ring[(i - stop) % size]
        ring[i % size] = v
        yield v
    for i in range(top + 1, n + 1):
        for lo, stop in ends:
            v += ring[(i - lo) % size] - ring[(i - stop) % size]
        v += ring[(i - top) % size]
        ring[i % size] = v
        yield v


def min_gap_complexity(n: int, d: int) -> int:
    """Closed form for the gap set {d, d+1, ..., n-1}: all gaps of length at least d.

    Evaluates the binomial sum over k >= 0 of C(n - (d-1)k, k+1); for d >= n
    the gap set is empty and the value is n.
    """
    _check_length(n)
    _check_gap(d)
    return sum(binomial(n - (d - 1) * k, k + 1) for k in range((n - 1) // d + 1))


def prefix_gap_complexity(n: int, d: int) -> int:
    """Closed form 2^n - (d-2)*2^(d-1) - 2 for the gap set {1, 2, ..., n-d}.

    Only valid for n >= 2d - 2; outside that range the formula is not
    asserted and ValueError is raised. With d = 1 every gap is allowed and
    the value is 2^n - 1, all nonempty subsequences.
    """
    _check_length(n)
    _check_gap(d)
    if n < 2 * d - 2:
        raise ValueError(f"closed form needs n >= 2d-2, got n={n}, d={d}")
    return 2**n - (d - 2) * 2 ** (d - 1) - 2


def single_gap_complexity(n: int, d: int) -> int:
    """Closed form (h+1)(n+m)/2 for the one-gap set {d}, where n = h*d + m, 0 <= m < d."""
    _check_length(n)
    _check_gap(d)
    h, m = divmod(n, d)
    return (h + 1) * (n + m) // 2


def gap_range_upper_bound(n: int, d1: int, d2: int) -> int:
    """Upper bound for the contiguous gap range {d1, ..., d2}.

    The min-gap-d1 count minus the min-gap-(d2+1) count, plus the n single
    letters both of them include. Not tight in general: a subword may mix gaps
    inside and outside the range and then survives the subtraction.
    """
    _check_length(n)
    _check_span(d1, d2)
    return n + min_gap_complexity(n, d1) - min_gap_complexity(n, d2 + 1)


def _check_length(n: int) -> None:
    if not _is_int(n) or n < 1:
        raise ValueError(f"word length must be an integer >= 1, got {n!r}")


def _check_gap(d: int) -> None:
    if not _is_int(d) or d < 1:
        raise ValueError(f"gap must be an integer >= 1, got {d!r}")


def _check_span(d1: int, d2: int) -> None:
    if not (_is_int(d1) and _is_int(d2)) or d1 < 1 or d2 < d1:
        raise ValueError(f"need 1 <= d1 <= d2, got d1={d1!r}, d2={d2!r}")


def _is_int(v) -> bool:
    """An int that is not a bool, as `GapSet` takes: a float would turn exact counts into floats."""
    return isinstance(v, int) and not isinstance(v, bool)


def _path_count_kernel(rows):
    """Path counts by `warshall`: w[i][j] += w[i][k] * w[k][j] over growing k.

    Returns fresh lists. It is a function of its own only as the seam that the
    benchmark tracer patches to time the pass apart from the input check.
    """
    return warshall([list(row) for row in rows], lambda cell, left, right: cell + left * right)


def warshall(cells: list[list], extend: Callable) -> list[list]:
    """The paper's Warshall-type pass over a DAG in index order, in place.

    cells must be square and empty (falsy) on and below the diagonal, or
    ValueError is raised. For k = 0, 1, ... and every i < k < j with cells
    (i, k) and (k, j) both nonempty, cell (i, j) becomes
    extend(cell, left, right). Cells (i, k) and (k, j) are never written
    while k is the join point, so one sweep reaches the fixpoint: every path
    i -> j with an intermediate vertex is joined exactly once, at its last
    one. Returns cells.
    """
    n = len(cells)
    for i, row in enumerate(cells):
        if len(row) != n:
            raise ValueError("matrix must be square")
        if any(row[: i + 1]):
            raise ValueError("cells on and below the diagonal must be empty")
    for k in range(n):
        wk = cells[k]
        for i in range(k):
            wi = cells[i]
            left = wi[k]
            if left:
                for j in range(k + 1, n):
                    right = wk[j]
                    if right:
                        wi[j] = extend(wi[j], left, right)
    return cells
