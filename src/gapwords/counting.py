"""Matrix engine and closed forms for rainbow-word subword complexity.

The number of gap-constrained subwords of a rainbow word depends only on the
word length and the gap set, so everything here works on the length alone.
Vertices 1..n with an edge i -> j whenever j - i is an allowed gap form a DAG;
subwords of length >= 2 correspond to directed paths, and the total count is
obtained by summing a path-count matrix. That matrix is Toeplitz (the number
of paths from i to j depends only on j - i), so `complexity` sums it from the
tail counts of `_tail_counts`, which the series in `intervals` also read;
`path_counts` builds it in full for any DAG. Results are exact Python integers.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Union

from gapwords.words import GapSet

# Only the pure-Python kernel exists; the flag stays public for callers that
# report which kernel is active.
HAS_COMPILED_KERNEL = False

GapsLike = Union[GapSet, Iterable[int]]
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
    allowed = set(GapSet.of(gaps).gaps)
    return [[1 if (j - i) in allowed else 0 for j in range(n)] for i in range(n)]


def path_counts(matrix: Matrix) -> Matrix:
    """Counts of directed paths of length >= 1 between all vertex pairs.

    Input must be a strictly upper triangular 0/1 adjacency (a DAG whose
    topological order is the index order); anything else raises ValueError.
    Equivalent to summing all positive powers of the adjacency matrix, but
    computed in one Warshall-style triple loop.
    """
    rows = _checked_adjacency(matrix)
    return _path_count_kernel(rows)


def path_counts_by_powers(matrix: Matrix) -> Matrix:
    """Reference route for path_counts: accumulate A + A^2 + ... until powers vanish.

    Kept independent of the kernel so the two can be checked against each
    other. The adjacency is nilpotent, so the loop ends within n steps.
    """
    rows = _checked_adjacency(matrix)
    n = len(rows)
    total = [row[:] for row in rows]
    power = rows
    while True:
        power = _matmul(power, rows)
        if not any(any(row) for row in power):
            return total
        for i in range(n):
            trow = total[i]
            prow = power[i]
            for j in range(n):
                trow[j] += prow[j]


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
    return sum(_tail_counts(n, GapSet.of(gaps).runs()))


def _tail_counts(n: int, runs: list[tuple[int, int]]) -> list[int]:
    """Subwords ending at positions 1..n for the gap set with these maximal runs.

    a[i] = 1 + sum of a[i - g] over allowed g < i, with a[0] = 0: the single
    letter at i, or a subword ending at i - g extended by gap g. Subtracting
    the same sum for a[i - 1] leaves, for each run lo..hi, only its two ends,
    a[i] = a[i - 1] + sum over runs of (a[i - lo] - a[i - hi - 1]) with
    out-of-range indices read as a[0]. That is O(n * runs) big-integer
    additions; the series of a is z / ((1 - z)(1 - sum of z^g)).
    """
    a = [0, 1]
    for i in range(2, n + 1):
        v = a[i - 1]
        for lo, hi in runs:
            if lo >= i:
                break
            v += a[i - lo] - a[max(i - hi - 1, 0)]
        a.append(v)
    return a[1:]


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
    _check_gap(d1)
    if d2 < d1:
        raise ValueError(f"need d1 <= d2, got d1={d1}, d2={d2}")
    return n + min_gap_complexity(n, d1) - min_gap_complexity(n, d2 + 1)


def _check_length(n: int) -> None:
    if n < 1:
        raise ValueError(f"word length must be >= 1, got {n}")


def _check_gap(d: int) -> None:
    if d < 1:
        raise ValueError(f"gap must be >= 1, got {d}")


def _path_count_kernel(rows):
    """Warshall-style accumulation w[i][j] += w[i][k] * w[k][j] over growing k.

    rows must be strictly upper triangular, so only i < k < j can contribute
    and the loop ranges encode that directly. Returns fresh lists; entries are
    plain Python integers and never overflow.
    """
    n = len(rows)
    w = [list(row) for row in rows]
    for k in range(n):
        wk = w[k]
        for i in range(k):
            wi = w[i]
            wik = wi[k]
            if wik:
                for j in range(k + 1, n):
                    if wk[j]:
                        wi[j] += wik * wk[j]
    return w


def _checked_adjacency(matrix: Matrix) -> Matrix:
    rows = [list(row) for row in matrix]
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError("adjacency matrix must be square")
        for j, v in enumerate(row):
            if v not in (0, 1):
                raise ValueError(f"adjacency entries must be 0 or 1, got {v!r}")
            if v and j <= i:
                raise ValueError("adjacency must be strictly upper triangular")
    return rows


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for k in range(n):
            aik = arow[k]
            if aik:
                brow = b[k]
                for j in range(n):
                    if brow[j]:
                        orow[j] += aik * brow[j]
    return out
