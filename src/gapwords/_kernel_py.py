"""Warshall path-count kernel behind `counting.path_counts`."""


def path_count_kernel(rows):
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
