"""Reference answers and output checks, independent of the routes being timed.

Counts and series come from the benchmark's own general tail-count
recurrence ``a[i] = 1 + sum(a[i-g] for g in G if g < i)``, evaluated with
prefix sums over the maximal runs of G. Enumerated lists come from the
brute-force ``gapwords.oracle`` where it finishes quickly, and otherwise from
a per-end-position set recurrence written here. None of this calls the
matrix engine, the interval recurrences or the set-valued Warshall pass.

Expected outputs are kept as SHA-256 digests of their payload lines, so the
benchmark holds no large reference lists while it runs.
"""

from __future__ import annotations

import hashlib
import json

from workloads import Case

ORACLE_SELECTIONS = 40_000  # the oracle walks one selection at a time


def gap_runs(gaps, n: int) -> list[tuple[int, int]]:
    """Maximal runs lo..hi of the gaps below n, in increasing order."""
    runs: list[tuple[int, int]] = []
    for g in sorted(set(g for g in gaps if g < n)):
        if runs and runs[-1][1] == g - 1:
            runs[-1] = (runs[-1][0], g)
        else:
            runs.append((g, g))
    return runs


def tail_counts(n: int, gaps) -> tuple[list[int], list[int]]:
    """Tail counts a[0..n] and their prefix sums p[0..n] (index 0 is 0).

    a[i] is the number of subwords of a rainbow word that end at position
    i; p[n] is the word's complexity.
    """
    runs = gap_runs(gaps, n)
    a = [0] * (n + 1)
    p = [0] * (n + 1)
    for i in range(1, n + 1):
        v = 1
        for lo, hi in runs:
            if lo >= i:
                break
            v += p[i - lo] - p[max(i - hi - 1, 0)]
        a[i] = v
        p[i] = p[i - 1] + v
    return a, p


def subwords_by_end(word: str, gaps) -> set[str]:
    """Distinct subwords of length >= 2, grown position by position.

    ends[i] holds every distinct subword that ends at position i; it extends
    the sets at i - g for each allowed gap g.
    """
    steps = sorted(set(gaps))
    ends: list[set[str]] = []
    found: set[str] = set()
    for i, letter in enumerate(word):
        here = {letter}
        for g in steps:
            if g > i:
                break
            here.update(s + letter for s in ends[i - g])
        ends.append(here)
        found.update(s for s in here if len(s) > 1)
    return found


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


class Reference:
    """Expected payload digests, computed once per distinct case."""

    def __init__(self) -> None:
        self._digests: dict[tuple, str] = {}
        self._series: dict[tuple, list[str]] = {}

    def digest_for(self, case: Case) -> str:
        key = (case.kind, case.n, case.gaps, case.which, case.word, case.dedup)
        if key not in self._digests:
            self._digests[key] = digest(self.expected_lines(case))
        return self._digests[key]

    def expected_lines(self, case: Case) -> list[str]:
        if case.kind == "count":
            _, p = tail_counts(case.n, case.gaps)
            return [str(p[case.n])]
        if case.kind == "series":
            values = self._series_strings(case)
            return [f"{i},{values[i - 1]}" for i in range(1, case.n + 1)]
        found = sorted(self._subwords(case))
        return found + [f"count: {len(found)}"]

    def _series_strings(self, case: Case) -> list[str]:
        # Shorter series are prefixes of the longest one with the same gaps,
        # so the costly decimal conversion runs once per gap range and kind.
        key = (case.which, case.gaps)
        have = self._series.get(key, [])
        if len(have) < case.n:
            a, p = tail_counts(case.n, case.gaps)
            seq = a if case.which == "a" else p
            have = [str(v) for v in seq[1:]]
            self._series[key] = have
        return have

    def _subwords(self, case: Case) -> set[str]:
        if not case.dedup and len(set(case.word)) < len(case.word):
            raise ValueError("non-rainbow words are only checked with --dedup")
        _, p = tail_counts(case.n, case.gaps)
        if p[case.n] <= ORACLE_SELECTIONS:
            from gapwords import oracle

            return {s for s in oracle.enumerate_subwords(case.word, case.gaps) if len(s) > 1}
        return subwords_by_end(case.word, case.gaps)

    def check(self, case: Case, stdout: bytes) -> tuple[bool, str]:
        """Whether stdout is the right answer for the case, with a reason when not."""
        try:
            lines = payload(case, stdout)
        except (UnicodeDecodeError, ValueError, KeyError, TypeError) as err:
            return False, f"unreadable output: {type(err).__name__}: {err}"
        if lines is None:
            return False, "output fields do not match the request"
        if digest(lines) != self.digest_for(case):
            return False, "wrong answer"
        return True, ""


def payload(case: Case, stdout: bytes) -> list[str] | None:
    """The answer lines of an output, in the plain format's layout.

    JSON outputs are parsed and their echoed request fields compared with
    the case; a mismatch gives None.
    """
    text = stdout.decode("ascii")
    if case.fmt == "plain":
        if not text.endswith("\n"):
            return None
        return text[:-1].split("\n")
    rec = json.loads(text)
    if case.kind == "count":
        if (rec["n"], rec["gaps"], rec["method"]) != (case.n, list(case.gaps), case.method):
            return None
        return [rec["complexity"]]
    if case.kind == "series":
        d1, d2 = case.gaps[0], case.gaps[-1]
        if (rec["d1"], rec["d2"], rec["which"]) != (d1, d2, case.which):
            return None
        return [f"{c['n']},{c['value']}" for c in rec["coefficients"]]
    if (rec["word"], rec["gaps"]) != (case.word, list(case.gaps)):
        return None
    return rec["subwords"] + [f"count: {rec['count']}"]
