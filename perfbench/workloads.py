"""Seeded case lists for the three benchmark workloads.

A workload is a fixed list of size classes, one case per class and round.
The seed only picks the order of the cases within each round and the inputs
a class leaves open (scattered gap sets, the gap range of the series, the
non-rainbow words), and every open choice is drawn among inputs of about
the same cost, so the work of a round stays comparable from seed to seed.
The program sees only the generated argv, run as
``python -m gapwords.cli <argv>``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

ALPHABET = "abcdefghijklmnopqrstuvwxyz"

WORKLOADS = ("count-gaps", "intervals-bigint", "enumerate-words")

# One op that the seed rejects: its count has 4,981 decimal digits, past the
# 4,300-digit limit of Python's int-to-str conversion, and the CLI exits 1
# with a ValueError from str(value). The benchmark runs it once per
# intervals-bigint run outside the timed loop and reports its outcome.
DEFECT_PROBE_ARGV = ("count", "--n", "30000", "--gaps", "2-4", "--method", "recurrence")


@dataclass(frozen=True)
class Case:
    """One CLI invocation and what the reference needs to check its output."""

    label: str  # size class, the same for every seed
    kind: str  # "count", "series" or "enumerate"
    fmt: str  # "plain" or "json"
    argv: tuple[str, ...]
    n: int = 0  # word length (count, enumerate) or number of coefficients (series)
    gaps: tuple[int, ...] = ()  # resolved gap set
    method: str = "matrix"
    which: str = ""  # series: "a" or "K"
    word: str = ""
    dedup: bool = False


def count_case(label: str, n: int, spec: str, fmt: str, method: str = "") -> Case:
    argv = ["count", "--n", str(n), "--gaps", spec]
    if method:
        argv += ["--method", method]
    if fmt != "plain":
        argv += ["--format", fmt]
    return Case(label, "count", fmt, tuple(argv), n=n, gaps=resolve(spec, n), method=method or "matrix")


def series_case(label: str, which: str, d1: int, d2: int, count: int, fmt: str) -> Case:
    argv = ["series", "--which", which, "--d1", str(d1), "--d2", str(d2), "--count", str(count)]
    if fmt != "plain":
        argv += ["--format", fmt]
    return Case(label, "series", fmt, tuple(argv), n=count, gaps=tuple(range(d1, d2 + 1)), which=which)


def enumerate_case(label: str, word: str, spec: str, fmt: str, dedup: bool = False) -> Case:
    argv = ["enumerate", "--word", word, "--gaps", spec]
    if dedup:
        argv.append("--dedup")
    if fmt != "plain":
        argv += ["--format", fmt]
    return Case(
        label, "enumerate", fmt, tuple(argv), n=len(word), gaps=resolve(spec, len(word)), word=word, dedup=dedup
    )


def resolve(spec: str, n: int) -> tuple[int, ...]:
    """The gap set a spec like '2-n-1' or '1,3,7' names for length n."""
    gaps: set[int] = set()
    for item in spec.replace("n-1", str(n - 1)).split(","):
        lo, _, hi = item.partition("-")
        gaps.update(range(int(lo), int(hi or lo) + 1))
    return tuple(sorted(gaps))


def scattered(rng: random.Random, size: int, top: int) -> str:
    """A gap spec of `size` values in 1..top with gcd 1 and no two adjacent.

    gcd 1 keeps almost every pair of positions connected, so the matrix
    engine does the same amount of work for every draw.
    """
    while True:
        gaps = sorted(rng.sample(range(1, top + 1), size))
        if gcd(*gaps) == 1 and all(b - a > 1 for a, b in zip(gaps, gaps[1:])):
            return ",".join(map(str, gaps))


def block_word(rng: random.Random, length: int, letters: str) -> str:
    """A non-rainbow word made of seeded permutations of `letters`.

    Every block holds each letter once, which keeps the number of distinct
    subwords within about 20% from draw to draw; fully random words vary
    threefold.
    """
    out: list[str] = []
    while len(out) < length:
        block = list(letters)
        rng.shuffle(block)
        out.extend(block)
    return "".join(out[:length])


def count_gaps(rng: random.Random) -> list[Case]:
    # Default route (matrix engine): gap shapes from sparse to every gap, n 120..400.
    return [
        count_case("n120-range", 120, "3-5", "plain"),
        count_case("n120-every", 120, "1-n-1", "json"),
        count_case("n120-mingap", 120, "3-n-1", "plain"),
        count_case("n120-scattered", 120, scattered(rng, 3, 12), "json"),
        count_case("n120-single", 120, "2", "plain"),
        count_case("n240-range", 240, "3-5", "json"),
        count_case("n240-137", 240, "1,3,7", "plain"),
        count_case("n240-every", 240, "1-n-1", "plain"),
        count_case("n240-scattered", 240, scattered(rng, 3, 12), "plain"),
        count_case("n240-single", 240, "5", "json"),
        count_case("n300-mingap", 300, "4-n-1", "json"),
        count_case("n400-range", 400, "3-5", "plain"),
        count_case("n400-137", 400, "1,3,7", "json"),
        count_case("n400-scattered", 400, scattered(rng, 3, 12), "plain"),
        count_case("n400-single", 400, "7", "plain"),
        count_case("n400-every", 400, "1-n-1", "plain"),
    ]


def intervals_bigint(rng: random.Random) -> list[Case]:
    # Series expansion (rendering-bound) and the contiguous-range recurrence
    # (compute-bound on wide ranges). No value passes the 4,300-digit limit
    # (see DEFECT_PROBE_ARGV): the largest here has 3,321 digits.
    d1, d2 = rng.choice(((2, 3), (3, 5), (4, 8)))  # about 2,440 digits at 20,000 terms
    narrow = rng.choice(((2, 5), (3, 6), (3, 8)))
    return [
        series_case("series-a-5k", "a", d1, d2, 5000, "plain"),
        series_case("series-K-5k", "K", d1, d2, 5000, "json"),
        series_case("series-a-10k", "a", d1, d2, 10000, "json"),
        series_case("series-K-10k", "K", d1, d2, 10000, "plain"),
        series_case("series-a-20k", "a", d1, d2, 20000, "plain"),
        series_case("series-K-20k", "K", d1, d2, 20000, "json"),
        count_case("rec-10k-wide", 10000, "10-120", "json", "recurrence"),
        count_case("rec-10k-wider", 10000, "20-200", "plain", "recurrence"),
        count_case("rec-20k-wide", 20000, "10-120", "plain", "recurrence"),
        count_case("rec-20k-wider", 20000, "20-200", "json", "recurrence"),
        count_case("rec-30k-wide", 30000, "10-120", "plain", "recurrence"),
        count_case("rec-5k-narrow", 5000, "3-10", "json", "recurrence"),
        count_case("rec-10k-narrow", 10000, "2-4", "plain", "recurrence"),
        count_case("rec-15k-narrow", 15000, "%d-%d" % narrow, "json", "recurrence"),
        count_case("rec-20k-narrow24", 20000, "2-4", "json", "recurrence"),
        count_case("rec-20k-narrow310", 20000, "3-10", "plain", "recurrence"),
    ]


def enumerate_words(rng: random.Random) -> list[Case]:
    # Rainbow words of 16..22 letters, all-gap and sparse, plus block words
    # over 2-3 letters with --dedup. The seeded words and the seeded {1,3,g}
    # gaps (19k to 29k subwords at 22 letters) are among the cheapest cases,
    # so the middle and the upper quarter of the op times, where op_s.p50 and
    # op_s.tail are read, hold only fixed cases. The largest child,
    # r19-every, peaks near 80 MB; no other goes past 50 MB.
    def rainbow(n: int) -> str:
        return ALPHABET[:n]

    return [
        enumerate_case("ba22-13", block_word(rng, 22, "ab"), "1,3", "json", dedup=True),
        enumerate_case("ab19", block_word(rng, 19, "ab"), "1-3", "plain", dedup=True),
        enumerate_case("abc17-14", block_word(rng, 17, "abc"), "1-4", "json", dedup=True),
        enumerate_case("r22-scattered", rainbow(22), f"1,3,{rng.randint(7, 12)}", "json"),
        enumerate_case("r22-mingap", rainbow(22), "3-n-1", "json"),
        enumerate_case("r21-13", rainbow(21), "1,3", "plain"),
        enumerate_case("r16-every-json", rainbow(16), "1-n-1", "json"),
        enumerate_case("r20-12", rainbow(20), "1-2", "plain"),
        enumerate_case("r17-every-json", rainbow(17), "1-n-1", "json"),
        enumerate_case("r22-12-json", rainbow(22), "1-2", "json"),
        enumerate_case("r20-124-json", rainbow(20), "1,2,4", "json"),
        enumerate_case("r16-every", rainbow(16), "1-n-1", "plain"),
        enumerate_case("r21-12", rainbow(21), "1-2", "plain"),
        enumerate_case("r18-every-json", rainbow(18), "1-n-1", "json"),
        enumerate_case("r19-every-json", rainbow(19), "1-n-1", "json"),
        enumerate_case("r18-every", rainbow(18), "1-n-1", "plain"),
    ]


BUILDERS = {
    "count-gaps": count_gaps,
    "intervals-bigint": intervals_bigint,
    "enumerate-words": enumerate_words,
}


class Plan:
    """The cases of one workload and seed, and the order of each round."""

    def __init__(self, workload: str, seed: int) -> None:
        self.rng = random.Random(f"{workload}/{seed}")
        self.cases = BUILDERS[workload](self.rng)

    def round(self) -> list[Case]:
        order = list(self.cases)
        self.rng.shuffle(order)
        return order
