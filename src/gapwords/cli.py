"""Command-line front end: counting, enumeration, series, self-checks, DOT export.

All values that can grow past 64 bits are serialized as decimal strings in
JSON and CSV output so any consumer can read them back exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import re
import sys
from itertools import combinations

from gapwords import counting, intervals, latin, oracle
from gapwords.words import GapSet, Word, rainbow_word

ORACLE_CAP = 10  # brute-force equivalence checks stop here; beyond is exponential pain

# Python 3.10 builds before 3.10.7 have no int-to-str digit limit.
_HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")

_GAP_ITEM = re.compile(r"(\d+|n-1)(?:-(\d+|n-1))?")


class CLIError(Exception):
    """Diagnostic shown to the user; turns into a nonzero exit code."""


def parse_gap_spec(text: str, n: int | None = None) -> GapSet:
    """Parse comma-separated gap items: single values or a-b ranges.

    '{}' (or an empty string) is the empty gap set; the token n-1 resolves
    against the word length when one is known.
    """
    s = text.strip()
    if s in ("", "{}"):
        return GapSet(())

    def value(token: str) -> int:
        if token != "n-1":
            return int(token)
        if n is None:
            raise CLIError("gap token n-1 needs a word length to resolve against")
        return n - 1

    gaps: list[int] = []
    for item in s.split(","):
        item = item.strip()
        m = _GAP_ITEM.fullmatch(item)
        if not m:
            raise CLIError(
                f"bad gap item {item!r} (expected a value like 3, a range like 2-5, or n-1)"
            )
        lo = value(m.group(1))
        hi = value(m.group(2)) if m.group(2) else lo
        if lo < 1:
            raise CLIError(f"gap values must be >= 1, got {lo}")
        if hi < lo:
            raise CLIError(f"empty gap range {item!r}")
        gaps.extend(range(lo, hi + 1))
    return GapSet(tuple(gaps))


def format_gaps(gs: GapSet) -> str:
    """Compact textual form of a gap set: runs collapse to a-b."""
    if not len(gs):
        return "{}"
    return ",".join(str(lo) if lo == hi else f"{lo}-{hi}" for lo, hi in gs.runs())


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def _dispatch_count(n: int, gs: GapSet, method: str) -> int:
    if method == "matrix":
        return counting.complexity(n, gs)
    span = gs.bounds_if_contiguous()
    if method == "recurrence":
        if span is None:
            raise CLIError("method recurrence needs a nonempty contiguous gap range like 2-4")
        return intervals.gap_range_complexity(n, *span)
    if method == "super-d":
        if span is None or span[1] != n - 1:
            raise CLIError("method super-d needs gaps d-(n-1), covering everything up to n-1")
        return counting.min_gap_complexity(n, span[0])
    if method == "single-gap":
        if len(gs) != 1:
            raise CLIError("method single-gap needs exactly one gap value")
        return counting.single_gap_complexity(n, gs.gaps[0])
    if method == "prefix":
        if span is None or span[0] != 1 or span[1] > n - 1:
            raise CLIError("method prefix needs gaps 1-g with g <= n-1")
        try:
            return counting.prefix_gap_complexity(n, n - span[1])
        except ValueError as err:
            raise CLIError(str(err)) from err
    if method == "formula-1d":
        if len(gs) != 2 or gs.gaps[0] != 1 or gs.gaps[1] < 2:
            raise CLIError("method formula-1d needs gaps 1,d with d >= 2")
        return intervals.gap_pair_complexity(n, gs.gaps[1])
    raise CLIError(f"unknown method {method!r}")


def _cmd_count(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise CLIError("--n must be >= 1")
    gs = parse_gap_spec(args.gaps, args.n)
    value = _dispatch_count(args.n, gs, args.method)
    record = {"n": args.n, "gaps": list(gs), "method": args.method, "complexity": str(value)}
    if args.format == "json":
        print(json.dumps(record))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "gaps", "method", "complexity"])
        writer.writerow([args.n, format_gaps(gs), args.method, str(value)])
    else:
        print(value)
    return 0


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        word = Word(args.word)
    except ValueError as err:
        raise CLIError(str(err)) from err
    gs = parse_gap_spec(args.gaps, len(word))
    found = latin.nontrivial_subwords(word, gs, dedup=args.dedup)
    if args.include_single:
        singles = sorted(set(word.text)) if args.dedup else sorted(word.text)
        found = sorted(found + singles)
    record = {
        "word": word.text,
        "gaps": list(gs),
        "count": str(len(found)),
        "subwords": found,
    }
    if args.format == "json":
        print(json.dumps(record))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["subword"])
        for s in found:
            writer.writerow([s])
    else:
        for s in found:
            print(s)
        print(f"count: {len(found)}")
    return 0


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def _cmd_series(args: argparse.Namespace) -> int:
    expand = intervals.tail_count_series if args.which == "a" else intervals.complexity_series
    try:
        coeffs = expand(args.d1, args.d2, args.count)
    except ValueError as err:
        raise CLIError(str(err)) from err
    rows = [(i, coeffs[i]) for i in range(1, args.count + 1)]
    if args.format == "json":
        record = {
            "d1": args.d1,
            "d2": args.d2,
            "which": args.which,
            "coefficients": [{"n": i, "value": str(v)} for i, v in rows],
        }
        print(json.dumps(record))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "value"])
        for i, v in rows:
            writer.writerow([i, str(v)])
    else:
        for i, v in rows:
            print(f"{i},{v}")
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _gap_sets_for(n: int, rng: random.Random) -> list[tuple[int, ...]]:
    universe = list(range(1, n))
    if n <= 8:
        sets: list[tuple[int, ...]] = []
        for size in range(len(universe) + 1):
            sets.extend(combinations(universe, size))
        return sets
    masks = rng.sample(range(2 ** len(universe)), 200)
    return [tuple(g for b, g in enumerate(universe) if mask >> b & 1) for mask in masks]


def _check_oracle_line(n: int, rng: random.Random) -> tuple[str, bool]:
    word = rainbow_word(n)
    gap_sets = _gap_sets_for(n, rng)
    for m in gap_sets:
        count = oracle.count_selections(word, m)
        warshall = n + sum(map(sum, counting.path_counts(counting.gap_adjacency(n, m))))
        if warshall != count:
            return f"oracle(n={n}): Warshall matrix mismatch for gaps {m}: FAIL", False
        if counting.complexity(n, m) != count:
            return f"oracle(n={n}): Toeplitz-row matrix mismatch for gaps {m}: FAIL", False
        gs = GapSet.of(m)
        span = gs.bounds_if_contiguous()
        if span is not None and intervals.gap_range_complexity(n, *span) != count:
            return f"oracle(n={n}): recurrence mismatch for gaps {m}: FAIL", False
        listed = set(latin.nontrivial_subwords(word, m)) | set(word.text)
        if listed != oracle.enumerate_subwords(word, m):
            return f"oracle(n={n}): enumeration mismatch for gaps {m}: FAIL", False
    kinds = "all" if n <= 8 else "200 sampled"
    return f"oracle(n={n}): matrix=recurrence=oracle over {kinds} gap sets ({len(gap_sets)}): PASS", True


def _cmd_check(args: argparse.Namespace) -> int:
    if args.n_max < 1 or args.d_max < 1:
        raise CLIError("--n-max and --d-max must be >= 1")
    rng = random.Random(2011)
    failures = 0

    for n in range(1, args.n_max + 1):
        if n > ORACLE_CAP:
            print(f"oracle(n={n}): SKIP (brute force capped at n={ORACLE_CAP})")
            continue
        line, ok = _check_oracle_line(n, rng)
        print(line)
        failures += 0 if ok else 1

    for n in range(2, args.n_max + 1):
        for d1 in range(1, min(args.d_max, n - 1) + 1):
            for d2 in range(d1, min(args.d_max, n - 1) + 1):
                bound = counting.gap_range_upper_bound(n, d1, d2)
                exact = counting.complexity(n, range(d1, d2 + 1))
                ok = bound >= exact
                failures += 0 if ok else 1
                status = "PASS" if ok else "FAIL"
                print(f"bound({n},{d1},{d2})={bound} ≥ exact {exact}: {status}")

    for n in range(1, args.n_max + 1):
        for d in range(2, args.d_max + 1):
            res = intervals.check_correspondence(n, d)
            failures += 0 if res.matches else 1
            status = "PASS" if res.matches else "FAIL"
            print(f"correspondence({n},{d}): {res.pair_count}={res.min_gap_count} {status}")

    print(f"failures: {failures}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# dot
# ---------------------------------------------------------------------------


def _node_names(n: int) -> list[str]:
    if n <= 26:
        return [chr(ord("a") + i) for i in range(n)]
    return [f"x{i + 1}" for i in range(n)]


def _cmd_dot(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise CLIError("--n must be >= 1")
    gs = parse_gap_spec(args.gaps, args.n)
    allowed = set(gs.gaps)
    names = _node_names(args.n)
    lines = ["digraph gapwords {", "  rankdir=LR;"]
    lines.extend(f"  {name};" for name in names)
    for i in range(args.n):
        for j in range(i + 1, args.n):
            if j - i in allowed:
                lines.append(f"  {names[i]} -> {names[j]};")
    lines.append("}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser / entry points
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapwords",
        description=(
            "Scattered subwords with gap constraints: count them, list them, "
            "expand their series, cross-check the formulas, export the gap graph."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="complexity of a rainbow word of length n")
    count.add_argument("--n", type=int, required=True, help="word length")
    count.add_argument(
        "--gaps", required=True, help="allowed gaps, e.g. 2-5 or 1,3 or 2-n-1 or {} for none"
    )
    count.add_argument(
        "--method",
        choices=["matrix", "recurrence", "super-d", "single-gap", "prefix", "formula-1d"],
        default="matrix",
        help="computation route; each formula method needs a matching gap shape",
    )
    count.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    count.set_defaults(handler=_cmd_count)

    enum = sub.add_parser("enumerate", help="list the subwords of a word")
    enum.add_argument("--word", required=True)
    enum.add_argument("--gaps", required=True)
    enum.add_argument(
        "--include-single", action="store_true", help="also list length-1 subwords"
    )
    enum.add_argument(
        "--dedup", action="store_true", help="merge equal strings (needed for non-rainbow words)"
    )
    enum.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    enum.set_defaults(handler=_cmd_enumerate)

    series = sub.add_parser("series", help="expand the tail-count or complexity series")
    series.add_argument("--d1", type=int, required=True, help="smallest allowed gap")
    series.add_argument("--d2", type=int, required=True, help="largest allowed gap")
    series.add_argument("--count", type=int, required=True, help="number of coefficients")
    series.add_argument(
        "--which", choices=["a", "K"], required=True, help="a: tail counts, K: complexities"
    )
    series.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    series.set_defaults(handler=_cmd_series)

    check = sub.add_parser("check", help="cross-check formulas against each other and the oracle")
    check.add_argument("--n-max", type=int, default=8, dest="n_max")
    check.add_argument("--d-max", type=int, default=6, dest="d_max")
    check.set_defaults(handler=_cmd_check)

    dot = sub.add_parser("dot", help="emit the gap graph in DOT format")
    dot.add_argument("--n", type=int, required=True)
    dot.add_argument("--gaps", required=True)
    dot.set_defaults(handler=_cmd_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Exact counts outgrow CPython's 4,300-digit int-to-str limit (gaps 2-4
    # reach 4,981 digits at n=30,000). Lift it while the command runs;
    # argparse has already read the numeric options under the default limit.
    saved_limit = sys.get_int_max_str_digits() if _HAS_DIGIT_LIMIT else None
    if saved_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except CLIError as err:
        print(f"gapwords: {err}", file=sys.stderr)
        return 2
    finally:
        if saved_limit is not None:
            sys.set_int_max_str_digits(saved_limit)


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`gapwords check | head`). Point
        # stdout at devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    run()
