"""Command-line front end: counting, enumeration, series, self-checks, DOT export.

`parse_args` reads argv as argparse would against one table, `COMMANDS`,
which also gives the -h text. A usage error is one `gapwords: ...` line on
stderr and exit code 2, like every other diagnostic. Results print through
one writer, `_write`. Values past 64 bits are decimal strings in JSON and
CSV, so they read back exactly.

Most runs are one short command, so start-up and exit are most of their
time: a module that only some commands need (json, csv, decimal, random,
intervals, latin, the oracle) is imported in the function that uses it, not
here, and `run()` ends the process once its output is flushed, without
finalizing the interpreter.

Only `run()`, which owns the process, may fork: on two CPUs or more, a
`series` longer than one block is written by the process and one forked
child, which render and write alternate blocks (`_write_split`). `main()`,
which tests and embedding code call, writes every block itself.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, product, starmap

from gapwords import counting
from gapwords.words import GapSet, Word, rainbow_word

ORACLE_CAP = 10  # brute-force equivalence checks stop here; beyond is exponential pain

# Counting routes of `count --method`; `check` runs each one that fits a gap set.
METHODS = ("matrix", "recurrence", "super-d", "single-gap", "prefix", "formula-1d")

# Characters gathered for one stdout write by `_write_joined`: half of io's
# 8,192-byte buffer. Blocks of 8,192 wrote a 20,000-term series about 4%
# faster, but raised its peak RSS by 0.13 MB more (of about 14 MB).
# A series split between two processes (`_write_split`) goes on in blocks
# of about `_SPLIT_BLOCK` characters, cut by digit counts before rendering;
# each process holds one rendered block and its bytes. On a 2-core machine
# the split raised the peak RSS of a 20,000-term series by 0.1-0.3 MB with
# blocks of 8,192 or 16,384 characters, and by about 0.1 MB more with
# 24,576; blocks of 8,192 pass the token twice as often, and wrote the
# series up to 7 ms slower than blocks of 16,384.
_BLOCK = 4096
_SPLIT_BLOCK = 16384

# Set by `run()`, which ends the process: only there may a series be split
# between two processes.
_may_split = False

# Passed between the two writers of a split series: the next block is yours.
_TOKEN = b"\0"

_OUT_OF_MEMORY = "out of memory in {}; try a smaller input"

# Python 3.10 builds before 3.10.7 have no int-to-str digit limit.
_HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")

# Before Python 3.11, `csv.writer` cannot write NUL without an escapechar.
_CSV_WRITES_NUL = sys.version_info >= (3, 11)


class CLIError(Exception):
    """Diagnostic shown to the user; turns into a nonzero exit code."""


def parse_gap_spec(text: str, n: int) -> GapSet:
    """Parse comma-separated gap items, single values or a-b ranges, for words of length n.

    n must be >= 1. '{}' (or an empty string) is the empty gap set, and the
    token n-1 resolves against the length. A range is kept as one run, never
    expanded. It stops at n-1 (a range that starts beyond it keeps its start),
    since longer gaps are never usable, and a range up to n-1 that starts past
    n-1 is empty.
    """
    if n < 1:
        raise CLIError("--n must be >= 1")
    s = text.strip()
    if s in ("", "{}"):
        return GapSet(())

    def value(token: str) -> int:
        return n - 1 if token == "n-1" else int(token)

    def is_value(token: str) -> bool:  # decimal digits, any script (what re calls \d), or n-1
        return token == "n-1" or token.isdecimal()

    gaps: list[range] = []
    for item in s.split(","):
        item = item.strip()
        first, sep, last = ("n-1", item[3:4], item[4:]) if item[:3] == "n-1" else item.partition("-")
        if not (is_value(first) and (sep == last == "" or sep == "-" and is_value(last))):
            raise CLIError(
                f"bad gap item {item!r} (expected a value like 3, a range like 2-5, or n-1)"
            )
        lo = value(first)
        hi = value(last) if last else lo
        # An item ending in the token n-1 is empty when n-1 is below its start or is 0.
        if (last or first) == "n-1" and hi < max(lo, 1) and (lo or first == "n-1"):
            continue
        if lo < 1:
            raise CLIError(f"gap values must be >= 1, got {lo}")
        if hi < lo:
            raise CLIError(f"empty gap range {item!r}")
        hi = min(hi, max(lo, n - 1))
        gaps.append(range(lo, hi + 1))
    return GapSet(gaps)


def format_gaps(gs: GapSet) -> str:
    """Compact textual form of a gap set: runs collapse to a-b."""
    if not len(gs):
        return "{}"
    return ",".join(str(r.start) if len(r) == 1 else f"{r.start}-{r[-1]}" for r in gs.runs)


def _as_is_in_json(text: str) -> bool:
    """Whether `json.dumps` writes `text` as itself between quotes: printable ASCII, no " or \\."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _json_text(fields: dict) -> str:
    """`json.dumps(fields)`, written here when each value is an int, a list of ints or a
    string `_as_is_in_json`; any other record loads `json`."""
    items = []
    for key, value in fields.items():
        if type(value) is str and _as_is_in_json(value):
            items.append(f'"{key}": "{value}"')
        elif type(value) is int or type(value) is list and all(type(v) is int for v in value):
            items.append(f'"{key}": {value}')  # str() of ints and of their lists is their json
        else:
            import json
            return json.dumps(fields)
    return "{" + ", ".join(items) + "}"


def _write(
    fmt: str, record: Callable, header: list, rows: Iterable | None, lines: Iterable[str]
) -> int:
    """Print one result as json of `record()`, csv `header` then `rows`, or plain `lines`.

    Every form is written as it is produced, so rows and lines can be lazy,
    and so can the record's last value: an iterator there is a json array
    that arrives in nonempty batches, each the json text of some items joined
    by ", ". With `rows` None, the plain lines are the csv rows: they must
    need no quoting, and skip the writer's scan. Lines, csv rows of plain
    lines and json batches go out through `_write_joined`, a few large writes
    rather than one or two per row; other csv rows go through `csv.writer`.
    """
    if fmt == "json":
        fields = record()
        key = next(reversed(fields))
        batches = fields[key]
        if isinstance(batches, Iterator):
            fields[key] = []
            sys.stdout.write(_json_text(fields)[:-2])  # all but the empty array's "]}"
            _write_joined(batches, ", ", "]}\n")
        else:
            print(_json_text(fields))
    elif fmt == "csv":
        import csv
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        if rows is None:
            _write_joined(lines, "\r\n", "\r\n")
        else:
            writer.writerows(rows)
    else:
        _write_joined(lines, "\n", "\n")
    return 0


def _write_joined(texts: Iterable[str], sep: str, end: str) -> None:
    """Write `sep.join(texts) + end` to stdout in blocks, one `write` each.

    A block is cut where a text ends, once it holds at least `_BLOCK`
    characters; a text that long on its own fills a block by itself. At the
    first cut of `_Rows` in a process that `run()` owns, `_write_split` may
    take over and write the rest.
    """
    write = sys.stdout.write
    split = _may_split and isinstance(texts, _Rows)
    parts, size = [], 0
    for text in texts:
        parts.append(text)
        size += len(text)
        if size >= _BLOCK:
            block = sep.join(parts)
            if split and _write_split(block, texts, sep, end):
                return
            split = False
            write(block)
            parts, size = [""], 0  # the next block starts with sep
    write(sep.join(parts) + end)


class _Rows(starmap):
    """The texts `form.format(n, value)` of `rows`, pairs of an int and an exact
    `Decimal` integer, as `series` writes them.

    The rows and the form stay readable, so that `_write_split` can cut the
    rows into blocks by their digit counts without rendering them.
    """

    def __new__(cls, form: str, rows: Iterator[tuple]):
        self = super().__new__(cls, form.format, rows)
        self.form, self.rows = form, rows
        return self


def _write_split(first: str, texts: _Rows, sep: str, end: str) -> bool:
    """Write `first`, then the rest of `texts`, each after `sep`, then `end`, from
    this process and a forked child; False, with none of it written, where that cannot be.

    It needs two CPUs, since on one the two processes could only take turns
    on it, and a stdout encoding that writes ASCII as itself, since the
    blocks are encoded apart. stdout is flushed, then forked: the child
    inherits the terms already drawn, and from then on both processes draw
    every term, cut the rows into the same blocks and take turns
    (`_take_turns`), each writing every other block to fd 1. The child ends
    in `os._exit`; its status, and the message it passes back if it fails,
    tell the parent how it ended. The parent always reaps the child. A
    failure of either process stops both: a broken stdout pipe raises
    `BrokenPipeError` here, and any other is raised once, as the parent's
    own exception or as a `CLIError` with the child's message.
    """
    if len(os.sched_getaffinity(0)) < 2 or "\n".encode(sys.stdout.encoding) != b"\n":
        return False
    sys.stdout.flush()
    fds = []
    try:
        fds += os.pipe()  # parent to child
        fds += os.pipe()  # child to parent
        pid = os.fork()
    except OSError:  # no pipe or process to spare: write serially
        for fd in fds:
            os.close(fd)
        return False
    from_parent, to_child, from_child, to_parent = fds
    if pid == 0:
        code, message = 2, ""
        try:
            os.close(to_child)
            os.close(from_child)
            try:  # exit 1 also when the parent stopped first: it reports why
                code = 0 if _take_turns(1, first, texts, sep, end, from_parent, to_parent) is None else 1
            except BrokenPipeError:
                code = 1  # stdout's reader is gone: nothing to report
            except MemoryError:
                message = _OUT_OF_MEMORY.format("series")
            except OSError as err:
                message = f"write error: {err}"
            except BaseException as err:  # reported by the parent; the child never returns
                message = f"the second writer failed: {err!r}"
            if message:
                os.write(to_parent, message.encode()[:4096])
        finally:
            os._exit(code)
    os.close(from_parent)
    os.close(to_parent)
    stopped = None
    try:
        stopped = _take_turns(0, first, texts, sep, end, from_child, to_child)
    finally:
        os.close(to_child)  # a child waiting for its turn reads EOF and ends
        message = b""
        while chunk := os.read(from_child, 4096):  # EOF once the child has ended
            message += chunk
        os.close(from_child)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if stopped is None and code == 0:
        return True
    message = (stopped or b"") + message
    if message:
        raise CLIError(message.decode(errors="replace"))
    if code == 1:
        raise BrokenPipeError  # the child found stdout's reader gone
    raise CLIError(f"the second writer ended with exit status {code}")


def _take_turns(mine: int, first: str, texts: _Rows, sep: str, end: str, inbox: int, outbox: int) -> bytes | None:
    """Write the blocks k with k % 2 == mine of a split series; None once they are written.

    Block 0 is `first`. The rest of the rows are cut into blocks once their
    digit counts, plus the length of the form for each row, reach
    `_SPLIT_BLOCK`, and the last block, which may hold no row, ends in `end`.
    This process renders only its own rows, as it draws them. Each of its
    blocks is encoded, then written once the token arrives on `inbox` (block
    0 needs none), and the token is passed on `outbox` unless the block was
    the last. If `inbox` holds anything else, the other process has stopped:
    that is returned, the start of its message or b"" at EOF, and so is b""
    if `outbox` is closed.
    """
    render = (sep + texts.form).format
    width = len(texts.form)

    def blocks() -> Iterator[tuple[int, str, bool]]:
        if mine == 0:
            yield 0, first, False
        k, part, size = 1, [], 0
        for row in texts.rows:
            if k % 2 == mine:
                part.append(render(*row))
            size += row[1].adjusted() + width
            if size >= _SPLIT_BLOCK:
                if k % 2 == mine:
                    yield k, "".join(part), False
                k, part, size = k + 1, [], 0
        if k % 2 == mine:
            yield k, "".join(part) + end, True

    for k, text, last in blocks():
        data = memoryview(text.encode())
        del text  # only the bytes are held while the other process writes
        if k and (got := os.read(inbox, 1)) != _TOKEN:
            return got
        while data:
            data = data[os.write(1, data):]
        if not last:
            try:
                os.write(outbox, _TOKEN)
            except BrokenPipeError:
                return b""
    return None


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def _dispatch_count(n: int, gs: GapSet, method: str) -> int:
    if method == "matrix":
        return counting.complexity(n, gs)
    from gapwords import intervals
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
        return counting.single_gap_complexity(n, *gs)
    if method == "prefix":
        if span is None or span[0] != 1 or span[1] > n - 1:
            raise CLIError("method prefix needs gaps 1-g with g <= n-1")
        try:
            return counting.prefix_gap_complexity(n, n - span[1])
        except ValueError as err:
            raise CLIError(str(err)) from err
    if method == "formula-1d":
        if len(gs) != 2 or gs.runs[0].start != 1:
            raise CLIError("method formula-1d needs gaps 1,d with d >= 2")
        return intervals.gap_pair_complexity(n, gs.runs[-1][-1])
    raise CLIError(f"unknown method {method!r}")


def _cmd_count(args: Args) -> int:
    gs = parse_gap_spec(args.gaps, args.n)
    value = _dispatch_count(args.n, gs, args.method)
    return _write(
        args.format,
        lambda: {"n": args.n, "gaps": list(gs), "method": args.method, "complexity": str(value)},
        ["n", "gaps", "method", "complexity"], [[args.n, format_gaps(gs), args.method, value]],
        [str(value)],
    )


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _cmd_enumerate(args: Args) -> int:
    from gapwords import latin
    try:
        word = Word(args.word)
    except ValueError as err:
        raise CLIError(str(err)) from err
    gs = parse_gap_spec(args.gaps, len(word))
    if args.format == "csv" and "\0" in word.text and not _CSV_WRITES_NUL:
        raise CLIError("csv output of a word holding NUL needs Python 3.11 or later")
    # Sorted text batches, written as they come; `end` only separates their lines.
    count, end, blocks = latin.subword_text(word, gs, dedup=args.dedup, singles=args.include_single)

    def items() -> Iterator[str]:
        if _as_is_in_json(word.text):  # every letter encodes as itself
            return ('"' + block.replace(end, '", "') + '"' for block in blocks)
        import json
        return (json.dumps(block.split(end))[1:-1] for block in blocks)

    return _write(
        args.format,
        lambda: {"word": word.text, "gaps": list(gs), "count": str(count), "subwords": items()},
        ["subword"], ([s] for block in blocks for s in block.split(end)),
        chain((block.replace(end, "\n") for block in blocks), [f"count: {count}"]),
    )


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def _cmd_series(args: Args) -> int:
    # Exact decimals print in linear time where int-to-str is quadratic. The
    # context never rounds: a term that would need it raises instead. The
    # rows render each value by str() (`!s`), about a tenth faster than the
    # `format(value, "")` of a plain field, which makes the same digits.
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded, localcontext

    from gapwords import intervals

    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])
    with localcontext(exact):
        try:
            terms = intervals.series_terms(args.which, args.d1, args.d2, args.count, Decimal(1))
        except ValueError as err:
            raise CLIError(str(err)) from err
        rows = enumerate(terms, 1)  # consumed once, by whichever form is written
        return _write(
            args.format,
            lambda: {
                "d1": args.d1,
                "d2": args.d2,
                "which": args.which,
                "coefficients": _Rows('{{"n": {}, "value": "{!s}"}}', rows),  # digits only
            },
            ["n", "value"], None,  # digit-only csv rows: the plain lines
            _Rows("{},{!s}", rows),
        )


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _gap_sets_for(n: int, rng, k: int) -> list[tuple[int, ...]]:
    """Every gap set below n when there are at most k, else k sampled ones."""
    masks = range(2 ** (n - 1))
    if len(masks) > k:
        masks = rng.sample(masks, k)
    return [tuple(g for g in range(1, n) if mask >> (g - 1) & 1) for mask in masks]


def _check_oracle_line(n: int, rng) -> tuple[str, bool]:
    from gapwords import intervals, oracle
    word = rainbow_word(n)
    gap_sets = _gap_sets_for(n, rng, 200)
    for m in gap_sets:
        count = oracle.count_selections(word, m)
        warshall = n + sum(map(sum, counting.path_counts(counting.gap_adjacency(n, m))))
        if warshall != count:
            return f"oracle(n={n}): Warshall matrix mismatch for gaps {m}: FAIL", False
        gs = GapSet.of(m)
        for method in METHODS:
            try:
                value = _dispatch_count(n, gs, method)
            except CLIError:
                continue  # the gap set does not have this method's shape
            if value != count:
                return f"oracle(n={n}): {method} mismatch for gaps {m}: FAIL", False
        span = gs.bounds_if_contiguous()
        if span is not None and sum(intervals.tail_counts(n, *span)) != count:
            return f"oracle(n={n}): direct recurrence mismatch for gaps {m}: FAIL", False
        route = _listing_mismatch(word.text, m)
        if route:
            return f"oracle(n={n}): {route} mismatch for gaps {m}: FAIL", False
    kinds = "all" if n <= 8 else "200 sampled"
    label = "Warshall=methods=enumeration=oracle"
    return f"oracle(n={n}): {label} over {kinds} gap sets ({len(gap_sets)}): PASS", True


def _check_repeated_line(n_max: int, rng) -> tuple[str, bool]:
    """The listing of every word over {a,b} up to min(n_max, 8) letters, two sampled gap sets each."""
    label = f"oracle(words over ab, n<={min(n_max, 8)})"
    pairs = 0
    for n in range(1, min(n_max, 8) + 1):
        for word in map("".join, product("ab", repeat=n)):
            for m in _gap_sets_for(n, rng, 2):
                route = _listing_mismatch(word, m)
                if route:
                    return f"{label}: {route} mismatch for {word} gaps {m}: FAIL", False
                pairs += 1
    routes = "enumeration=set-valued Warshall=oracle (with and without dedup)"
    return f"{label}: {routes} over {pairs} sampled word/gap-set pairs: PASS", True


def _listing_mismatch(word: str, m: tuple[int, ...]) -> str | None:
    """The first listing route that differs from the oracle on a word and gap set, if any.

    Without dedup a string is listed once per (start, end) pair of positions
    that spell it: the oracle's distinct (first, last position, string) triples.
    """
    from gapwords import latin, oracle
    selections = (p for p in oracle.iter_selections(word, m) if len(p) > 1)
    expected = sorted(s for _, _, s in {(p[0], p[-1], "".join(word[i - 1] for i in p)) for p in selections})
    # No listing runs the set-valued pass; compare it here.
    final = latin.warshall_latin(latin.initial_latin_matrix(word, m))
    if sorted(s for row in final for cell in row for s in cell) != expected:
        return "set-valued Warshall"
    if latin.nontrivial_subwords(word, m) != expected:
        return "enumeration"
    count, end, texts = latin.subword_text(word, m, dedup=True)
    if (count, end.join(texts)) != (len(set(expected)), end.join(sorted(set(expected)))):
        return "dedup enumeration"
    return None


def _cmd_check(args: Args) -> int:
    if args.n_max < 1 or args.d_max < 1:
        raise CLIError("--n-max and --d-max must be >= 1")
    import random

    from gapwords import intervals

    rng = random.Random(2011)
    failures = 0

    for n in range(1, args.n_max + 1):
        if n > ORACLE_CAP:
            print(f"oracle(n={n}): SKIP (brute force capped at n={ORACLE_CAP})")
            continue
        line, ok = _check_oracle_line(n, rng)
        print(line)
        failures += 0 if ok else 1
    line, ok = _check_repeated_line(args.n_max, rng)
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


def _cmd_dot(args: Args) -> int:
    gs = parse_gap_spec(args.gaps, args.n)
    names = _node_names(args.n)
    print("digraph gapwords {\n  rankdir=LR;")
    print("\n".join(f"  {name};" for name in names))
    # One print per node's edges: a print per edge is several times slower,
    # and one for the whole graph holds every line at once.
    for i, name in enumerate(names):
        edges = [f"  {name} -> {names[i + g]};" for g in gs.below(args.n - i)]
        if edges:
            print("\n".join(edges))
    print("}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry points
# ---------------------------------------------------------------------------


FORMATS = ("plain", "json", "csv")
REQUIRED = "required"  # the default of an option that must be given

# command -> (handler, help line, options), and option dest -> (kind, default,
# help). An option is written --dest, with - for _. Its kind is int, str, a
# tuple of choices, or bool for a flag that takes no value.
COMMANDS = {
    "count": (_cmd_count, "complexity of a rainbow word of length n", {
        "n": (int, REQUIRED, "word length"),
        "gaps": (str, REQUIRED, "allowed gaps, e.g. 2-5 or 1,3 or 2-n-1 or {} for none"),
        "method": (METHODS, "matrix", "computation route; each formula method needs a matching gap shape"),
        "format": (FORMATS, "plain", "output format"),
    }),
    "enumerate": (_cmd_enumerate, "list the subwords of a word", {
        "word": (str, REQUIRED, "the word; any letters"),
        "gaps": (str, REQUIRED, "allowed gaps, as for count, with n the word length"),
        "include_single": (bool, False, "also list length-1 subwords"),
        "dedup": (bool, False, "merge equal strings (needed for non-rainbow words)"),
        "format": (FORMATS, "plain", "output format"),
    }),
    "series": (_cmd_series, "expand the tail-count or complexity series", {
        "d1": (int, REQUIRED, "smallest allowed gap"),
        "d2": (int, REQUIRED, "largest allowed gap"),
        "count": (int, REQUIRED, "number of coefficients"),
        "which": (("a", "K"), REQUIRED, "a: tail counts, K: complexities"),
        "format": (FORMATS, "plain", "output format"),
    }),
    "check": (_cmd_check, "cross-check formulas against each other and the oracle", {
        "n_max": (int, 8, "largest word length checked"),
        "d_max": (int, 6, "largest gap of the bound and correspondence lines"),
    }),
    "dot": (_cmd_dot, "emit the gap graph in DOT format", {
        "n": (int, REQUIRED, "number of positions"),
        "gaps": (str, REQUIRED, "allowed gaps, as for count"),
    }),
}

Args = type(sys.implementation)  # types.SimpleNamespace, without importing types


def _help(command: str | None) -> str:
    if command is None:
        lines = [f"usage: gapwords {{{','.join(COMMANDS)}}} ... (-h after one explains its options)"]
        for name, (_, about, options) in COMMANDS.items():
            flags = " ".join("--" + dest.replace("_", "-") for dest in options)
            lines += ["", f"  {name:<11}{about}", f"{'':13}{flags}"]
        return "\n".join(lines)
    _, about, options = COMMANDS[command]
    lines = [f"usage: gapwords {command} [options]", "", about, "", f"  {'-h, --help':<26}show this help"]
    for dest, (kind, default, text) in options.items():
        flag = "--" + dest.replace("_", "-")
        if kind is not bool:
            flag += " {" + ",".join(kind) + "}" if type(kind) is tuple else f" {dest.upper()}"
            text += " (required)" if default is REQUIRED else f" (default: {default})"
        lines.append(f"  {flag:<26}{text}" if len(flag) < 26 else f"  {flag}\n{'':28}{text}")
    return "\n".join(lines)


def _read_token(arg: str, flags: dict[str, str]) -> tuple[str | None, str | None] | None:
    """How argparse reads a token before any --: None for a value, else (flag or None if
    unknown, the text after = or after a short flag's letter, or None)."""
    if arg[:1] != "-" or arg == "-":
        return None
    head, eq, tail = arg.partition("=")
    if head in flags:
        return head, tail if eq else None
    if arg[1] == "-":
        found = [flag for flag in flags if flag.startswith(head)]
        if len(found) > 1:
            raise CLIError(f"ambiguous option {head!r} could be {', '.join(found)}")
        if found:
            return found[0], tail if eq else None
    elif arg[:2] in flags:
        return arg[:2], arg[2:]
    # A negative number (as argparse's ^-\d+$|^-\d*\.\d+$ matches) or a token with a space is a value.
    digits = arg[1:-1] if arg[-1] == "\n" else arg[1:]
    whole, dot, fraction = digits.partition(".")
    number = digits.isdecimal() or dot and fraction.isdecimal() and (not whole or whole.isdecimal())
    return None if number or " " in arg else (None, arg)


def parse_args(argv: list[str]) -> Args | None:
    """Read argv against COMMANDS as argparse would; print the help and return None for -h.

    A usage error raises CLIError. The first value is the command. Each of
    its tokens is read before any option takes a value, so an ambiguous
    prefix fails even after -h.
    """
    command, options, values, unknown = None, {}, {}, []
    while True:  # the top level, then the command
        flags = {"-h": "help", "--help": "help", **{"--" + d.replace("_", "-"): d for d in options}}
        end = argv.index("--") if "--" in argv else len(argv)
        tokens = [_read_token(arg, flags) for arg in argv[:end]] + [(None, None)] * (len(argv) - end)
        at = 0
        while at < len(tokens):
            flag, text = tokens[at] or (None, None)
            at += 1
            dest = flags.get(flag)
            if dest is None and command is None and tokens[at - 1] is None:
                break  # the command
            if dest is None:
                unknown.append(argv[at - 1])
            elif dest == "help" or options[dest][0] is bool:
                if text is not None and not (flag == "-h" and text and not text.strip("h")):  # -hh is -h twice
                    raise CLIError(f"{flag} takes no value, got {text!r}")
                if dest == "help":
                    print(_help(command))
                    return None
                values[dest] = True
            else:
                if text is None:
                    if at == len(tokens) or tokens[at] is not None:
                        raise CLIError(f"{flag} needs a value")
                    text, at = argv[at], at + 1
                kind = options[dest][0]
                if kind is int:
                    try:
                        text = int(text)  # before main lifts the int-to-str digit limit
                    except ValueError:
                        raise CLIError(f"{flag} needs an integer, got {text!r}") from None
                elif kind is not str and text not in kind:
                    raise CLIError(f"{flag} must be one of {', '.join(kind)}, got {text!r}")
                values[dest] = text
        else:
            if command is None:
                raise CLIError(f"missing command, one of {', '.join(COMMANDS)}")
            break
        command, argv = argv[at - 1], argv[at:]
        if command not in COMMANDS:
            raise CLIError(f"unknown command {command!r}, not one of {', '.join(COMMANDS)}")
        options = COMMANDS[command][2]
        values = {dest: default for dest, (_, default, _) in options.items()}
    missing = [flag for flag, dest in flags.items() if values.get(dest) is REQUIRED]
    if missing:
        raise CLIError(f"missing {', '.join(missing)}")
    if unknown:
        raise CLIError(f"unrecognized arguments {' '.join(map(repr, unknown))}")
    return Args(command=command, **values)


def main(argv: list[str] | None = None) -> int:
    # Exact counts outgrow CPython's 4,300-digit int-to-str limit (gaps 2-4
    # reach 4,981 digits at n=30,000). Lift it while the command runs, once
    # the numeric options are read under the default limit.
    saved_limit = sys.get_int_max_str_digits() if _HAS_DIGIT_LIMIT else None
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0  # the help is printed
        if saved_limit is not None:
            sys.set_int_max_str_digits(0)
        return COMMANDS[args.command][0](args)
    except CLIError as err:
        _report(str(err))
        return 2
    except MemoryError:
        pass  # reported below: in here the traceback still holds the memory the command filled
    finally:
        if saved_limit is not None:
            sys.set_int_max_str_digits(saved_limit)
    _report(_OUT_OF_MEMORY.format(args.command))
    return 2


def _report(text: str) -> None:
    """Print one `gapwords: ` line on stderr; nothing when the process has no stderr."""
    if sys.stderr is not None:  # None when the process starts with fd 2 closed
        print(f"gapwords: {text}", file=sys.stderr)


def run() -> None:
    """Run `main()` on `sys.argv` and end the process with its exit code.

    This is the `gapwords` script and `python -m gapwords.cli`. It never
    returns and runs no `atexit` handlers: once stdout, then stderr, are
    flushed, it calls `os._exit`, so the interpreter is not finalized; the
    output is already written, and tearing down every module would only cost
    time. A broken pipe on either stream, as when a reader closes stdout
    early (`gapwords check | head`), exits 1 with nothing on stderr. Any
    other failed write, as to a full disk, and a stdout closed at start exit
    2 with one `gapwords: ` line. Any other exception propagates with its
    traceback.

    Since the process ends here, this is the one place that may fork: with
    two CPUs or more, a `series` longer than one block is written by this
    process and a child forked at the first block cut (`_write_split`). The
    child never returns into `main()`, and is reaped before `main()` does.
    Code that embeds gapwords calls `main()`, which never forks.
    """
    global _may_split
    _may_split = hasattr(os, "sched_getaffinity")
    code = 2
    try:
        if sys.stdout is None:  # the process started with fd 1 closed
            _report("no stdout to write to")
        else:
            code = main()
            sys.stdout.flush()
        if sys.stderr is not None:
            sys.stderr.flush()
    except BrokenPipeError:
        code = 1  # what is still buffered is dropped: os._exit flushes nothing
    except OSError as err:
        code = 2
        try:
            _report(f"write error: {err}")
        except OSError:
            pass  # stderr failed too
    os._exit(code)


if __name__ == "__main__":
    run()
