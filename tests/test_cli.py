"""CLI behaviour: dispatch, formats, diagnostics, exit codes."""

import argparse
import csv
import io
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
from collections.abc import Iterator
from contextlib import contextmanager, redirect_stderr, redirect_stdout, suppress
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapwords
from gapwords import cli, counting, intervals, latin
from gapwords.cli import COMMANDS, FORMATS, METHODS, CLIError, format_gaps, main, parse_args, parse_gap_spec
from gapwords.words import GapSet


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_digit_limit():
    """Lift the int-to-str digit limit, so expected values print at any size."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def limit_address_space(megabytes):
    """A preexec_fn that caps the child's address space."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))

    return limit


def assert_same_text(got, expected):
    """Byte-for-byte equality that reports the first differing offset.

    A failure shows a short window on each side, where pytest's diff of two
    long strings could run for minutes.
    """
    if got == expected:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
    lo = max(at - 40, 0)
    pytest.fail(
        f"texts of {len(got)} and {len(expected)} characters differ at offset {at}: "
        f"{got[lo:at + 40]!r} != {expected[lo:at + 40]!r}"
    )


def source_env():
    """The environment of a child that imports this checkout's sources.

    Its stdout is buffered, as a shell starts it, even where the tests run
    with PYTHONUNBUFFERED: then only `run()`'s flush writes the last block.
    """
    src = str(Path(gapwords.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def cli_subprocess(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs):
    """Run `python -m gapwords.cli` on this checkout's sources."""
    return subprocess.Popen(
        [sys.executable, "-m", "gapwords.cli", *argv], stdout=stdout, stderr=stderr, env=source_env(), **kwargs
    )


def run_in_child(prelude, *argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs):
    """Run `prelude`, then `cli.run()` on `argv`, in a child; its stdout is captured."""
    code = f"import sys; {prelude}; from gapwords import cli; cli.run()"
    return subprocess.run(
        [sys.executable, "-c", code, *argv], stdout=stdout, stderr=stderr, env=source_env(), timeout=60, **kwargs
    )


@contextmanager
def own_session(proc):
    """Yield `proc`, started with `start_new_session=True`; kill what is left of its session on the way out."""
    try:
        yield proc
    finally:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def assert_no_process_left(proc):
    """No process is left in the session of `proc` once it has ended."""
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


# A prelude that says on stderr when `cli.run()` forks.
SAY_FORK = "import os; fork = os.fork; os.fork = lambda: print('fork', file=sys.stderr, flush=True) or fork()"


def one_cpu():
    """A preexec_fn that pins the child to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# The gap-item grammar as a regex; `\d` is Unicode category Nd, as str.isdecimal() tests.
_GAP_ITEM = re.compile(r"(\d+|n-1)(?:-(\d+|n-1))?")


def regex_parse_gap_spec(text: str, n: int) -> GapSet:
    """`parse_gap_spec` as it was written with a regex: the reference for the string parser."""
    if n < 1:
        raise CLIError("--n must be >= 1")
    s = text.strip()
    if s in ("", "{}"):
        return GapSet(())

    def value(token):
        return n - 1 if token == "n-1" else int(token)

    gaps = []
    for item in s.split(","):
        item = item.strip()
        m = _GAP_ITEM.fullmatch(item)
        if not m:
            raise CLIError(f"bad gap item {item!r}")
        lo = value(m.group(1))
        hi = value(m.group(2)) if m.group(2) else lo
        if (m.group(2) or m.group(1)) == "n-1" and hi < max(lo, 1) and (lo or m.group(1) == "n-1"):
            continue
        if lo < 1:
            raise CLIError(f"gap values must be >= 1, got {lo}")
        if hi < lo:
            raise CLIError(f"empty gap range {item!r}")
        gaps.append(range(lo, min(hi, max(lo, n - 1)) + 1))
    return GapSet(gaps)


# Gap items of every kind, well-formed or not.
GAP_ITEMS = (
    "1", "2", "3", "1-3", "2-5", "n-1", "2-n-1", "1-n-1", "n-1-3", "n-1-n-1", "6-n-1", "0", "0-3", "5-3",
    "1--2", "-2", "2-", "n-10", "n-", "n", "１", "２-４", "²", "٣", " 2 ", "", "{}", "x", "1 - 2",
    "12345678901234567890", "1-12345678901234567890",
)


class TestGapSpecParsing:
    def test_forms(self):
        assert tuple(parse_gap_spec("2-5", n=10)) == (2, 3, 4, 5)
        assert tuple(parse_gap_spec("1,3", n=10)) == (1, 3)
        assert tuple(parse_gap_spec("3,1-2,3", n=10)) == (1, 2, 3)
        assert tuple(parse_gap_spec("{}", n=10)) == ()
        assert tuple(parse_gap_spec("", n=10)) == ()

    def test_n_token(self):
        assert tuple(parse_gap_spec("2-n-1", n=7)) == (2, 3, 4, 5, 6)
        assert tuple(parse_gap_spec("n-1", n=5)) == (4,)
        assert tuple(parse_gap_spec("1-n-1", n=4)) == (1, 2, 3)
        assert tuple(parse_gap_spec("1,n-1", n=9)) == (1, 8)

    def test_range_up_to_n_token_past_its_start_is_empty(self):
        assert tuple(parse_gap_spec("1-n-1", n=1)) == ()
        assert tuple(parse_gap_spec("6-n-1", n=5)) == ()
        assert tuple(parse_gap_spec("1,6-n-1", n=5)) == (1,)
        assert tuple(parse_gap_spec("4-n-1", n=5)) == (4,)
        for spec in ("5-3", "n-1-3"):  # a numeric end below the start stays an error
            with pytest.raises(CLIError, match="empty gap range"):
                parse_gap_spec(spec, n=10)

    def test_lone_n_token_in_one_letter_word_is_empty(self, capsys):
        assert tuple(parse_gap_spec("n-1", n=1)) == ()
        assert tuple(parse_gap_spec("1,n-1", n=1)) == (1,)
        assert run_cli(capsys, "count", "--n", "1", "--gaps", "n-1") == (0, "1\n", "")
        assert run_cli(capsys, "enumerate", "--word", "a", "--gaps", "n-1") == (0, "count: 0\n", "")
        code, out, _ = run_cli(capsys, "dot", "--n", "1", "--gaps", "n-1")
        assert (code, out) == (0, "digraph gapwords {\n  rankdir=LR;\n  a;\n}\n")

    @pytest.mark.parametrize("spec", ["0-n-1", "n-1-5"])
    def test_zero_start_at_one_letter_stays_an_error(self, spec):
        with pytest.raises(CLIError, match="gap values must be >= 1, got 0"):
            parse_gap_spec(spec, n=1)

    def test_ranges_stop_at_word_length(self):
        assert tuple(parse_gap_spec("2-100000", n=10)) == tuple(range(2, 10))
        assert tuple(parse_gap_spec("1,50-60", n=10)) == (1, 50)  # a range past n keeps its start
        assert tuple(parse_gap_spec("50", n=10)) == (50,)
        assert tuple(parse_gap_spec("2-100", n=200)) == tuple(range(2, 101))  # below n-1: whole

    def test_huge_range_in_bounded_memory(self):
        # 300M gaps would need gigabytes as a list; the child gets 1 GB of address space
        proc = cli_subprocess(
            "count", "--n", "10", "--gaps", "1-300000000", preexec_fn=limit_address_space(1024)
        )
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == (0, b"1023\n", b"")

    def test_long_word_range_in_bounded_memory(self):
        # the range is one run at any width, so only the engine's ring of
        # 1.5M slots fills memory; 1.5M gaps as a list of ints would not fit 96 MB
        proc = cli_subprocess(
            "count", "--n", "3000000", "--gaps", "1500000-n-1", preexec_fn=limit_address_space(96)
        )
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out, err) == (0, b"1125003750000\n", b"")

    def test_out_of_memory_is_a_diagnostic(self):
        # the range is never expanded, but a run that stops short of n-1 is
        # read at both ends, so the tail-count ring holds one slot per gap up
        # to its end, and 300M slots outgrow the child's 1 GB
        proc = cli_subprocess(
            "count", "--n", "300000000", "--gaps", "1-299999998", preexec_fn=limit_address_space(1024)
        )
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out) == (2, b"")
        assert err.startswith(b"gapwords: out of memory") and b"Traceback" not in err

    def test_out_of_memory_in_a_listing_is_a_diagnostic(self):
        # the distinct states of a long irregular word outgrow 64 MB before
        # the first line; the diagnostic prints once the traceback has let
        # the filled memory go
        word = "".join(random.Random(2011).choices("ab", k=300))
        diagnostic = b"gapwords: out of memory in enumerate; try a smaller input\n"
        for dedup in ([], ["--dedup"]):
            proc = cli_subprocess(
                "enumerate", "--word", word, "--gaps", "1-3", *dedup, preexec_fn=limit_address_space(64)
            )
            out, err = proc.communicate(timeout=120)
            assert (proc.returncode, out, err) == (2, b"", diagnostic), dedup

    @pytest.mark.parametrize("spec", ["n-10", "n-1-0", "2-n-12", "n-2", "n"])
    def test_n_token_is_whole(self, spec):
        # the token n-1 is matched whole, never as a text prefix
        with pytest.raises(CLIError):
            parse_gap_spec(spec, n=6)

    @pytest.mark.parametrize("bad", ["0", "-2", "x", "3-1", "2--4", "1;2"])
    def test_rejects(self, bad):
        with pytest.raises(CLIError):
            parse_gap_spec(bad, n=10)

    @pytest.mark.parametrize("command", ["count", "dot"])
    def test_length_is_checked_before_gaps(self, capsys, command):
        expected = (2, "", "gapwords: --n must be >= 1\n")
        assert run_cli(capsys, command, "--n", "0", "--gaps", "x") == expected

    def test_format_gaps_roundtrip(self):
        for spec in ["2-5", "1,3", "1-2,5,7-9"]:
            gs = parse_gap_spec(spec, n=10)
            assert parse_gap_spec(format_gaps(gs), n=10) == gs
        assert format_gaps(GapSet(())) == "{}"

    @settings(max_examples=500, deadline=None)
    @given(
        items=st.lists(
            st.one_of(
                st.sampled_from(GAP_ITEMS),
                st.text(alphabet="0123456789n-１²٣ {},", max_size=8),
                st.integers(0, 10**20).map(str),
            ),
            max_size=4,
        ),
        n=st.integers(1, 30),
    )
    def test_string_parser_equals_the_regex_grammar(self, items, n):
        text = ",".join(items)
        outcomes = []
        for parse in (regex_parse_gap_spec, parse_gap_spec):
            try:
                outcomes.append(parse(text, n))
            except CLIError:
                outcomes.append(CLIError)
        assert outcomes[0] == outcomes[1], text


class TestCount:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["count", "--n", "6", "--gaps", "2-5", "--method", "matrix"], "20"),
            (["count", "--n", "13", "--gaps", "2-4", "--method", "recurrence"], "345"),
            (["count", "--n", "7", "--gaps", "4-6", "--method", "super-d"], "13"),
            (["count", "--n", "7", "--gaps", "2-n-1", "--method", "super-d"], "33"),
            (["count", "--n", "7", "--gaps", "2", "--method", "single-gap"], "16"),
            (["count", "--n", "6", "--gaps", "1-3", "--method", "prefix"], "58"),
            (["count", "--n", "4", "--gaps", "1,3", "--method", "formula-1d"], "11"),
            (["count", "--n", "3", "--gaps", "{}"], "3"),
            (["count", "--n", "7", "--gaps", "4-100", "--method", "super-d"], "13"),
            (["count", "--n", "6", "--gaps", "1-100", "--method", "prefix"], "63"),
            (["count", "--n", "10", "--gaps", "50", "--method", "single-gap"], "10"),
            (["count", "--n", "1", "--gaps", "1-n-1"], "1"),
            (["count", "--n", "5", "--gaps", "6-n-1"], str(counting.min_gap_complexity(5, 6))),
        ],
    )
    def test_plain_values(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert out.strip() == expected

    def test_matrix_and_recurrence_agree(self, capsys):
        for n in range(1, 13):
            for d1 in range(1, n):
                for d2 in range(d1, n):
                    gaps = f"{d1}-{d2}" if d2 > d1 else str(d1)
                    _, out_m, _ = run_cli(
                        capsys, "count", "--n", str(n), "--gaps", gaps, "--method", "matrix"
                    )
                    _, out_r, _ = run_cli(
                        capsys, "count", "--n", str(n), "--gaps", gaps, "--method", "recurrence"
                    )
                    assert out_m == out_r, (n, d1, d2)

    def test_json_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--n", "6", "--gaps", "2-5", "--method", "matrix",
            "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record == {"n": 6, "gaps": [2, 3, 4, 5], "method": "matrix", "complexity": "20"}
        assert json.loads(json.dumps(record)) == record

    def test_json_lists_clipped_gaps(self, capsys):
        _, out, _ = run_cli(capsys, "count", "--n", "6", "--gaps", "2-99", "--format", "json")
        assert json.loads(out)["gaps"] == [2, 3, 4, 5]

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--n", "6", "--gaps", "2-5", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,gaps,method,complexity"
        assert lines[1] == "6,2-5,matrix,20"

    def test_big_value_stays_exact_in_json(self, capsys):
        _, out, _ = run_cli(
            capsys, "count", "--n", "70", "--gaps", "1-69", "--format", "json"
        )
        assert json.loads(out)["complexity"] == str(2**70 - 1)

    def test_result_past_int_str_digit_limit(self, capsys):
        # 4,981 digits, above CPython's default 4,300-digit limit
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run_cli(
            capsys, "count", "--n", "30000", "--gaps", "2-4", "--method", "recurrence"
        )
        assert code == 0 and err == ""
        assert len(out.strip()) == 4981
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--n", "7", "--gaps", "1,3", "--method", "recurrence"],
            ["count", "--n", "7", "--gaps", "2-4", "--method", "super-d"],
            ["count", "--n", "7", "--gaps", "2-4", "--method", "prefix"],
            ["count", "--n", "7", "--gaps", "2,4", "--method", "formula-1d"],
            ["count", "--n", "7", "--gaps", "2-4", "--method", "single-gap"],
            ["count", "--n", "6", "--gaps", "1", "--method", "prefix"],  # n < 2d-2
            ["count", "--n", "0", "--gaps", "1"],
            ["count", "--n", "5", "--gaps", "0-3"],
            ["count", "--n", "6", "--gaps", "n-10"],
            ["count", "--n", "10", "--gaps", "5-3"],
        ],
    )
    def test_diagnostics_exit_nonzero(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code != 0
        assert err.startswith("gapwords: ")
        assert out == ""


class TestEnumerate:
    def test_nontrivial_default(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--word", "abcdefgh", "--gaps", "3-7")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[-1] == "count: 19"
        expected = sorted("ad ae af ag adg ah adh aeh be bf bg bh beh cf cg ch dg dh eh".split())
        assert lines[:-1] == expected

    def test_dedup_non_rainbow(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--word", "aabbbaaa", "--gaps", "3-7", "--dedup"
        )
        assert out.strip().splitlines() == ["aa", "ab", "aba", "ba", "count: 4"]

    def test_include_single(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--word", "abcd", "--gaps", "1,3", "--include-single"
        )
        lines = out.strip().splitlines()
        assert lines[-1] == "count: 11"
        assert lines[:-1] == sorted("a ab abc abcd ad b bc bcd c cd d".split())

    def test_json_roundtrip(self, capsys):
        _, out, _ = run_cli(
            capsys, "enumerate", "--word", "abcd", "--gaps", "1,3",
            "--include-single", "--format", "json",
        )
        record = json.loads(out)
        assert record["word"] == "abcd"
        assert record["count"] == "11"
        assert len(record["subwords"]) == 11
        assert json.loads(json.dumps(record)) == record

    def test_csv(self, capsys):
        _, out, _ = run_cli(
            capsys, "enumerate", "--word", "abcd", "--gaps", "3", "--format", "csv"
        )
        assert out.strip().splitlines() == ["subword", "ad"]

    def test_empty_word_rejected(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--word", "", "--gaps", "1")
        assert code != 0 and "nonempty" in err

    def test_csv_of_a_word_holding_nul(self, capsys, monkeypatch):
        # Before 3.11, csv.writer cannot write NUL: such a word is refused
        # before any row. From 3.11 on, the rows are csv.writer's.
        argv = ("enumerate", "--word", "a\0b", "--gaps", "1-n-1", "--format")
        if sys.version_info >= (3, 11):
            listing = run_cli(capsys, *argv, "plain")[1].split("\n")[:-2]  # without the count line
            expected = io.StringIO()
            csv.writer(expected).writerows([["subword"], *([s] for s in listing)])
            assert run_cli(capsys, *argv, "csv") == (0, expected.getvalue(), "")
            assert "\0" in expected.getvalue()
            monkeypatch.setattr(cli, "_CSV_WRITES_NUL", False)
        code, out, err = run_cli(capsys, *argv, "csv")
        assert (code, out) == (2, "")
        assert err.startswith("gapwords: ") and err.count("\n") == 1

    def test_json_listing_in_bounded_memory(self):
        # 20 letters with every gap: about 1M subwords and 16 MB of json,
        # written as they are found, so a 64 MB address space is enough
        word = "abcdefghijklmnopqrst"
        proc = cli_subprocess(
            "enumerate", "--word", word, "--gaps", "1-n-1", "--format", "json",
            preexec_fn=limit_address_space(64),
        )
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")
        record = json.loads(out)
        assert record["count"] == "1048555"
        assert record["subwords"] == latin.nontrivial_subwords(word, range(1, 20))

    def test_periodic_listing_in_bounded_memory(self):
        # ab x 15 has few states, so its 3,524,574 distinct subwords stream in 64 MB
        proc = cli_subprocess(
            "enumerate", "--word", "ab" * 15, "--gaps", "1-n-1", "--dedup",
            preexec_fn=limit_address_space(64),
        )
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")
        assert out.count(b"\n") == 3524574 + 1
        assert out.startswith(b"aa\naaa\naaaa\n")
        assert out.endswith(b"\nbbbbbbbbbbbbbbab\nbbbbbbbbbbbbbbb\ncount: 3524574\n")


# Words whose text needs care in some format: quotes, backslashes, commas,
# line ends of any kind, control characters and letters outside ASCII; and a
# middle first letter that starts no longer subword, and an empty listing.
TEXT_WORDS = ('a"b\\c', 'ab,c"a', "a\nb\na", "\n", "x\r\ny", "é€😀x", "a\tb\x01c", "abcdefgh", "cab", "a")

# Subwords a listing may hold at once: from one stored run up to all.
BUDGETS = (1, 2, 3, latin._BUDGET, math.inf)


class TestEnumerateText:
    @pytest.mark.parametrize("budget", BUDGETS, ids=str)
    def test_each_format_writes_the_library_listing(self, capsys, monkeypatch, budget):
        monkeypatch.setattr(latin, "_BUDGET", budget)
        for word, spec in product(TEXT_WORDS, ("1-n-1", "1,3")):
            gaps = parse_gap_spec(spec, len(word))
            for dedup, singles in product((False, True), repeat=2):
                letters = (sorted(set(word)) if dedup else list(word)) if singles else []
                listing = sorted(latin.nontrivial_subwords(word, gaps, dedup) + letters)
                argv = ["enumerate", "--word", word, "--gaps", spec]
                argv += ["--dedup"] * dedup + ["--include-single"] * singles
                record = {"word": word, "gaps": list(gaps), "count": str(len(listing)), "subwords": listing}
                table = io.StringIO()
                csv.writer(table).writerows([["subword"], *([s] for s in listing)])
                expected = {
                    "plain": "\n".join([*listing, f"count: {len(listing)}"]) + "\n",
                    "json": json.dumps(record) + "\n",
                    "csv": table.getvalue(),
                }
                for fmt, out in expected.items():
                    assert run_cli(capsys, *argv, "--format", fmt) == (0, out, ""), (argv, fmt)


class TestSeries:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--d1", "2", "--d2", "4", "--count", "1", "--which", "a"
        )
        assert code == 0
        assert out.strip() == "1,1"

    def test_tail_series_table(self, capsys):
        _, out, _ = run_cli(
            capsys, "series", "--d1", "2", "--d2", "4", "--count", "13", "--which", "a"
        )
        lines = out.strip().splitlines()
        assert len(lines) == 13
        assert lines[-1] == "13,112"

    def test_complexity_series_json(self, capsys):
        _, out, _ = run_cli(
            capsys, "series", "--d1", "2", "--d2", "4", "--count", "13", "--which", "K",
            "--format", "json",
        )
        record = json.loads(out)
        assert record["which"] == "K"
        assert record["coefficients"][0] == {"n": 1, "value": "1"}
        assert record["coefficients"][-1] == {"n": 13, "value": "345"}

    @pytest.mark.parametrize("which, d1, d2, count", [("a", 1, 1, 1), ("K", 2, 4, 13), ("a", 3, 5, 40), ("K", 1, 2, 300)])
    def test_json_equals_json_dumps_of_the_record(self, capsys, which, d1, d2, count):
        series = intervals.tail_count_series if which == "a" else intervals.complexity_series
        values = series(d1, d2, count)[1:]
        record = {
            "d1": d1,
            "d2": d2,
            "which": which,
            "coefficients": [{"n": i, "value": str(v)} for i, v in enumerate(values, 1)],
        }
        argv = ["series", "--which", which, "--d1", str(d1), "--d2", str(d2), "--count", str(count)]
        assert run_cli(capsys, *argv, "--format", "json") == (0, json.dumps(record) + "\n", "")

    def test_csv_header(self, capsys):
        _, out, _ = run_cli(
            capsys, "series", "--d1", "1", "--d2", "1", "--count", "3", "--which", "a",
            "--format", "csv",
        )
        assert out == "n,value\r\n1,1\r\n2,2\r\n3,3\r\n"

    def test_reversed_span_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "series", "--d1", "4", "--d2", "2", "--count", "3", "--which", "a"
        )
        assert code != 0 and err != ""

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize(
        "span", [("--d1", "4", "--d2", "2", "--count", "3"), ("--d1", "2", "--d2", "4", "--count", "0")]
    )
    def test_bad_arguments_print_nothing(self, capsys, span, fmt):
        code, out, err = run_cli(capsys, "series", *span, "--which", "K", "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("gapwords: ")

    @pytest.mark.parametrize(
        "d1, d2, count",
        [(2, 3, 20000), (1, 2, 21000)],  # the second passes 4,300 digits
    )
    def test_long_series_match_library(self, capsys, no_digit_limit, d1, d2, count):
        values = [str(v) for v in intervals.complexity_series(d1, d2, count)[1:]]
        argv = ["series", "--which", "K", "--d1", str(d1), "--d2", str(d2), "--count", str(count)]
        outs = {}
        for fmt in ("plain", "csv", "json"):
            code, outs[fmt], err = run_cli(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, "")
        lines = [f"{i},{v}" for i, v in enumerate(values, 1)]
        assert_same_text(outs["plain"], "".join(f"{line}\n" for line in lines))
        assert_same_text(outs["csv"], "".join(f"{line}\r\n" for line in ["n,value", *lines]))
        record = {
            "d1": d1,
            "d2": d2,
            "which": "K",
            "coefficients": [{"n": i, "value": v} for i, v in enumerate(values, 1)],
        }
        assert_same_text(outs["json"], json.dumps(record) + "\n")

    def test_json_series_in_bounded_memory(self):
        # a 20,000-term json series is about 25 MB of text; it streams, so a
        # 64 MB address space is enough (the whole record built at once needs
        # more than 96 MB)
        proc = cli_subprocess(
            "series", "--which", "K", "--d1", "2", "--d2", "3", "--count", "20000",
            "--format", "json", preexec_fn=limit_address_space(64),
        )
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")
        coefficients = json.loads(out)["coefficients"]
        assert len(coefficients) == 20000
        last = intervals.complexity_series(2, 3, 20000)[-1]
        assert coefficients[-1] == {"n": 20000, "value": str(last)}


def per_row_write(fmt, record, header, rows, lines):
    """`cli._write` as it was before it wrote in blocks: the reference for its output.

    One print per plain line, `writelines` for the csv rows of plain lines,
    and one write per json batch.
    """
    if fmt == "json":
        fields = record()
        key = next(reversed(fields))
        batches = fields[key]
        if isinstance(batches, Iterator):
            fields[key] = []
            sys.stdout.write(json.dumps(fields)[:-2])
            sep = ""
            for batch in batches:
                sys.stdout.write(sep + batch)
                sep = ", "
            print("]}")
        else:
            print(json.dumps(fields))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        if rows is None:
            sys.stdout.writelines(f"{line}\r\n" for line in lines)
        else:
            writer.writerows(rows)
    else:
        for line in lines:
            print(line)
    return 0


class WriteOnlyStdout:
    """A stdout with only `write` and `flush`, like the benchmark tracer's sink."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def series_argv(which, count, fmt, d1=2, d2=4):
    return ["series", "--which", which, "--d1", str(d1), "--d2", str(d2), "--count", str(count), "--format", fmt]


def block_cuts(which, fmt, d1=2, d2=4):
    """The series lengths at which the block writer makes its first two cuts."""
    values = (intervals.tail_count_series if which == "a" else intervals.complexity_series)(d1, d2, 2000)[1:]
    texts = (f'{{"n": {i}, "value": "{v}"}}' if fmt == "json" else f"{i},{v}" for i, v in enumerate(values, 1))
    cuts, size = [], 0
    for count, text in enumerate(texts, 1):
        size += len(text)
        if size >= cli._BLOCK:
            cuts.append(count)
            size = 0
    return cuts[:2]


class TestBlockWriter:
    def outputs(self, capsys, monkeypatch, argv):
        """The output of one command through the block writer, and through the per-row reference."""
        blocks = run_cli(capsys, *argv)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_write", per_row_write)
            rows = run_cli(capsys, *argv)
        assert blocks[0] == rows[0] == 0 and blocks[2] == rows[2] == ""
        return blocks[1], rows[1]

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("which", ["a", "K"])
    def test_series_around_block_cuts_equal_the_per_row_writer(self, capsys, monkeypatch, which, fmt):
        cuts = block_cuts(which, fmt)
        assert len(cuts) == 2 and cuts[0] > 2
        for count in (1, 2, *(cut + step for cut in cuts for step in (-1, 0, 1))):
            got, expected = self.outputs(capsys, monkeypatch, series_argv(which, count, fmt))
            assert_same_text(got, expected)

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_small_blocks_equal_the_per_row_writer(self, capsys, monkeypatch, block):
        # every text, or a few, per block: a cut after each row and inside none
        monkeypatch.setattr(cli, "_BLOCK", block)
        for which, fmt in product(("a", "K"), FORMATS):
            got, expected = self.outputs(capsys, monkeypatch, series_argv(which, 200, fmt))
            assert_same_text(got, expected)
        for word, fmt in product(TEXT_WORDS, FORMATS):
            argv = ["enumerate", "--word", word, "--gaps", "1-n-1", "--include-single", "--format", fmt]
            got, expected = self.outputs(capsys, monkeypatch, argv)
            assert got == expected, (word, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("which", ["a", "K"])
    def test_long_series_equal_the_per_row_writer(self, capsys, monkeypatch, which, fmt):
        # 21,000 terms of gaps 1-2 pass 4,300 digits
        got, expected = self.outputs(capsys, monkeypatch, series_argv(which, 21000, fmt, 1, 2))
        assert_same_text(got, expected)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_long_series_take_few_writes(self, fmt):
        stdout = WriteOnlyStdout()
        with redirect_stdout(stdout):
            assert main(series_argv("a", 20000, fmt, 3, 5)) == 0
        # about 24 MB of digits; every write but a header and the last one holds a full block
        assert len(stdout.writes) <= sum(map(len, stdout.writes)) // cli._BLOCK + 2
        assert len(stdout.writes) < 20000 / 3

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--n", "13", "--gaps", "2-4"),
            ("series", "--which", "a", "--d1", "2", "--d2", "4", "--count", "3000"),
            ("series", "--which", "K", "--d1", "2", "--d2", "4", "--count", "1"),
            ("enumerate", "--word", "abcdefghij", "--gaps", "1-n-1"),
            ("enumerate", "--word", 'a"b,é', "--gaps", "1-n-1", "--dedup"),
            ("enumerate", "--word", "a", "--gaps", "1-n-1"),
        ],
        ids=["count", "series-a-3000", "series-K-1", "enumerate", "enumerate-dedup-quote", "enumerate-empty"],
    )
    def test_stdout_needs_only_write_and_flush(self, capsys, argv, fmt):
        stdout = WriteOnlyStdout()
        with redirect_stdout(stdout):
            code = main([*argv, "--format", fmt])
        assert (code, "".join(stdout.writes), "") == run_cli(capsys, *argv, "--format", fmt)


class TestFormats:
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--n", "13", "--gaps", "2-4"),
            ("count", "--n", "9", "--gaps", "1,3,n-1", "--method", "matrix"),
            ("enumerate", "--word", "abcde", "--gaps", "1,3", "--include-single"),
            ("enumerate", "--word", "a,b", "--gaps", "1"),
            ("series", "--which", "a", "--d1", "2", "--d2", "4", "--count", "13"),
            ("series", "--which", "K", "--d1", "2", "--d2", "4", "--count", "13"),
            ("enumerate", "--word", "dbgacfe", "--gaps", "1,3", "--include-single"),
            ("enumerate", "--word", "ab,ba,", "--gaps", "1-2"),
        ],
        ids=lambda argv: "-".join(argv),
    )
    def test_plain_csv_and_json_carry_the_same_values(self, capsys, argv):
        outs = {}
        for fmt in ("plain", "csv", "json"):
            code, outs[fmt], _ = run_cli(capsys, *argv, "--format", fmt)
            assert code == 0
        plain = outs["plain"].splitlines()
        header, *rows = csv.reader(io.StringIO(outs["csv"]))
        record = json.loads(outs["json"])
        if argv[0] == "count":
            gaps = format_gaps(GapSet(tuple(record["gaps"])))
            assert header == ["n", "gaps", "method", "complexity"]
            assert rows == [[str(record["n"]), gaps, record["method"], record["complexity"]]]
            assert plain == [record["complexity"]]
        elif argv[0] == "enumerate":
            subwords = record["subwords"]
            assert record["count"] == str(len(subwords))
            assert header == ["subword"]
            assert rows == [[s] for s in subwords]
            assert outs["csv"].splitlines()[1:] == [f'"{s}"' if "," in s else s for s in subwords]
            assert plain == subwords + [f"count: {record['count']}"]
        else:
            assert header == ["n", "value"]
            assert rows == [[str(c["n"]), c["value"]] for c in record["coefficients"]]
            assert plain == [",".join(row) for row in rows]


class TestCheck:
    def test_bound_line_present(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n-max", "7")
        assert code == 0
        assert "bound(7,2,3)=27 ≥ exact 25: PASS" in out
        assert "FAIL" not in out

    def test_correspondence_line(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n-max", "5", "--d-max", "3")
        assert code == 0
        assert "correspondence(5,3): 19=19 PASS" in out

    def test_trivial_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n-max", "1")
        assert code == 0
        assert "FAIL" not in out

    def test_oracle_lines(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n-max", "4", "--d-max", "2")
        assert code == 0
        assert "oracle(n=4): Warshall=methods=enumeration=oracle over all gap sets (8): PASS" in out
        routes = "enumeration=set-valued Warshall=oracle (with and without dedup)"
        assert f"oracle(words over ab, n<=4): {routes} over 58 sampled word/gap-set pairs: PASS" in out

    def test_closed_form_fault_is_caught(self, capsys, monkeypatch):
        single_gap = counting.single_gap_complexity
        monkeypatch.setattr(
            counting,
            "single_gap_complexity",
            lambda n, d: single_gap(n, d) + (n == 7),
        )
        code, out, _ = run_cli(capsys, "check", "--n-max", "8")
        assert code == 1
        assert "single-gap mismatch" in out

    def test_direct_recurrence_fault_is_caught(self, capsys, monkeypatch):
        direct = intervals.tail_counts

        def off_at_seven(n, d1, d2):
            values = direct(n, d1, d2)
            values[-1] += n == 7
            return values

        monkeypatch.setattr(intervals, "tail_counts", off_at_seven)
        code, out, _ = run_cli(capsys, "check", "--n-max", "8")
        assert code == 1
        assert "direct recurrence mismatch" in out

    def test_repeated_subword_is_caught(self, capsys, monkeypatch):
        listing = latin.nontrivial_subwords

        def repeat_first(word, gaps):
            found = listing(word, gaps)
            return found + found[:1]

        monkeypatch.setattr(latin, "nontrivial_subwords", repeat_first)
        code, out, _ = run_cli(capsys, "check", "--n-max", "6")
        assert code == 1
        assert "enumeration mismatch" in out

    def test_listing_fault_on_repeated_letters_is_caught(self, capsys, monkeypatch):
        # a listing that merges the copies of a string from several cells
        # leaves rainbow words as they are; only the words over {a,b} show it
        text = latin.subword_text

        def merge_copies(word, gaps, dedup=False, singles=False):
            return text(word, gaps, True, singles)

        monkeypatch.setattr(latin, "subword_text", merge_copies)
        code, out, _ = run_cli(capsys, "check", "--n-max", "6")
        assert code == 1
        assert "oracle(n=6): Warshall=methods=enumeration=oracle over all gap sets (32): PASS" in out
        assert "oracle(words over ab, n<=6): enumeration mismatch" in out

    def test_set_pass_fault_is_caught(self, capsys, monkeypatch):
        # no listing runs the set-valued pass, so only check's own
        # comparison with the Warshall cells can see this
        concat = latin._concat

        def drop_one(cell, left, right):
            return concat(cell, left, right) - {"abcd"}

        monkeypatch.setattr(latin, "_concat", drop_one)
        code, out, _ = run_cli(capsys, "check", "--n-max", "6")
        assert code == 1
        assert "set-valued Warshall mismatch" in out

    def test_warshall_matrix_fault_is_caught(self, capsys, monkeypatch):
        paths = counting.path_counts

        def off_at_seven(matrix):
            counts = paths(matrix)
            counts[0][-1] += len(matrix) == 7
            return counts

        monkeypatch.setattr(counting, "path_counts", off_at_seven)
        code, out, _ = run_cli(capsys, "check", "--n-max", "8")
        assert code == 1
        assert "oracle(n=7): Warshall matrix mismatch" in out

    def test_sampled_and_skipped_oracle_lines(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n-max", "11", "--d-max", "2")
        assert code == 0
        lines = out.splitlines()
        for n in (9, 10):
            label = f"oracle(n={n}): Warshall=methods=enumeration=oracle"
            assert f"{label} over 200 sampled gap sets (200): PASS" in lines
        assert "oracle(n=11): SKIP (brute force capped at n=10)" in lines

    @pytest.mark.parametrize("bound", ["--n-max", "--d-max"])
    def test_bounds_below_one_rejected(self, capsys, bound):
        code, out, err = run_cli(capsys, "check", bound, "0")
        assert (code, out) == (2, "")
        assert err == "gapwords: --n-max and --d-max must be >= 1\n"


class TestDot:
    def test_worked_graph(self, capsys):
        code, out, _ = run_cli(capsys, "dot", "--n", "6", "--gaps", "2-5")
        assert code == 0
        assert out.count("->") == 10
        assert "digraph" in out
        assert "  a -> c;" in out and "  b -> f;" in out

    def test_isolated_nodes(self, capsys):
        _, out, _ = run_cli(capsys, "dot", "--n", "3", "--gaps", "{}")
        assert out.count("->") == 0
        for node in ["a;", "b;", "c;"]:
            assert node in out

    def test_gap_pair_edges(self, capsys):
        _, out, _ = run_cli(capsys, "dot", "--n", "4", "--gaps", "1,3")
        assert out.count("->") == 4

    def test_edge_order(self, capsys):
        _, out, _ = run_cli(capsys, "dot", "--n", "6", "--gaps", "1,3")
        edges = [line.strip() for line in out.splitlines() if "->" in line]
        assert edges == [
            "a -> b;", "a -> d;", "b -> c;", "b -> e;", "c -> d;", "c -> f;", "d -> e;", "e -> f;",
        ]

    def test_positional_labels_beyond_alphabet(self, capsys):
        _, out, _ = run_cli(capsys, "dot", "--n", "30", "--gaps", "29")
        assert "x1 -> x30;" in out

    def test_large_graph_in_bounded_memory(self):
        # 2,001,003 lines, about 38 MB, printed a node at a time in 64 MB of address space
        n = 2000
        proc = cli_subprocess(
            "dot", "--n", str(n), "--gaps", "1-n-1", preexec_fn=limit_address_space(64)
        )
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")
        lines = out.decode().splitlines()
        assert len(lines) == 3 + n + n * (n - 1) // 2
        assert lines[:4] == ["digraph gapwords {", "  rankdir=LR;", "  x1;", "  x2;"]
        assert lines[-3:] == ["  x1998 -> x2000;", "  x1999 -> x2000;", "}"]


class TestEntryPoint:
    @pytest.mark.parametrize(
        "fmt, head",
        [
            ("plain", b"1,1\n"),
            ("csv", b"n,value\r\n1,1\r\n"),
            ("json", b'{"d1": 2, "d2": 4, "which": "a", "coefficients": [{"n": 1, "value": "1"}, '),
        ],
        ids=["plain", "csv", "json"],
    )
    def test_reader_closing_early_is_quiet(self, fmt, head):
        # `gapwords series ... | head -c N`, after the first row: the series
        # runs to about 1.5 MB, far past a pipe's buffer, so the child is
        # still writing when the reader goes away.
        argv = series_argv("a", 5000, fmt)
        with own_session(cli_subprocess(*argv, start_new_session=True)) as proc:
            assert proc.stdout.read(len(head)) == head
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_series_to_a_file_equals_main(self, capsys, tmp_path, fmt):
        # a regular file, not a pipe, holds all 24 MB the process wrote before it ended
        argv = series_argv("a", 20000, fmt, 3, 5)
        path = tmp_path / "out"
        with open(path, "wb") as out:
            proc = cli_subprocess(*argv, stdout=out)
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")
        code, expected, _ = run_cli(capsys, *argv)
        assert code == 0
        assert_same_text(path.read_bytes().decode(), expected)

    def test_usage_error_to_a_file(self, tmp_path):
        path = tmp_path / "err"
        with open(path, "wb") as err:
            proc = cli_subprocess("count", "--n", "x", "--gaps", "1", stderr=err)
            out, _ = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (2, b"")
        text = path.read_text()
        assert text.startswith("gapwords: ") and text.count("\n") == 1

    def test_diagnostic_to_a_closed_stderr_exits_1(self):
        # The reader of stderr is gone before the usage error is written. A
        # traceback would go to the excepthook, which reports it on stdout.
        hook = "sys.excepthook = lambda kind, *_: print('uncaught', kind.__name__)"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_in_child(hook, "count", "--n", "x", "--gaps", "1", stderr=write_end)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stdout) == (1, b"")

    def test_atexit_handlers_do_not_run(self):
        hook = "import atexit; atexit.register(print, 'atexit ran')"
        proc = run_in_child(hook, "count", "--n", "6", "--gaps", "2-5")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"20\n", b"")

    @pytest.mark.parametrize(
        "argv", [("count", "--n", "3", "--gaps", "1"), series_argv("a", 30000, "plain", 2, 3)], ids=["count", "series"]
    )
    def test_full_disk_is_one_line(self, argv):
        with open("/dev/full", "wb") as full:
            proc = cli_subprocess(*argv, stdout=full, preexec_fn=one_cpu)
            _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (2, b"gapwords: write error: [Errno 28] No space left on device\n")

    def test_closed_stdout_at_start_is_one_line(self):
        proc = cli_subprocess("count", "--n", "3", "--gaps", "1", stdout=None, preexec_fn=lambda: os.close(1))
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (2, b"gapwords: no stdout to write to\n")

    def test_diagnostic_with_fd_2_closed_goes_nowhere(self):
        # not to stdout, where print() sends text when its file is None
        proc = cli_subprocess("count", "--n", "x", "--gaps", "1", preexec_fn=lambda: os.close(2))
        out, _ = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (2, b"")

    def test_closed_fd_2_at_start_is_no_error(self):
        # With fd 2 closed, sys.stderr is None; the run still flushes stdout and exits 0.
        proc = cli_subprocess("count", "--n", "6", "--gaps", "2-5", preexec_fn=lambda: os.close(2))
        out, _ = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (0, b"20\n")


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="a series is split only on two CPUs or more"
)
class TestSplitSeries:
    """`run()` writes a series longer than one block from two processes."""

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("which", ["a", "K"])
    def test_split_output_equals_main(self, capsys, which, fmt):
        cut = block_cuts(which, fmt)[0]
        cases = [series_argv(which, count, fmt) for count in (cut - 1, cut, cut + 1)]
        for argv in [*cases, series_argv(which, 20000, fmt, 3, 5)]:
            proc = cli_subprocess(*argv)
            out, err = proc.communicate(timeout=120)
            code, expected, _ = run_cli(capsys, *argv)
            assert (proc.returncode, err, code) == (0, b"", 0), argv
            assert_same_text(out.decode(), expected)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_forks_at_the_first_cut(self, capsys, fmt):
        cut = block_cuts("K", fmt)[0]
        for count, says in ((cut - 1, b""), (cut, b"fork\n")):
            argv = series_argv("K", count, fmt)
            proc = run_in_child(SAY_FORK, *argv)
            assert (proc.returncode, proc.stderr) == (0, says)
            assert proc.stdout.decode() == run_cli(capsys, *argv)[1]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_one_cpu_writes_the_same_bytes_without_a_fork(self, capsys, fmt):
        argv = series_argv("K", 20000, fmt, 3, 5)
        proc = cli_subprocess(*argv, preexec_fn=one_cpu)
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")
        assert_same_text(out.decode(), run_cli(capsys, *argv)[1])
        assert run_in_child(SAY_FORK, *series_argv("K", 3000, fmt), preexec_fn=one_cpu).stderr == b""

    def test_stdout_encoding_unlike_ascii_is_not_split(self, capsys):
        # blocks encoded apart would each start with a byte order mark
        argv = series_argv("K", 3000, "plain")
        proc = run_in_child(SAY_FORK + "; sys.stdout.reconfigure(encoding='utf-16')", *argv)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.decode("utf-16") == run_cli(capsys, *argv)[1]

    @pytest.mark.parametrize("size", [4, 1 << 20], ids=["first-row", "1MB"])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_reader_closing_early_leaves_no_process(self, fmt, size):
        with own_session(cli_subprocess(*series_argv("K", 20000, fmt, 3, 5), start_new_session=True)) as proc:
            assert len(proc.stdout.read(size)) == size
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
            assert (proc.returncode, err) == (1, b"")
            assert_no_process_left(proc)

    def test_full_disk_is_one_line_from_the_parent(self):
        # plain output has nothing buffered at the first cut, so the fork comes before the first failed write
        with open("/dev/full", "wb") as full:
            proc = run_in_child(SAY_FORK, *series_argv("a", 30000, "plain", 2, 3), stdout=full)
        assert proc.returncode == 2
        assert proc.stderr == b"fork\ngapwords: write error: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("writer", ["parent", "child"])
    def test_failed_write_of_either_process_is_one_line(self, capsys, tmp_path, writer):
        # A file size limit fails the write of block 0 (the parent's) or block 1 (the child's).
        resource = pytest.importorskip("resource")
        argv = series_argv("a", 20000, "plain", 3, 5)
        expected = run_cli(capsys, *argv)[1].encode()
        first = len(b"\n".join(expected.split(b"\n")[:block_cuts("a", "plain", 3, 5)[0]]))
        limit = first // 2 if writer == "parent" else first + 100

        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

        path = tmp_path / "out"
        with open(path, "wb") as out:
            proc = cli_subprocess(*argv, stdout=out, preexec_fn=limit_file_size, start_new_session=True)
            with own_session(proc):
                _, err = proc.communicate(timeout=120)
                assert (proc.returncode, err) == (2, b"gapwords: write error: [Errno 27] File too large\n")
                assert_no_process_left(proc)
        assert path.read_bytes() == expected[:limit]

    def test_main_never_forks(self, capsys, monkeypatch):
        forks = []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or pytest.fail("main() forked"))
        argv = series_argv("K", 20000, "json", 3, 5)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err, forks) == (0, "", [])
        assert json.loads(out)["coefficients"][-1]["n"] == 20000


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI had: the reference that `parse_args` must read argv as."""
    parser = argparse.ArgumentParser(prog="gapwords")
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count")
    count.add_argument("--n", type=int, required=True)
    count.add_argument("--gaps", required=True)
    count.add_argument("--method", choices=METHODS, default="matrix")
    count.add_argument("--format", choices=["plain", "json", "csv"], default="plain")

    enum = sub.add_parser("enumerate")
    enum.add_argument("--word", required=True)
    enum.add_argument("--gaps", required=True)
    enum.add_argument("--include-single", action="store_true")
    enum.add_argument("--dedup", action="store_true")
    enum.add_argument("--format", choices=["plain", "json", "csv"], default="plain")

    series = sub.add_parser("series")
    series.add_argument("--d1", type=int, required=True)
    series.add_argument("--d2", type=int, required=True)
    series.add_argument("--count", type=int, required=True)
    series.add_argument("--which", choices=["a", "K"], required=True)
    series.add_argument("--format", choices=["plain", "json", "csv"], default="plain")

    check = sub.add_parser("check")
    check.add_argument("--n-max", type=int, default=8, dest="n_max")
    check.add_argument("--d-max", type=int, default=6, dest="d_max")

    dot = sub.add_parser("dot")
    dot.add_argument("--n", type=int, required=True)
    dot.add_argument("--gaps", required=True)
    return parser


FLAGS = sorted({"--" + dest.replace("_", "-") for _, _, options in COMMANDS.values() for dest in options})
# Each of these asks for help wherever it stands. argparse reads `-h` followed
# by other letters by version (3.13 takes -hx as -h and an unknown -x; 3.10-3.12
# refuse it), and `parse_args` reads it as 3.10-3.12 do; so no other token
# starting with -h is drawn below.
HELP_FORMS = ("-h", "--help", "--h", "--he", "--hel", "-hh")
OPTION_VALUES = (
    "5", "0", "-5", "-.5", "-5.", "-1.5", "+5", " 5 ", "5_0", "５", "²", "-５", "-5\n", "5\n",
    "-x", "-x y", "a b", "x", "", "-", "json", "csv", "plain", "xml", "a", "K", *METHODS,
    "1-3", "-1-3", "n-1", "12345678901234567890",
)
# Texts that int() reads, and some it does not.
INT_TEXTS = ("-5", "+5", " 5 ", "5_0", "５", "-５", "-5\n", "0", "-0", "x", "²", "5.0", "")
NOISE = st.one_of(
    st.sampled_from(FLAGS),
    st.tuples(st.sampled_from(FLAGS), st.sampled_from(OPTION_VALUES)).map("=".join),
    st.sampled_from(OPTION_VALUES),
    st.sampled_from(("--", "--x", "--x=1", "-x", "-n", "---", "--=", "--=x", "--help=x", "-h=", *COMMANDS)),
    st.sampled_from(HELP_FORMS),
    st.text(max_size=4).filter(lambda token: not token.startswith("-h")),
)


@st.composite
def argvs(draw):
    """A command (or none) with most of its options, each whole or a prefix, its value
    apart or after =, then a few tokens of any kind anywhere."""
    command = draw(st.sampled_from((*COMMANDS, *COMMANDS, *COMMANDS, "bogus", None)))
    argv = [command] if command else []
    for dest, (kind, _, _) in COMMANDS.get(command, (None, None, {}))[2].items():
        if draw(st.integers(0, 9)) == 0:
            continue
        flag = "--" + dest.replace("_", "-")
        flag = flag[: draw(st.sampled_from((len(flag),) * 4 + (3, 4)))]
        if kind is bool:
            argv.append(flag)
            continue
        if kind is int:
            fitting = st.one_of(st.integers(-99, 99).map(str), st.sampled_from(INT_TEXTS))
        else:
            fitting = st.sampled_from(kind if type(kind) is tuple else OPTION_VALUES)
        value = draw(st.one_of(fitting, fitting, fitting, st.sampled_from(OPTION_VALUES)))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    for _ in range(draw(st.sampled_from((0, 0, 0, 0, 1, 1, 2, 3)))):
        argv.insert(draw(st.integers(0, len(argv))), draw(NOISE))
    return argv


def argparse_outcome(argv):
    """The reference parser's values for argv, without the handler, or its exit code."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            values = vars(build_parser().parse_args(argv))
    except SystemExit as exit:
        return exit.code
    return values


class TestOptionParser:
    @settings(max_examples=1000, deadline=None)
    @given(argv=argvs())
    def test_reads_argv_as_argparse(self, argv):
        expected = argparse_outcome(argv)
        if isinstance(expected, dict):
            assert vars(parse_args(argv)) == expected, argv
            return
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code == expected, argv
        if code == 0:
            assert out.getvalue().startswith("usage: gapwords") and err.getvalue() == "", argv
        else:
            assert out.getvalue() == "", argv
            assert err.getvalue().startswith("gapwords: ") and err.getvalue().count("\n") == 1, argv

    @pytest.mark.parametrize("command", [None, *COMMANDS])
    @pytest.mark.parametrize("form", HELP_FORMS)
    def test_help_lists_the_table(self, capsys, command, form):
        argv = [command, form] if command else [form]
        assert argparse_outcome(argv) == 0
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        if command:
            _, about, options = COMMANDS[command]
            words = [about, *("--" + dest.replace("_", "-") for dest in options)]
        else:
            words = [*COMMANDS, *(about for _, about, _ in COMMANDS.values())]
        assert all(word in out for word in words), out

    def test_usage_errors_are_one_line(self, capsys):
        assert run_cli(capsys, "series", "--d", "2") == (
            2, "", "gapwords: ambiguous option '--d' could be --d1, --d2\n"
        )
        assert run_cli(capsys, "count", "--n", "x", "--gaps", "1") == (
            2, "", "gapwords: --n needs an integer, got 'x'\n"
        )
        assert run_cli(capsys, "enumerate", "--d", "--word", "aab", "--gaps=1") == (
            0, "aa\naab\nab\ncount: 3\n", ""
        )
        assert run_cli(capsys, "count", "--n=6", "--gaps=2-5", "--form", "json") == (
            0, '{"n": 6, "gaps": [2, 3, 4, 5], "method": "matrix", "complexity": "20"}\n', ""
        )


# Words whose text needs care in json, csv or plain output.
ODD_WORDS = st.one_of(st.text(alphabet='ab\\,', max_size=6), st.text(alphabet='ab"\\,\x00\n\r\t\x7féx😀', max_size=6))
GAP_SPECS = st.lists(st.sampled_from(GAP_ITEMS), min_size=1, max_size=3).map(",".join)


class TestNoInputCrashes:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        command=st.sampled_from(list(COMMANDS)),
        fmt=st.sampled_from(FORMATS),
    )
    def test_every_run_exits_0_or_2(self, data, command, fmt):
        small = st.integers(-1, 12).map(str)
        draw = data.draw
        if command == "count":
            argv = ["--n", draw(small), "--gaps", draw(GAP_SPECS), "--method", draw(st.sampled_from(METHODS))]
        elif command == "enumerate":
            argv = ["--word", draw(ODD_WORDS), "--gaps", draw(GAP_SPECS)]
            argv += ["--dedup"] * draw(st.booleans()) + ["--include-single"] * draw(st.booleans())
        elif command == "series":
            argv = ["--d1", draw(small), "--d2", draw(small), "--count", draw(st.integers(-1, 40).map(str))]
            argv += ["--which", draw(st.sampled_from("aK"))]
        elif command == "check":
            argv = ["--n-max", draw(st.integers(-1, 4).map(str)), "--d-max", draw(st.integers(-1, 3).map(str))]
        else:
            argv = ["--n", draw(small), "--gaps", draw(GAP_SPECS)]
        if "format" in COMMANDS[command][2]:
            argv += ["--format", fmt]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, *argv])
        assert code in (0, 2), (argv, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("gapwords: ") and err.getvalue().count("\n") == 1
        elif fmt == "json" and "format" in COMMANDS[command][2]:
            text = out.getvalue()
            assert text == json.dumps(json.loads(text)) + "\n", argv


def modules_after(*argv):
    """stdout and the loaded modules of a child that runs `main(argv)` and exits.

    The child runs under -S: a site hook may preload modules such as typing
    or random, which would hide what the command itself loads.
    """
    code = (
        "import sys, gapwords.cli; gapwords.cli.main(sys.argv[1:]); "
        "print(*sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], capture_output=True, env=source_env(), check=True
    )
    return proc.stdout.decode(), set(proc.stderr.decode().split())


class TestImports:
    # Modules that no plain count needs: each is loaded by the format or the
    # subcommand that uses it, or by no command at all.
    LAZY = {
        "dataclasses", "inspect", "typing", "json", "csv", "random", "decimal", "gapwords.oracle",
        "argparse", "gettext", "locale", "re", "gapwords.intervals", "gapwords.latin",
    }

    def test_count_loads_only_what_it_runs(self):
        out, loaded = modules_after("count", "--n", "240", "--gaps", "1,3,7")
        assert out == "79018068797823987412213936053614886217498072\n"
        assert "gapwords.counting" in loaded
        assert not self.LAZY & loaded

    @pytest.mark.parametrize(
        "argv, module",
        [
            (["enumerate", "--word", 'a"b', "--gaps", "1", "--format", "json"], "json"),
            (["count", "--n", "6", "--gaps", "2-5", "--format", "csv"], "csv"),
            (["check", "--n-max", "2"], "gapwords.oracle"),
        ],
        ids=["json", "csv", "check"],
    )
    def test_format_or_subcommand_loads_its_module(self, argv, module):
        out, loaded = modules_after(*argv)
        assert out and module in loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--n", "6", "--gaps", "2-5", "--format", "json"],
            ["series", "--d1", "2", "--d2", "4", "--count", "13", "--which", "K", "--format", "json"],
            ["enumerate", "--word", "a b,c", "--gaps", "1-n-1", "--format", "json"],
        ],
        ids=["count", "series", "enumerate"],
    )
    def test_json_of_plain_words_loads_no_json(self, argv):
        out, loaded = modules_after(*argv)
        assert json.loads(out) and "json" not in loaded
