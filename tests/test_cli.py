"""CLI behaviour: dispatch, formats, diagnostics, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gapwords
from gapwords.cli import CLIError, format_gaps, main, parse_gap_spec
from gapwords.words import GapSet


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGapSpecParsing:
    def test_forms(self):
        assert parse_gap_spec("2-5").gaps == (2, 3, 4, 5)
        assert parse_gap_spec("1,3").gaps == (1, 3)
        assert parse_gap_spec("3,1-2,3").gaps == (1, 2, 3)
        assert parse_gap_spec("{}").gaps == ()
        assert parse_gap_spec("").gaps == ()

    def test_n_token(self):
        assert parse_gap_spec("2-n-1", n=7).gaps == (2, 3, 4, 5, 6)
        assert parse_gap_spec("n-1", n=5).gaps == (4,)
        assert parse_gap_spec("1-n-1", n=4).gaps == (1, 2, 3)
        assert parse_gap_spec("1,n-1", n=9).gaps == (1, 8)
        with pytest.raises(CLIError):
            parse_gap_spec("2-n-1")

    @pytest.mark.parametrize("spec", ["n-10", "n-1-0", "2-n-12", "n-2", "n"])
    def test_n_token_is_whole(self, spec):
        # the token n-1 is matched whole, never as a text prefix
        with pytest.raises(CLIError):
            parse_gap_spec(spec, n=6)

    @pytest.mark.parametrize("bad", ["0", "-2", "x", "3-1", "2--4", "1;2"])
    def test_rejects(self, bad):
        with pytest.raises(CLIError):
            parse_gap_spec(bad)

    def test_format_gaps_roundtrip(self):
        for spec in ["2-5", "1,3", "1-2,5,7-9"]:
            gs = parse_gap_spec(spec)
            assert parse_gap_spec(format_gaps(gs)) == gs
        assert format_gaps(GapSet(())) == "{}"


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

    def test_csv_header(self, capsys):
        _, out, _ = run_cli(
            capsys, "series", "--d1", "1", "--d2", "1", "--count", "3", "--which", "a",
            "--format", "csv",
        )
        assert out.strip().splitlines() == ["n,value", "1,1", "2,2", "3,3"]

    def test_reversed_span_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "series", "--d1", "4", "--d2", "2", "--count", "3", "--which", "a"
        )
        assert code != 0 and err != ""


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
        assert "oracle(n=4): matrix=recurrence=oracle over all gap sets (8): PASS" in out


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

    def test_positional_labels_beyond_alphabet(self, capsys):
        _, out, _ = run_cli(capsys, "dot", "--n", "30", "--gaps", "29")
        assert "x1 -> x30;" in out


class TestEntryPoint:
    def test_reader_closing_early_is_quiet(self):
        # `gapwords series ... | head -1`: the series runs to about 1.5 MB,
        # far past a pipe's buffer, so the child is still writing when the
        # reader goes away.
        src = str(Path(gapwords.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["series", "--d1", "2", "--d2", "4", "--count", "5000", "--which", "a"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "gapwords.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"1,1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""
