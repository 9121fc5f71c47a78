"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/selftest.py

The last test runs the traced benchmark twice per workload (about three
minutes in all); select the others with ``-k "not repeat"``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gapwords import oracle  # noqa: E402
from reference import Reference, subwords_by_end, tail_counts  # noqa: E402
from workloads import WORKLOADS, Plan, count_case, enumerate_case, series_case  # noqa: E402

ALL_GAP_SETS = [(), (1,), (2,), (1, 3), (2, 3), (1, 2, 4), (3, 5, 6), (1, 2, 3, 4, 5)]


@pytest.mark.parametrize("gaps", ALL_GAP_SETS)
def test_recurrence_matches_oracle(gaps):
    for n in range(1, 9):
        _, p = tail_counts(n, gaps)
        assert p[n] == oracle.count_selections("abcdefgh"[:n], gaps)


@pytest.mark.parametrize("gaps", ALL_GAP_SETS)
def test_set_recurrence_matches_oracle(gaps):
    for word in ("abab", "abcab", "aabbab", "abcabcab", "aaaaaaa"):
        expected = {s for s in oracle.enumerate_subwords(word, gaps) if len(s) > 1}
        assert subwords_by_end(word, gaps) == expected


def test_checker_accepts_right_and_rejects_wrong_outputs():
    ref = Reference()
    count = count_case("c", 6, "2-5", "plain")
    assert ref.check(count, b"20\n") == (True, "")
    assert not ref.check(count, b"21\n")[0]
    assert not ref.check(count, b"20")[0]

    as_json = count_case("c", 6, "2-5", "json")
    good = {"n": 6, "gaps": [2, 3, 4, 5], "method": "matrix", "complexity": "20"}
    assert ref.check(as_json, json.dumps(good).encode())[0]
    assert not ref.check(as_json, json.dumps(dict(good, n=7)).encode())[0]
    assert not ref.check(as_json, b"not json")[0]

    series = series_case("s", "a", 2, 4, 6, "plain")
    assert ref.check(series, b"1,1\n2,1\n3,2\n4,3\n5,5\n6,7\n")[0]
    assert not ref.check(series, b"1,1\n2,1\n3,2\n4,3\n5,5\n6,8\n")[0]

    words = enumerate_case("e", "abcd", "1,3", "plain")
    listing = b"ab\nabc\nabcd\nad\nbc\nbcd\ncd\ncount: 7\n"
    assert ref.check(words, listing)[0]
    assert not ref.check(words, listing.replace(b"ad\n", b""))[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plans_depend_only_on_the_seed(workload):
    first, again, other = Plan(workload, 7), Plan(workload, 7), Plan(workload, 8)
    assert first.cases == again.cases
    assert [first.round() for _ in range(3)] == [again.round() for _ in range(3)]
    assert [c.label for c in first.cases] == [c.label for c in other.cases]


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


EXACT = ("kernel.updates", "intervals.additions", "latin.cell_strings", "cli.stdout_bytes")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    first, second = traced_run(workload, 3), traced_run(workload, 3)
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["correct"] and second["correct"]
    assert first["failed"] / first["attempted"] == second["failed"] / second["attempted"]
