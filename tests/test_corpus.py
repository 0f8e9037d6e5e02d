"""Byte-identity of the command line: every invocation of the corpus suites
in tools/corpus.py gives the exit code and output recorded in tests/golden."""

import os
import re
from pathlib import Path

import pytest

import corpus

GOLDEN = Path(__file__).parent / "golden"


def golden(suite):
    return (GOLDEN / f"corpus_{suite}.txt").read_text(encoding="utf-8").splitlines()


def split(line):
    """(arguments, results) of a corpus line: the results are the exit code
    and the digests that follow the arguments."""
    words = line.split(" ")
    end = len(words) - 1
    while re.fullmatch("[0-9a-f]{64}", words[end]):
        end -= 1
    return " ".join(words[:end]), " ".join(words[end:])


def differences(expected, actual):
    """One message per header or invocation whose line differs."""
    problems = []
    if expected[:1] != actual[:1]:
        problems.append(f"versions: the file has {expected[:1]}, this run {actual[:1]}")
    want, got = dict(map(split, expected[1:])), dict(map(split, actual[1:]))
    for args in [*got, *(a for a in want if a not in got)]:
        if want.get(args) != got.get(args):
            problems.append(f"{args}: the file has {want.get(args, 'no line')!r}, "
                            f"this run {got.get(args, 'no line')!r}")
    if not problems and expected != actual:
        problems.append("the same lines in another order")
    return problems


@pytest.mark.parametrize("suite", sorted(corpus.SUITES))
def test_corpus_matches_golden(suite):
    problems = differences(golden(suite), corpus.lines(suite))
    if problems:
        pytest.fail("\n".join([
            f"tests/golden/corpus_{suite}.txt: {len(problems)} differences", *problems,
            "If the change means to move them, re-capture with: PYTHONPATH=src python3 "
            f"tools/corpus.py {suite} > tests/golden/corpus_{suite}.txt, and list every moved "
            "line in CHANGES.md.",
        ]), pytrace=False)


@pytest.mark.parametrize("suite", sorted(corpus.SUITES))
def test_no_suite_lists_an_invocation_twice(suite):
    # A second copy, in this suite or another, runs again and checks nothing
    # more: lines are compared by arguments.
    invocations = [" ".join(args) for args in corpus.SUITES[suite]()]
    elsewhere = {" ".join(args) for name, make in corpus.SUITES.items() if name != suite
                 for args in make()}
    assert sorted({a for a in invocations if invocations.count(a) > 1 or a in elsewhere}) == []


def test_docstring_counts_each_suite():
    # "``cli`` (N invocations)", "``oracle`` (N)": the counts a reader sees.
    counts = dict(re.findall(r"``(\w+)`` \((\d+)", corpus.__doc__))
    assert counts == {name: str(len(make())) for name, make in corpus.SUITES.items()}


def test_differences_name_the_versions_and_each_invocation():
    digest = "0" * 64
    expected = ["# python 3.11.7 numpy 2.4.6 scipy 1.17.1",
                f"eval --m 2 0 {digest} {digest}", f"invert --m 2 2 {digest} {digest}"]
    actual = ["# python 3.12.0 numpy 2.4.6 scipy 1.17.1",
              f"eval --m 2 0 {digest} {'1' * 64}", f"invert --m 2 2 {digest} {digest}",
              f"eval --m 4 3 {digest} {digest}"]
    problems = differences(expected, actual)
    assert len(problems) == 3
    assert "3.11.7" in problems[0] and "3.12.0" in problems[0]
    assert problems[1].startswith("eval --m 2: ") and "1" * 64 in problems[1]
    assert problems[2] == f"eval --m 4: the file has 'no line', this run '3 {digest} {digest}'"
    assert differences(expected, expected) == []
    assert differences(expected, expected[:1] + expected[:0:-1]) == ["the same lines in another order"]


def test_simulate_corpus_is_the_same_for_any_jobs():
    by_cell = {}
    for line in golden("simulate")[1:]:
        args, results = split(line)
        cell = re.sub(r" --jobs \d+", "", args)
        by_cell.setdefault(cell, {})[re.search(r" --jobs (\d+)", args)[1]] = results
    assert len(by_cell) == 75
    for cell, results in by_cell.items():
        assert set(results) == {"1", "2"} and results["1"] == results["2"], cell


def test_runner_output_does_not_follow_the_terminal_width(monkeypatch):
    # argparse wraps its usage text to COLUMNS; the runner pins it and puts it back.
    stderr = {}
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        proc = corpus.run(["eval", "--format", "xml"])
        assert proc.returncode == 2 and "invalid choice: 'xml'" in proc.stderr
        assert os.environ["COLUMNS"] == columns
        stderr[columns] = proc.stderr
    assert stderr["40"] == stderr["200"]
    monkeypatch.delenv("COLUMNS")
    corpus.run(["eval", "--format", "xml"])
    assert "COLUMNS" not in os.environ
