"""The command line's contract on a seeded scan: every input gives a valid
answer (exit 0) or exits 2 or 3 with a message, never a traceback, a stray
warning or a probability outside [0, 1].

A fixed ``random.Random`` draws the invocations from a fixed vocabulary:
each subcommand, channel flags at the edges of the float range, MRC and SC
orders up to 33 (one past the cap), and the quadrature output. The scan
keeps to limits under which every run is short: quadrature only where
m * M < 1024, no alpha >= 50 together with sigma >= 16, and simulations at
lambda <= 5e-3 with 3 runs. No run writes a file.
"""

import json
import math
import random
import re

import pytest

import corpus

SEED = 20100601
CASES = 200

# Each channel knob, by its linear and, where it has one, its dB flag, with
# the ordinary values a draw leaves it at.
CHANNEL = {
    ("--ptx",): ["1", "0.5"],
    ("--w",): ["0.01"],
    ("--k", "--k-db"): ["10"],
    ("--psi", "--psi-db"): ["10", "1"],
    ("--alpha",): ["2", "3", "4", "8"],
    ("--sigma", "--sigma-db"): ["0", "0.5", "2"],
}
EDGES = ["nan", "inf", "-inf", "0", "-0", "1e-320", "1e308", "1e400"]
SEVERITY = {"--m": ["1", "2", "4"], "--m-real": ["0.5", "1.5", "2.5"]}
# Each sweep, with the flags that it sets itself.
SWEEPS = {("sigma", "0,1"): ("--sigma", "--sigma-db"), ("alpha", "3,4"): ("--alpha",),
          ("lambda", "1e-4,1e-3"): ("--lambda",), ("m", "1,2"): ("--m", "--m-real"),
          ("M", "1,2"): ("--M",)}

USAGE_ERROR = re.compile(r"nodeiso( [a-z]+)?: error: ")


def _number(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _invocation(rng):
    """One draw: a subcommand with channel flags, a few of them at a float edge."""
    command = rng.choice(["eval", "sweep", "simulate", "invert"])
    names = {knob: rng.choice(knob) for knob in CHANNEL}
    flags = {names[knob]: rng.choice(values) for knob, values in CHANNEL.items()
             if rng.random() < 0.3}
    for knob in rng.sample(sorted(CHANNEL), rng.choice([0, 0, 1, 1, 2])):
        flags[names[knob]] = rng.choice(EDGES)
    severity = rng.choice(sorted(SEVERITY))
    flags[severity] = rng.choice(EDGES if rng.random() < 0.2 else SEVERITY[severity])
    scheme = rng.choice(["none", "mrc", "sc"])
    if scheme != "none":
        flags["--scheme"] = scheme
        flags["--M"] = str(rng.randint(1, 33))
    if command in ("eval", "sweep"):
        flags["--lambda"] = "1e-4"
        flags["--outputs"] = rng.choice(["analytic", "analytic,quadrature"])
    if command == "sweep":
        sweep = rng.choice(sorted(SWEEPS))
        for flag in SWEEPS[sweep]:
            flags.pop(flag, None)
        flags["--variable"], flags["--grid"] = sweep
    elif command == "simulate":
        flags.update({"--lambda": rng.choice(["1e-3", "5e-3"]), "--runs": "3",
                      "--seed": str(rng.randint(0, 99))})
    elif command == "invert":
        flags["--target-pi"] = rng.choice(["0.5", "0.9"])
    flags["--format"] = "json"
    return command, flags


def _within_limits(flags):
    """Whether a draw keeps to the scan's limits on cost."""
    alpha = _number(flags.get("--alpha", "4"))
    sigma = max(_number(flags.get("--sigma", "0")),
                _number(flags.get("--sigma-db", "0")) * math.log(10.0) / 10.0)
    if alpha >= 50 and sigma >= 16:
        return False
    if "quadrature" in flags.get("--outputs", ""):
        m = _number(flags.get("--m", flags.get("--m-real", "1")))
        order = _number(flags.get("--M", "1"))
        if flags.get("--variable") == "m":
            m = max(m, 2.0)
        if flags.get("--variable") == "M":
            order = max(order, 2.0)
        return m * order < 1024
    return True


def _scan():
    rng, argvs = random.Random(SEED), []
    while len(argvs) < CASES:
        command, flags = _invocation(rng)
        if _within_limits(flags):
            argvs.append([command] + [f"{flag}={value}" for flag, value in flags.items()])
    return argvs


def _is_usage(lines):
    """argparse's usage text: the wrapped usage, then one error line."""
    return (len(lines) >= 2 and lines[0].startswith("usage: nodeiso")
            and all(line.startswith(" ") for line in lines[1:-1])
            and USAGE_ERROR.match(lines[-1]) is not None)


def _probabilities(stdout):
    rows = json.loads(stdout)
    for row in rows if isinstance(rows, list) else [rows]:
        for key, value in row.items():
            if key.startswith("p_i") and value is not None:
                yield key, value


@pytest.fixture(scope="module")
def results():
    return [corpus.run(argv) for argv in _scan()]


def test_every_exit_code_is_0_2_or_3(results):
    bad = [(r.args, r.returncode) for r in results if r.returncode not in (0, 2, 3)]
    assert not bad
    # The scan reaches answers from every subcommand, parameter errors and
    # numerical failures.
    assert {r.returncode for r in results} == {0, 2, 3}
    assert {r.args[0] for r in results if r.returncode == 0} == {
        "eval", "sweep", "simulate", "invert"}


def test_every_stderr_line_is_a_message(results):
    for r in results:
        lines = r.stderr.splitlines()
        if _is_usage(lines):
            assert r.returncode == 2, r.args
            continue
        strays = [line for line in lines if not line.startswith("nodeiso:")]
        assert not strays, (r.args, strays)
        if r.returncode:
            assert lines, r.args


def test_every_probability_lies_in_the_unit_interval(results):
    answered = [r for r in results if r.returncode == 0]
    assert answered
    for r in answered:
        for key, value in _probabilities(r.stdout):
            assert 0.0 <= value <= 1.0, (r.args, key, value)
