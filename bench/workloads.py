"""The benchmark's workloads: the CLI invocations of one pass and their checks.

Every workload is a closed loop with one client: a pass runs its invocations
one after another, in process, through ``nodeiso.cli.main``. The program
receives only the generated CLI arguments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

# Master seed of the acceptance suite's Monte Carlo criterion; the default seed.
MC_SEED = 20260809
# Reserved: a claimed gain must also hold on this seed, which no change may use
# while it is being written.
HOLDOUT_SEED = 4099

Z_BOUND = 3.0              # acceptance criterion 4: within 3 standard errors ...
MC_ALLOWED_MISSES = 1      # ... for all cells of a campaign but at most one
QUAD_REL_TOL = 1e-6        # acceptance criterion 1: quadrature vs closed form
ROUNDTRIP_REL_TOL = 1e-12  # acceptance criterion 8: inversion round trip
FIGURE_4_TARGET = 0.99     # the inversion preset's default target P_I

ACCEPTANCE_TARGET_PI = 0.6
ACCEPTANCE_RUNS = 500
DENSE_RUNS = 6

_NONE: list[str] = []
_MRC2 = ["--scheme", "mrc", "--M", "2"]
_SC2 = ["--scheme", "sc", "--M", "2"]
_SC4 = ["--scheme", "sc", "--M", "4"]

# The 12 cells of acceptance criterion 4 (100 m torus; lambda from the
# inversion at P_I = 0.6).
ACCEPTANCE_CELLS = [["--m", str(m)] + s for m in (1, 2, 4) for s in (_NONE, _MRC2, _SC2)] + [
    ["--m", "2"] + _SC4,
    ["--m", "2", "--sigma", "2"] + _NONE,
    ["--m", "2", "--sigma", "2"] + _MRC2,
]

DENSE_CELLS = [["--m", "2", "--sigma", "2"] + _NONE, ["--m", "2", "--sigma", "2"] + _SC4]
DENSE_LAMBDA = "0.02"
DENSE_AREA = "400"

ORACLE_FIGURES = (2, 3, 5, 6, 7)


@dataclass
class Outcome:
    """Checks of one pass: (label, passed) pairs, work done, and per-cell z-scores."""

    checks: list[tuple[str, bool]]
    work: float
    z_scores: list[float]
    cells: list[dict]


@dataclass
class Plan:
    """A prepared workload: one pass's invocations and how to check them."""

    calls: list[list[str]]
    check: Callable[[list[str | None]], Outcome]
    repeat: int                 # invocation whose output must repeat bit for bit
    work_unit: str              # what ``work`` counts


Invoke = Callable[[list[str]], "str | None"]


def _rel_close(value, reference, tol: float) -> bool:
    try:
        return abs(value - reference) <= tol * abs(reference)
    except TypeError:           # a JSON null from a failed point
        return False


def _oracle(seed: int, invoke: Invoke) -> Plan:
    # The presets are fixed; the seed does not change this workload's inputs.
    calls = [["sweep", "--figure", str(f), "--outputs", "analytic,quadrature", "--format", "json"]
             for f in ORACLE_FIGURES]
    calls.append(["sweep", "--figure", "4", "--format", "json"])

    def check(outputs: list[str | None]) -> Outcome:
        checks, points = [], 0
        for argv, out in zip(calls, outputs):
            label = " ".join(argv[:3])
            if out is None:
                checks.append((label, False))
                continue
            for row in json.loads(out):
                points += 1
                if "p_i_quadrature" in row:
                    ok = _rel_close(row["p_i_quadrature"], row["p_i_analytic"], QUAD_REL_TOL)
                else:
                    try:
                        back = math.exp(-row["lambda_min"] * math.pi * row["er2_analytic"])
                    except TypeError:
                        back = None
                    ok = _rel_close(back, FIGURE_4_TARGET, ROUNDTRIP_REL_TOL)
                checks.append((label, ok))
        return Outcome(checks, points, [], [])

    return Plan(calls, check, repeat=len(calls) - 1, work_unit="grid points")


def _mc_check(cells: list[list[str]], references: list[float], runs: int):
    def check(outputs: list[str | None]) -> Outcome:
        z_scores, records, nodes, misses = [], [], 0, 0
        for cell, reference, out in zip(cells, references, outputs):
            if out is None:
                misses += 1
                continue
            record = json.loads(out)
            nodes += record["total_nodes"]
            try:
                z = (record["p_i_sim"] - reference) / record["sim_stderr"]
            except (TypeError, ZeroDivisionError):  # no standard error: the cell cannot pass
                misses += 1
                continue
            z_scores.append(z)
            records.append({"cell": " ".join(cell), "z": z,
                            "nodes_per_replication": record["total_nodes"] / runs})
            if not abs(z) <= Z_BOUND:
                misses += 1
        label = f"cells within {Z_BOUND:g} SE, at most {MC_ALLOWED_MISSES} miss"
        return Outcome([(label, misses <= MC_ALLOWED_MISSES)], nodes, z_scores, records)

    return check


def _simulate_argv(cell: list[str], runs: int, seed: int) -> list[str]:
    return ["simulate", *cell, "--runs", str(runs), "--seed", str(seed), "--jobs", "1",
            "--format", "json"]


def _reference(invoke: Invoke, argv: list[str], key: str) -> float:
    out = invoke(argv)
    if out is None:
        raise RuntimeError(f"preparing the workload failed: nodeiso {' '.join(argv)}")
    return json.loads(out)[key]


def _acceptance(seed: int, invoke: Invoke) -> Plan:
    calls = []
    for cell in ACCEPTANCE_CELLS:
        lam = _reference(invoke, ["invert", *cell, "--target-pi", str(ACCEPTANCE_TARGET_PI),
                                  "--format", "json"], "lambda_min")
        calls.append(_simulate_argv(
            cell + ["--lambda", repr(lam), "--area", "100", "--boundary", "toroidal"],
            ACCEPTANCE_RUNS, seed))
    references = [ACCEPTANCE_TARGET_PI] * len(calls)
    # The determinism check repeats the smallest cell (sigma = 2, MRC2).
    return Plan(calls, _mc_check(ACCEPTANCE_CELLS, references, ACCEPTANCE_RUNS),
                repeat=len(calls) - 1, work_unit="node samples")


def _dense(seed: int, invoke: Invoke) -> Plan:
    calls = [_simulate_argv(cell + ["--lambda", DENSE_LAMBDA, "--area", DENSE_AREA],
                            DENSE_RUNS, seed) for cell in DENSE_CELLS]
    references = [_reference(invoke, ["eval", *cell, "--lambda", DENSE_LAMBDA, "--format", "json"],
                             "p_i_analytic") for cell in DENSE_CELLS]
    return Plan(calls, _mc_check(DENSE_CELLS, references, DENSE_RUNS), repeat=0,
                work_unit="node samples")


WORKLOADS: dict[str, Callable[[int, Invoke], Plan]] = {
    "oracle-figures": _oracle,
    "mc-acceptance": _acceptance,
    "mc-dense": _dense,
}
