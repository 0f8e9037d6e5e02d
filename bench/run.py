#!/usr/bin/env python3
"""The nodeiso benchmark.

    python3 bench/run.py                                  # every workload, untraced
    python3 bench/run.py --workload mc-dense --seed 7 --seconds 30 --trace 1

A run of one workload runs passes of the workload in this process for about
--seconds, times set-up in a fresh interpreter before each pass, and checks
that one invocation repeats its output bit for bit. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: with --trace 0 the metrics are BENCHMARK.json's end_to_end list,
with --trace 1 its per_layer list. Each run also writes a result file with
the environment (and, when traced, the spans) under bench/results/.

--seed is the Monte Carlo master seed of the mc-* workloads.
"""

import os

# Single-threaded numerics in this process and in every interpreter it starts.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from layers import COMPUTED, instrumentation, layer_metrics  # noqa: E402
from tracing import Tracer, patched  # noqa: E402
from workloads import HOLDOUT_SEED, MC_SEED, WORKLOADS, Outcome, Plan  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_SAMPLES = 9        # fresh interpreters timed per run, at least; setup_s is their median
IMPORTTIME_SAMPLES = 3   # `-X importtime` profiles per traced run
CHILD_TIMEOUT_S = 120

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import nodeiso.cli; print(time.perf_counter() - t)"
)


# ============================================================================
#  Set-up and import profile, in fresh interpreters
# ============================================================================


def fresh_import_seconds() -> float:
    """Seconds a fresh interpreter spends importing nodeiso.cli."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=CHILD_TIMEOUT_S)
    return float(proc.stdout)


def import_profile() -> dict[str, float]:
    """Import cost of scipy, numpy and nodeiso's own modules, from `-X importtime`.

    scipy and numpy get the cumulative time of their outermost imports, so
    everything imported on their behalf counts (what a lazy import would
    save); numpy modules first imported by scipy count as scipy. nodeiso
    gets the self time of its modules.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        if own.strip().isdigit():
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            rows.append((depth, name.strip().split(".")[0], int(own), int(cumulative)))
    totals = {"scipy": 0, "numpy": 0, "nodeiso": 0}
    ancestors: list[tuple[int, str]] = []
    for depth, top, own, cumulative in reversed(rows):  # post-order reversed: parents first
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if top == "nodeiso":
            totals[top] += own
        elif top in totals and not any(a in ("scipy", "numpy") for _, a in ancestors):
            totals[top] += cumulative
        ancestors.append((depth, top))
    return {
        "import.scipy_s": totals["scipy"] / 1e6,
        "import.numpy_s": totals["numpy"] / 1e6,
        "import.nodeiso_self_s": totals["nodeiso"] / 1e6,
    }


# ============================================================================
#  Passes
# ============================================================================


def invoke(cli, argv: list[str]) -> "str | None":
    """Run `nodeiso <argv>` in process; its stdout, or None when it failed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a failed invocation is counted, not fatal
        print(f"bench: nodeiso {' '.join(argv)} raised {exc!r}", file=sys.stderr)
        return None
    if code != 0:
        print(f"bench: nodeiso {' '.join(argv)} exited {code}: {err.getvalue().strip()}",
              file=sys.stderr)
        return None
    return out.getvalue()


@dataclass
class Pass:
    call_seconds: list[float]   # one entry per invocation of the pass
    outputs: list
    outcome: Outcome
    layers: "dict | None" = None
    spans: "list | None" = None

    @property
    def seconds(self) -> float:
        return sum(self.call_seconds)


def run_pass(cli, plan: Plan, tracer: "Tracer | None" = None) -> Pass:
    """One pass of the workload, timed; traced when a tracer is given."""
    gc.collect()
    outputs, call_seconds = [], []
    with patched(instrumentation(tracer)) if tracer else contextlib.nullcontext():
        for request, argv in enumerate(plan.calls):
            if tracer:
                tracer.request = request
            start = time.perf_counter()
            outputs.append(invoke(cli, argv))
            call_seconds.append(time.perf_counter() - start)
    outcome = plan.check(outputs)
    if tracer is None:
        return Pass(call_seconds, outputs, outcome)
    layers = layer_metrics(tracer, outcome.z_scores)
    if outcome.z_scores:
        outcome.checks.append(("traced replications cover every node",
                               layers["simulator.nodes"] == outcome.work))
    return Pass(call_seconds, outputs, outcome, layers, [s.as_row() for s in tracer.spans])


def typical_pass_seconds(passes: list[Pass]) -> float:
    """Sum over a pass's invocations of each invocation's median time across passes.

    The passes of a run are identical, so this is a median pass; unlike the
    median of whole-pass times it discards a slow spell of the shared
    machine that hits one invocation of one pass.
    """
    return sum(median(times) for times in zip(*(p.call_seconds for p in passes)))


# ============================================================================
#  One workload
# ============================================================================


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment(seed: int, overhead_s: "float | None") -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "tracing_overhead_s": overhead_s,
    }


def _spec_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    fresh_import_seconds()  # warms the file cache; not a sample
    sys.path.insert(0, str(SRC))
    import nodeiso.cli as cli

    plan = WORKLOADS[name](seed, lambda argv: invoke(cli, argv))
    # Set-up samples are spread over the run, one before each pass, so that
    # they see the same slow and fast spells of a shared machine as the passes.
    setup: list[float] = []
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        setup.append(fresh_import_seconds())
        untraced.append(run_pass(cli, plan))
        if trace:
            traced.append(run_pass(cli, plan, Tracer()))
        spent = time.perf_counter() - start
        if spent + spent / len(untraced) > seconds:
            break
    setup += [fresh_import_seconds() for _ in range(SETUP_SAMPLES - len(setup))]
    # Determinism: the designated invocation must repeat bit for bit. Later
    # passes repeat it anyway; a run of one pass re-runs it untimed.
    rerun = len(untraced) == 1
    repeats = ([invoke(cli, plan.calls[plan.repeat])] if rerun
               else [p.outputs[plan.repeat] for p in untraced[1:]])
    first = untraced[0].outputs[plan.repeat]
    identical = first is not None and all(r == first for r in repeats)

    passes = untraced + traced
    attempted = 1 + rerun + sum(len(p.outputs) + len(p.outcome.checks) for p in passes)
    failed = (not identical) + (rerun and repeats[0] is None) + sum(
        p.outputs.count(None) + sum(not ok for _, ok in p.outcome.checks) for p in passes)
    untraced_s = typical_pass_seconds(untraced)
    overhead = typical_pass_seconds(traced) - untraced_s if trace else None
    if trace:
        values = {key: median(p.layers[key] for p in traced) for key in traced[0].layers}
        profiles = [import_profile() for _ in range(IMPORTTIME_SAMPLES)]
        values.update({key: median(p[key] for p in profiles) for key in profiles[0]})
        values["trace.overhead_s"] = overhead
        values["trace.overhead_ratio"] = overhead / untraced_s
    else:
        values = {
            "setup_s": median(setup),
            "wall_s": untraced_s,
            "work_per_s": untraced[0].outcome.work / untraced_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    wanted = _spec_metrics(trace)
    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }

    print(f"workload {name}: seed {seed}, {len(untraced)} untraced and {len(traced)} traced "
          f"passes, work per pass {untraced[0].outcome.work:g} {plan.work_unit}")
    for metric in wanted:
        label = " (computed)" if metric["name"] in COMPUTED else ""
        print(f"  {metric['name']} = {values[metric['name']]:.6g} {metric['unit']}{label}")
    print(f"  error_rate = {failed / attempted:.6g} ({failed} of {attempted} invocations "
          f"and checks failed)")
    for cell in untraced[0].outcome.cells:
        print(f"  cell {cell['cell']}: {cell['nodes_per_replication']:.1f} nodes per "
              f"replication, z = {cell['z']:+.2f}")

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": name,
        "seconds": seconds,
        "environment": environment(seed, overhead),
        "result": line,
        "error_rate": failed / attempted,
        "work_unit": plan.work_unit,
        "samples": {
            "setup_s": setup,
            "pass_s": [p.seconds for p in untraced],
            "call_s": [p.call_seconds for p in untraced],
            "traced_pass_s": [p.seconds for p in traced],
            "work": [p.outcome.work for p in untraced],
        },
        "cells": untraced[0].outcome.cells,
        "failed_checks": sorted({label for p in passes for label, ok in p.outcome.checks if not ok}),
        "computed": list(COMPUTED) if trace else [],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if trace:
        rows = [{"pass": i, "spans": p.spans} for i, p in enumerate(traced)]
        Path(f"{stem}-spans.json").write_text(json.dumps(rows) + "\n", encoding="utf-8")
    return line


# ============================================================================
#  Every workload
# ============================================================================


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own interpreter, so peak RSS is per workload."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<16}{'metric':<40}{'value':>14}  unit")
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:<16}{metric:<40}{entry['value']:>14.6g}  {entry['unit']}")
        rate = result["failed"] / result["attempted"]
        print(f"{name:<16}{'error_rate':<40}{rate:>14.6g}  ratio")
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                    for metric, entry in r["metrics"].items()},
    }))
    return status


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="nodeiso benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=MC_SEED,
                        help="Monte Carlo master seed of the mc-* workloads")
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nodeiso" / "cli.py").is_file():
        print(f"bench: no nodeiso sources at {SRC}; run from a nodeiso checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    line = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
