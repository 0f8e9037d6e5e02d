"""Command-line front end.

Subcommands:
  eval      single-point isolation probability and mean squared range
  sweep     parameter sweeps (including the built-in figure presets)
  simulate  Monte Carlo estimate with confidence interval
  invert    minimum node density for a target isolation probability

Exit codes: 0 success, 2 usage or parameter error, 3 numerical or
statistical failure; simulator warnings become ``nodeiso: warning:``
lines on stderr. Output formats: human text (default), csv, json; CSV
uses a fixed column order, always emits a header row and '.' decimals.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import warnings
from typing import Sequence

from .analytic import _density_from_er2, expected_r2, isolation_from_er2
from .channel import ChannelParams, DiversityScheme, db_to_linear, make_success_fn, sigma_from_db
from .quadrature import (
    QuadratureError,
    expected_r2_numeric_fading,
    expected_r2_numeric_fading_shadow,
)
from .simulator import SimConfig, format_topology_export, run_monte_carlo, sample_topology

__all__ = ["build_parser", "main"]

_OUTPUT_CHOICES = ("analytic", "quadrature", "simulation")
_FORMAT_CHOICES = ("text", "csv", "json")


class UsageError(ValueError):
    """Bad parameters that argparse alone cannot catch."""


# ============================================================================
#  Figure presets
# ============================================================================


@functools.cache
def _preset_grid(variable: str) -> tuple[float, ...]:
    """The presets' grid of a swept variable, built on first use so that
    importing the CLI loads no numpy."""
    import numpy as np

    if variable == "lambda":
        return tuple(float(v) for v in np.logspace(-5, -3, 21))
    start, stop = {"sigma": (0.0, 4.0), "alpha": (2.0, 6.0)}[variable]
    return tuple(float(v) for v in np.arange(start, stop + 1e-9, 0.25))


# The sweep knobs by flag name ('lambda' is the density) and their dests.
_KNOBS = {"m": "m", "sigma": "sigma", "alpha": "alpha", "scheme": "scheme",
          "M": "diversity_order", "lambda": "node_density"}

# Caption parameters for the built-in presets, named as the sweep knobs; each
# preset sweeps its variable over that variable's ``_preset_grid``. Curve
# variables reproduce the per-figure families; sigma is in natural-log units
# throughout. A preset with a target_pi inverts for the density there unless
# --target-pi names another.
_FIGURE_PRESETS: dict[int, dict] = {
    2: dict(
        variable="lambda",
        fixed={"m": 2, "alpha": 4.0, "scheme": "none", "M": 1},
        curves=("sigma", (0.0, 2.0, 4.0)),
    ),
    3: dict(
        variable="lambda",
        fixed={"sigma": 2.0, "alpha": 4.0, "scheme": "none", "M": 1},
        curves=("m", (1, 2, 4)),
    ),
    4: dict(
        variable="sigma",
        fixed={"m": 4, "alpha": 4.0, "scheme": "none", "M": 1},
        target_pi=0.99,
    ),
    5: dict(
        variable="alpha",
        fixed={"m": 4, "sigma": 0.0, "scheme": "none", "M": 1, "lambda": 1e-5},
    ),
    6: dict(
        variable="sigma",
        fixed={"m": 2, "alpha": 4.0, "scheme": "mrc", "lambda": 1e-5},
        curves=("M", (1, 2, 4)),
    ),
    7: dict(
        variable="sigma",
        fixed={"m": 2, "alpha": 4.0, "scheme": "sc", "lambda": 1e-5},
        curves=("M", (1, 2, 4)),
    ),
}


# ============================================================================
#  Argument handling
# ============================================================================

_DEFAULTS = dict(
    ptx=1.0,
    w=0.01,
    k=10.0,
    psi=10.0,
    alpha=4.0,
    sigma=0.0,
    m=1,
    scheme="none",
    diversity_order=1,
    node_density=None,
    area_side=100.0,
    boundary="toroidal",
    runs=1000,
    master_seed=0,
    jobs=1,
    out_format="text",
    outputs="analytic",
)


def build_parser() -> argparse.ArgumentParser:
    # Config-file key (the long flag without its dashes) -> the flag's action,
    # so that a file value is converted and checked as the flag's own.
    config_actions: dict[str, argparse.Action] = {}

    def option(group, flag: str, **kwargs) -> None:
        """Add a flag that a config file may also set."""
        config_actions[flag[2:]] = group.add_argument(flag, **kwargs)

    def campaign(group) -> None:
        """The flags of a simulation campaign, where a subcommand lists them."""
        option(group, "--area", dest="area_side", type=float, help="square side [m] (default 100)")
        option(group, "--boundary", choices=("bounded", "toroidal"))
        option(group, "--runs", type=int, help="replications (default 1000)")
        option(group, "--seed", dest="master_seed", type=int, help="master seed (default 0)")
        option(group, "--jobs", type=int, help="parallel workers (default 1)")

    channel = argparse.ArgumentParser(add_help=False)
    g = channel.add_argument_group("channel")
    option(g, "--ptx", type=float, help="transmit power [mW] (default 1)")
    option(g, "--w", type=float, help="noise power [mW] (default 0.01)")
    option(g, "--k", type=float, help="path-loss constant, linear (default 10)")
    option(g, "--k-db", type=float, help="path-loss constant in dB")
    option(g, "--psi", type=float, help="SNR threshold, linear (default 10)")
    option(g, "--psi-db", type=float, help="SNR threshold in dB")
    option(g, "--alpha", type=float, help="path-loss exponent (default 4)")
    option(g, "--sigma", type=float, help="shadowing spread, natural-log units (default 0)")
    option(g, "--sigma-db", type=float, help="shadowing spread in dB")
    option(g, "--m", type=int, help="Nakagami severity, positive integer (default 1)")
    option(g, "--m-real", type=float, help="Nakagami severity as a real number >= 0.5")
    option(g, "--scheme", choices=("none", "mrc", "sc"), help="receive diversity scheme")
    option(g, "--M", dest="diversity_order", type=int, help="number of diversity branches")
    g.add_argument("--config", help="key=value file mirroring the long flags; flags override it")

    output = argparse.ArgumentParser(add_help=False)
    option(output, "--format", dest="out_format", choices=_FORMAT_CHOICES)
    output.add_argument("--out", help="write the report to this path instead of stdout")

    parser = argparse.ArgumentParser(
        prog="nodeiso",
        description="Node isolation probability of a Poisson ad hoc network "
        "under path loss, lognormal shadowing and Nakagami-m fading.",
    )
    parser.set_defaults(config_actions=config_actions)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[channel, output], help="single-point evaluation")
    option(p_eval, "--lambda", dest="node_density", type=float, help="node density [1/m^2]")
    option(p_eval, "--outputs", help="comma list of analytic,quadrature (default analytic)")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", parents=[channel, output], help="parameter sweep, CSV-friendly")
    p_sweep.add_argument("--figure", type=int, choices=sorted(_FIGURE_PRESETS), help="built-in preset")
    p_sweep.add_argument("--variable", choices=("lambda", "sigma", "alpha", "m", "M"))
    p_sweep.add_argument("--grid", help="comma-separated, strictly increasing grid values")
    option(p_sweep, "--lambda", dest="node_density", type=float, help="fixed node density")
    option(p_sweep, "--outputs", help="comma list of analytic,quadrature,simulation")
    option(p_sweep, "--target-pi", dest="target_pi", type=float,
           help="invert for density at this isolation probability")
    campaign(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", parents=[channel, output], help="Monte Carlo estimate")
    option(p_sim, "--lambda", dest="node_density", type=float, help="node density [1/m^2]")
    campaign(p_sim)
    p_sim.add_argument("--export-topology", dest="export_topology",
                       help="write the run-0 topology to this path")
    p_sim.set_defaults(func=cmd_simulate)

    p_inv = sub.add_parser("invert", parents=[channel, output], help="minimum density for a target P_I")
    option(p_inv, "--target-pi", dest="target_pi", type=float, help="target isolation probability")
    p_inv.set_defaults(func=cmd_invert)

    return parser


def _apply_config_file(args: argparse.Namespace) -> None:
    path = getattr(args, "config", None)
    if not path:
        return
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        action = args.config_actions.get(key)
        if action is None:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if not hasattr(args, action.dest):
            continue  # key not applicable to this subcommand
        try:
            converted = action.type(value) if action.type else value
            if action.choices is not None and converted not in action.choices:
                raise ValueError(value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
        if getattr(args, action.dest) is None:  # an explicit flag wins
            setattr(args, action.dest, converted)


def _apply_defaults(args: argparse.Namespace) -> None:
    """Fill what neither a flag nor the config file set; ``args.given`` keeps
    the names of the values they did set."""
    args.given = set()
    for dest, value in _DEFAULTS.items():
        if hasattr(args, dest):
            if getattr(args, dest) is None:
                setattr(args, dest, value)
            else:
                args.given.add(dest)


# Each alternate flag's dest by the dest it sets, and its conversion.
_ALTERNATES = {"k": ("k_db", db_to_linear), "psi": ("psi_db", db_to_linear),
               "sigma": ("sigma_db", sigma_from_db), "m": ("m_real", float)}


def _alternate_flag(args: argparse.Namespace, base: str) -> str | None:
    """The alternate flag, such as --sigma-db, that set ``base``, if one did."""
    alt, _ = _ALTERNATES.get(base, (None, None))
    if alt is None or getattr(args, alt, None) is None:
        return None
    return "--" + alt.replace("_", "-")


def _resolve_alternates(args: argparse.Namespace) -> None:
    """Set each base value that its alternate flag gives; the two flags are exclusive."""
    for base, (alt, convert) in _ALTERNATES.items():
        flag = _alternate_flag(args, base)
        if flag is None:
            continue
        if getattr(args, base) is not None:
            raise UsageError(f"--{base} and {flag} are exclusive")
        value = getattr(args, alt)
        try:
            setattr(args, base, convert(value))
        except OverflowError as exc:
            raise UsageError(f"{flag} {value:g} overflows as a linear value") from exc


def _build_params(args: argparse.Namespace, **overrides) -> ChannelParams:
    values = dict(
        ptx=args.ptx,
        w=args.w,
        k=args.k,
        psi=args.psi,
        alpha=args.alpha,
        sigma=args.sigma,
        m=args.m,
    )
    values.update(overrides)
    return ChannelParams(**values)


def _build_scheme(kind: str, branches: int) -> DiversityScheme:
    if kind == "none" and branches != 1:
        raise UsageError("--M applies to mrc or sc schemes only")
    return DiversityScheme(kind, branches)


def _parse_outputs(spec: str, allowed: tuple[str, ...]) -> tuple[str, ...]:
    outputs = tuple(part.strip() for part in spec.split(",") if part.strip())
    if not outputs:
        raise UsageError("--outputs must name at least one of " + ",".join(allowed))
    for out in outputs:
        if out not in allowed:
            raise UsageError(f"unknown output kind {out!r} (choose from {','.join(allowed)})")
    return outputs


# ============================================================================
#  Rendering
# ============================================================================


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _write_file(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _check_writable(*paths: str | None) -> None:
    """Fail as _write_file would, before a long run rather than after it.

    Opening to append leaves an existing file as it is; a file that the
    check itself created is removed again.
    """
    for path in paths:
        if path:
            existed = os.path.lexists(path)
            _write_file(path, "", mode="a")
            if not existed:
                os.remove(path)


def _emit(text: str, args: argparse.Namespace) -> None:
    out = getattr(args, "out", None)
    if out:
        _write_file(out, text)
    else:
        sys.stdout.write(text)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _render_record(fields: list[tuple[str, object]], out_format: str) -> str:
    if out_format == "json":
        return json.dumps({k: _json_safe(v) for k, v in fields}, indent=2) + "\n"
    if out_format == "csv":
        return _render_table([k for k, _ in fields], [[v for _, v in fields]], out_format)
    width = max(len(k) for k, _ in fields)
    return "".join(f"{k.ljust(width)} = {_fmt(v)}\n" for k, v in fields)


def _render_table(columns: list[str], rows: list[list], out_format: str) -> str:
    if out_format == "json":
        payload = [{c: _json_safe(v) for c, v in zip(columns, row)} for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    if out_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        return buf.getvalue()
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
              for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


# ============================================================================
#  Numeric helpers
# ============================================================================


def _numeric_er2(params: ChannelParams, scheme: DiversityScheme) -> float:
    success = make_success_fn(params, scheme)
    if params.sigma > 0:
        return expected_r2_numeric_fading_shadow(success, params)
    return expected_r2_numeric_fading(success, params)


# ============================================================================
#  Subcommands
# ============================================================================


def _grid_label(variable: str, value: float) -> float | int:
    """A grid value as its row shows it: m and M as integers where that is exact."""
    if variable in ("m", "M") and value.is_integer() and abs(value) < 2**53:
        return int(value)
    return value


def _flag_knobs(args: argparse.Namespace) -> dict:
    """The sweep knobs as the flags, the config file and the defaults set them."""
    return {knob: getattr(args, dest, None) for knob, dest in _KNOBS.items()}


# What a point of a sweep may fail with: its row stays empty and the sweep
# goes on.
_POINT_FAILURES = (ValueError, OverflowError, QuadratureError)


def _point(
    args: argparse.Namespace,
    knobs: dict,
    outputs: tuple[str, ...],
    target_pi: float | None,
    er2_by_channel: dict,
    grids: dict,
    where: str,
) -> dict:
    """Every quantity of one point by its column name; raises on invalid or
    failing configurations.

    With ``target_pi`` the point inverts the closed form for the density at
    that P_I. Otherwise it gives P_I at the ``lambda`` knob by the closed
    form and by each route that ``outputs`` adds, for a real m as for an
    integer one. A simulated point checks its campaign before any E[R^2]
    route, runs it, and writes the run-0 topology where ``args`` has an
    --export-topology path. E[R^2] does not depend on the
    density, so ``er2_by_channel`` keeps each route's value per channel for
    the points that follow, or the exception of a route that failed, which
    is raised again, with the same message, at every point that needs it.
    ``grids`` keeps the simulator's link-mass grids the same way, and
    ``where`` begins each ``nodeiso: warning:`` line that the simulator's
    warnings become.
    """
    scheme = _build_scheme(knobs["scheme"], knobs["M"])
    params = _build_params(args, m=knobs["m"], sigma=knobs["sigma"], alpha=knobs["alpha"])
    simulates = target_pi is None and "simulation" in outputs
    if simulates:
        config = SimConfig(params=params, scheme=scheme, node_density=knobs["lambda"],
                           area_side=args.area_side, boundary=args.boundary, runs=args.runs,
                           master_seed=args.master_seed)
    er2 = er2_by_channel.setdefault((params, scheme), {})
    result = {}
    for route in ["analytic", *(["quadrature"] if "quadrature" in outputs else [])]:
        if route not in er2:
            try:
                er2[route] = (expected_r2(params, scheme) if route == "analytic"
                              else _numeric_er2(params, scheme))
            except _POINT_FAILURES as exc:
                er2[route] = exc
        if isinstance(er2[route], Exception):
            raise er2[route]
        result[f"er2_{route}"] = er2[route]
        if target_pi is None:
            result[f"p_i_{route}"] = isolation_from_er2(knobs["lambda"], er2[route])
    if target_pi is not None:
        result["lambda_min"] = _density_from_er2(target_pi, er2["analytic"])
        result["p_i_roundtrip"] = isolation_from_er2(result["lambda_min"], er2["analytic"])
    elif simulates:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            estimate = run_monte_carlo(config, n_jobs=args.jobs, grids=grids)
        for caught_warning in caught:
            print(f"nodeiso: warning: {where}{caught_warning.message}", file=sys.stderr)
        se = estimate.std_error
        z = (estimate.p_isolated - result["p_i_analytic"]) / se if 0.0 < se < math.inf else math.nan
        result.update(p_i_sim=estimate.p_isolated, sim_stderr=se, sim_ci_low=estimate.ci95[0],
                      sim_ci_high=estimate.ci95[1], p_i_any_isolated=estimate.p_any_isolated,
                      z_score=z, total_nodes=estimate.total_nodes,
                      total_isolated=estimate.total_isolated,
                      runs_executed=estimate.runs_executed, runs_empty=estimate.runs_empty)
        if getattr(args, "export_topology", None):
            topology = format_topology_export(sample_topology(config, 0), config.master_seed, 0)
            _write_file(args.export_topology, topology)
    return result


def _emit_point(result: dict, names: tuple[str, ...], args: argparse.Namespace) -> None:
    """One record of the named fields that the point has, in the order named."""
    fields = [(name, result[name]) for name in names if name in result]
    _emit(_render_record(fields, args.out_format), args)


def cmd_eval(args: argparse.Namespace) -> int:
    if args.node_density is None:
        raise UsageError("eval requires --lambda")
    outputs = _parse_outputs(args.outputs, ("analytic", "quadrature"))
    result = _point(args, _flag_knobs(args), outputs, None, {}, {}, "")
    _emit_point(result, ("p_i_analytic", "er2_analytic", "p_i_quadrature", "er2_quadrature"),
                args)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    outputs = _parse_outputs(args.outputs, _OUTPUT_CHOICES)
    target_pi = args.target_pi
    if target_pi is not None and not 0.0 < target_pi < 1.0:
        raise UsageError(f"--target-pi must lie in (0, 1), got {target_pi}")

    if target_pi is not None and args.variable == "lambda":
        raise UsageError("--target-pi inverts for the density; sweep a different variable")
    fixed = _flag_knobs(args)
    curves: list[dict] = [{}]  # each curve overrides some of the fixed knobs
    if args.figure is not None:
        if args.variable is not None or args.grid is not None:
            raise UsageError("--figure and --variable/--grid are exclusive")
        preset = _FIGURE_PRESETS[args.figure]
        variable, pinned = preset["variable"], preset["fixed"]
        grid = _preset_grid(variable)
        sweep = f"figure {args.figure}"
        if "curves" in preset:
            name, values = preset["curves"]
            curves = [{name: v} for v in values]
        if "target_pi" in preset:
            target_pi = preset["target_pi"] if target_pi is None else target_pi
        elif target_pi is not None:
            raise UsageError(f"--target-pi does not apply to figure {args.figure}")
    else:
        if args.variable is None or args.grid is None:
            raise UsageError("sweep requires --figure or both --variable and --grid")
        variable, pinned, sweep = args.variable, {}, f"--variable {args.variable}"
        try:
            grid = tuple(float(v) for v in args.grid.split(","))
        except ValueError as exc:
            raise UsageError(f"bad --grid value: {exc}") from exc
    # A flag or config value for a knob that the sweep sets would be silently
    # replaced.
    own = {variable, *pinned, *curves[0]}
    clashes = [_alternate_flag(args, knob) or f"--{knob}"
               for knob, dest in _KNOBS.items() if knob in own and dest in args.given]
    if clashes:
        raise UsageError(f"{sweep} sets {', '.join(clashes)} itself")
    fixed.update(pinned)

    ignored = [out for out in outputs if out != "analytic"]
    if target_pi is not None and ignored:
        raise UsageError("the density inversion uses the closed form only; "
                         f"--outputs {','.join(ignored)} does not apply")
    if variable == "M" and fixed["scheme"] == "none":
        raise UsageError("sweeping M requires --scheme mrc or sc")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise UsageError("sweep grid must be strictly increasing")
    if target_pi is None and variable != "lambda" and fixed["lambda"] is None:
        raise UsageError("sweep requires --lambda when the density is not swept")

    columns = [*curves[0], variable]  # the curve's knob, if any, then the swept one
    if target_pi is not None:
        columns += ["lambda_min", "er2_analytic"]
    else:
        columns += ["p_i_analytic", "er2_analytic"]
        if "quadrature" in outputs:
            columns.append("p_i_quadrature")
        if "simulation" in outputs:
            columns += ["p_i_sim", "sim_stderr", "sim_ci_low", "sim_ci_high"]

    _check_writable(args.out)
    rows: list[list] = []
    er2_by_channel: dict = {}
    grids: dict = {}
    failures = 0
    for curve in curves:
        for value in grid:
            point = f"sweep point {variable}={value:g}"
            knobs = {**fixed, **curve, variable: value}
            try:
                result = _point(args, knobs, outputs, target_pi, er2_by_channel, grids,
                                f"{point}: ")
            except _POINT_FAILURES as exc:
                failures += 1
                print(f"nodeiso: {point} failed: {exc}", file=sys.stderr)
                result = {}
            head = [*curve.values(), _grid_label(variable, value)]
            rows.append(head + [result.get(c) for c in columns[len(head):]])
    _emit(_render_table(columns, rows, args.out_format), args)
    return 3 if failures == len(rows) else 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.node_density is None:
        raise UsageError("simulate requires --lambda")
    _check_writable(args.export_topology, args.out)
    result = _point(args, _flag_knobs(args), ("simulation",), None, {}, {}, "")
    _emit_point(result, ("p_i_sim", "sim_stderr", "sim_ci_low", "sim_ci_high", "p_i_any_isolated",
                         "p_i_analytic", "z_score", "total_nodes", "total_isolated",
                         "runs_executed", "runs_empty"), args)
    if result["total_nodes"] < 100:
        print("nodeiso: degenerate estimate (fewer than 100 node samples)", file=sys.stderr)
        return 3
    return 0


def cmd_invert(args: argparse.Namespace) -> int:
    if args.target_pi is None:
        raise UsageError("invert requires --target-pi")
    if not 0.0 < args.target_pi < 1.0:
        raise UsageError(f"--target-pi must lie in (0, 1), got {args.target_pi}")
    result = _point(args, _flag_knobs(args), ("analytic",), args.target_pi, {}, {}, "")
    _emit_point(result, ("lambda_min", "p_i_roundtrip", "er2_analytic"), args)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        _resolve_alternates(args)
        _apply_defaults(args)
        return args.func(args)
    except (QuadratureError, OverflowError) as exc:
        print(f"nodeiso: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"nodeiso: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"nodeiso: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
