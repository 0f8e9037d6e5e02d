"""What the traced run wraps, and the per-layer metrics it derives from one pass.

Spans come from ``tracing``; the simulator's pair and draw counts are not
read from the program but computed here from each replication's topology and
the campaign cutoff, so they are labelled as computed (see ``COMPUTED``).
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict

import numpy as np

from tracing import Tracer, self_times

# Per-layer metrics that are derived from topologies and array sizes rather
# than observed in the running program.
COMPUTED = (
    "simulator.pairs_generated",
    "simulator.pairs_in_range",
    "simulator.pair_useful_ratio",
    "simulator.channel_draws",
    "simulator.pair_bytes_computed",
)

_QUADRATURE_CALLS = (
    "quadrature.expected_r2_numeric_fading",
    "quadrature.expected_r2_numeric_fading_shadow",
)

# Pair-distance blocks are cut into row slabs of about this many pairs so the
# benchmark's own memory stays bounded on dense topologies.
_BLOCK_PAIRS = 1 << 20


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def config_key(params, scheme) -> tuple:
    """The full (ChannelParams, DiversityScheme) identity, M = 1 folded to 'none'."""
    if scheme.branches == 1:
        return params, "none", 1
    return params, scheme.kind, scheme.branches


def instrumentation(tracer: Tracer) -> dict:
    """Replacements for ``tracing.patched``: one traced wrapper per boundary function.

    Only module-boundary functions are wrapped. The per-evaluation success
    probabilities are counted through the callables ``make_success_fn`` returns,
    not spanned, so their cost stays in the caller's self time.
    """
    plan = {}

    def add(module: str, attr: str, keep=None, adapt=None) -> None:
        fn = getattr(sys.modules[f"nodeiso.{module}"], attr)
        plan[(f"nodeiso.{module}", attr)] = tracer.wrap(
            f"{module}.{attr}", adapt(fn) if adapt else fn, keep
        )

    def count_success(make):
        def make_success_fn(params, scheme):
            return tracer.counted(make(params, scheme), config_key(params, scheme))

        return make_success_fn

    add("cli", "main")
    add("analytic", "expected_r2")
    add("analytic", "isolation_probability")
    add("analytic", "min_density_for_isolation")
    add("channel", "build_beta_table", keep=lambda a, kw, table: (table.m, table.diversity_order))
    add("channel", "make_success_fn", adapt=count_success)
    for name in _QUADRATURE_CALLS:
        add("quadrature", name.split(".", 1)[1],
            keep=lambda a, kw, r: getattr(_arg(a, kw, 0, "success_prob"), "tag", None))
    add("quadrature", "shadow_averaged_success")
    add("simulator", "run_monte_carlo")
    add("simulator", "effective_range_cutoff")
    add("simulator", "sample_topology")
    add("simulator", "isolation_count", keep=lambda a, kw, r: (
        _arg(a, kw, 0, "topology"),
        _arg(a, kw, 4, "range_cutoff", math.inf),
        _arg(a, kw, 1, "params").sigma,
        _arg(a, kw, 2, "scheme"),
    ))
    return plan


# ============================================================================
#  Simulator counts, computed outside the program
# ============================================================================


def pairs_within(positions: np.ndarray, side: float, toroidal: bool, cutoff: float) -> int:
    """Unordered pairs at distance <= cutoff, with the simulator's exact arithmetic."""
    n = len(positions)
    if n < 2:
        return 0
    if not math.isfinite(cutoff):
        return n * (n - 1) // 2
    rows = max(1, _BLOCK_PAIRS // n)
    cols = np.arange(n)
    kept = 0
    for a in range(0, n, rows):
        b = min(n, a + rows)
        delta = np.abs(positions[a:b, None, :] - positions[None, :, :])
        if toroidal:
            delta = np.minimum(delta, side - delta)
        dist = np.hypot(delta[..., 0], delta[..., 1])
        upper = cols[None, :] > np.arange(a, b)[:, None]
        kept += int(np.count_nonzero((dist <= cutoff) & upper))
    return kept


def gammas_per_pair(scheme) -> int:
    return scheme.branches if scheme.kind == "sc" and scheme.branches > 1 else 1


def pair_bytes(pairs: int, kept: int, toroidal: bool, finite_cutoff: bool, shadowed: bool,
               scheme) -> int:
    """Bytes of the pair arrays the all-pairs algorithm materialises, from their sizes.

    Models ``isolation_count`` as it builds every pair with ``np.triu_indices``
    and then filters by the cutoff. The index arrays of realised links depend
    on the random draws and are left out.
    """
    per_pair = 16 + 4 * 16 + 8             # i/j indices; pos[i], pos[j], difference, abs; hypot
    if toroidal:
        per_pair += 2 * 16                 # side - delta, minimum
    if finite_cutoff:
        per_pair += 1                      # keep mask
    per_kept = 3 * 8 if finite_cutoff else 0  # filtered i, j, dist
    if kept:
        gammas = gammas_per_pair(scheme)
        per_kept += 8 + 3 * 8 + 8 + 8 * gammas + 1  # clamp; mean SNR; y/m; gamma draws; link mask
        if shadowed:
            per_kept += 4 * 8              # normal draw, scaled, exp, product
        if gammas > 1:
            per_kept += 8                  # max over branches
    return pairs * per_pair + kept * per_kept


# ============================================================================
#  Per-pass layer metrics
# ============================================================================


def _pct(values: list[float], q: float, scale: float) -> float:
    return float(np.percentile(values, q)) * scale if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, z_scores: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (import and overhead are added by the caller)."""
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)

    def calls(*names: str) -> int:
        return sum(len(by_name[n]) for n in names)

    def self_s(*names: str) -> float:
        return sum(own[i] for n in names for i in by_name[n])

    def module_self(module: str) -> float:
        return sum(t for span, t in zip(spans, own) if span.name.startswith(module + "."))

    def seconds(*names: str) -> list[float]:
        return [spans[i].seconds for n in names for i in by_name[n]]

    def evals(*names: str) -> int:
        return sum(spans[i].evals1 - spans[i].evals0 for n in names for i in by_name[n])

    def infos(name: str) -> list:
        return [spans[i].info for i in by_name[name]]

    builds = infos("channel.build_beta_table")
    quad_calls = calls(*_QUADRATURE_CALLS)
    configs = {spans[i].info for n in _QUADRATURE_CALLS for i in by_name[n]}

    nodes = pairs = kept = draws = nbytes = 0
    for topology, cutoff, sigma, scheme in infos("simulator.isolation_count"):
        n = len(topology)
        toroidal = topology.boundary == "toroidal"
        in_range = pairs_within(topology.positions, topology.area_side, toroidal, cutoff)
        nodes += n
        pairs += n * (n - 1) // 2
        kept += in_range
        draws += in_range * ((1 if sigma > 0 else 0) + gammas_per_pair(scheme))
        nbytes += pair_bytes(n * (n - 1) // 2, in_range, toroidal, math.isfinite(cutoff),
                             sigma > 0, scheme)

    return {
        "cli.calls": calls("cli.main"),
        "cli.self_s": self_s("cli.main"),
        "analytic.expected_r2.calls": calls("analytic.expected_r2"),
        "analytic.expected_r2.p50_us": _pct(seconds("analytic.expected_r2"), 50, 1e6),
        "analytic.expected_r2.p99_us": _pct(seconds("analytic.expected_r2"), 99, 1e6),
        "analytic.min_density.calls": calls("analytic.min_density_for_isolation"),
        "analytic.self_s": module_self("analytic"),
        "channel.build_beta_table.calls": len(builds),
        "channel.beta_table.useful_ratio": _ratio(len(set(builds)), len(builds)),
        "channel.success.evals": tracer.evals[0],
        "channel.self_s": module_self("channel"),
        "quadrature.calls": quad_calls,
        "quadrature.distinct_configs": len(configs),
        "quadrature.useful_ratio": _ratio(len(configs), quad_calls),
        "quadrature.self_s": module_self("quadrature"),
        "quadrature.call_p50_ms": _pct(seconds(*_QUADRATURE_CALLS), 50, 1e3),
        "quadrature.call_p90_ms": _pct(seconds(*_QUADRATURE_CALLS), 90, 1e3),
        "quadrature.success_evals_per_call": _ratio(evals(*_QUADRATURE_CALLS), quad_calls),
        "quadrature.shadow_avg.calls": calls("quadrature.shadow_averaged_success"),
        "simulator.self_s": module_self("simulator"),
        "simulator.cutoff.self_s": self_s("simulator.effective_range_cutoff"),
        "simulator.cutoff.success_evals": evals("simulator.effective_range_cutoff"),
        "simulator.run_self_s": self_s("simulator.run_monte_carlo"),
        "simulator.sample_topology.self_s": self_s("simulator.sample_topology"),
        "simulator.isolation_count.self_s": self_s("simulator.isolation_count"),
        "simulator.isolation_count.p50_ms": _pct(seconds("simulator.isolation_count"), 50, 1e3),
        "simulator.isolation_count.p99_ms": _pct(seconds("simulator.isolation_count"), 99, 1e3),
        "simulator.replications": calls("simulator.isolation_count"),
        "simulator.nodes": nodes,
        "simulator.pairs_generated": pairs,
        "simulator.pairs_in_range": kept,
        "simulator.pair_useful_ratio": _ratio(kept, pairs),
        "simulator.channel_draws": draws,
        "simulator.pair_bytes_computed": nbytes,
        "simulator.max_abs_z": max((abs(z) for z in z_scores), default=0.0),
    }
