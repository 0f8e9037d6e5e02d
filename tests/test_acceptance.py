"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from nodeiso.analytic import (
    _er2,
    expected_r2,
    expected_r2_mrc,
    expected_r2_sc,
    expected_r2_shadow_only,
    isolation_from_er2,
    isolation_probability,
    min_density_for_isolation,
)
from nodeiso.channel import (
    DiversityScheme,
    build_beta_table,
    make_success_fn,
    success_prob_mrc,
    success_prob_sc,
)
from nodeiso.quadrature import (
    expected_r2_numeric_fading,
    expected_r2_numeric_fading_shadow,
    expected_r2_numeric_nofade,
)
from nodeiso import simulator
from nodeiso.simulator import SimConfig, run_monte_carlo
from reference import BASE, occupancy_rows_fraction, params

M_GRID = (1, 2, 4)
ALPHA_GRID = (2.0, 3.0, 4.0, 6.0)
SIGMA_GRID = (0.0, 1.0, 2.0)
MC_SEED = 20260809


def _report(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{title}]: {status}{suffix}")
    assert ok, f"criterion {number} [{title}] failed{suffix}"


def _scheme_combos():
    combos = [("none", 1)]
    combos += [("mrc", M) for M in M_GRID]
    combos += [("sc", M) for M in M_GRID]
    return combos


def test_criterion_1_closed_forms_match_quadrature():
    start = time.monotonic()
    worst = 0.0
    worst_cell = ""
    for m in M_GRID:
        for alpha in ALPHA_GRID:
            for sigma in SIGMA_GRID:
                p = params(m=m, sigma=sigma, alpha=alpha)
                for kind, M in _scheme_combos():
                    scheme = DiversityScheme(kind, M)
                    closed = expected_r2(p, scheme)
                    fn = make_success_fn(p, scheme)
                    if sigma == 0.0:
                        numeric = expected_r2_numeric_fading(fn, p)
                    else:
                        numeric = expected_r2_numeric_fading_shadow(fn, p)
                    rel = abs(closed - numeric) / closed
                    if rel > worst:
                        worst, worst_cell = rel, f"m={m} {kind}{M} a={alpha} s={sigma}"
    # The no-fading baseline against its own defining integral.
    for alpha in ALPHA_GRID:
        for sigma in (1.0, 2.0):
            p = params(m=1, sigma=sigma, alpha=alpha)
            rel = abs(expected_r2_shadow_only(p) - expected_r2_numeric_nofade(p))
            rel /= expected_r2_shadow_only(p)
            if rel > worst:
                worst, worst_cell = rel, f"shadow-only a={alpha} s={sigma}"
    elapsed = time.monotonic() - start
    _report(
        1,
        "closed form vs quadrature",
        worst <= 1e-6 and elapsed < 60.0,
        f"worst rel {worst:.2e} at {worst_cell}, {elapsed:.1f}s",
    )


def test_criterion_2_reduction_identities():
    ok = True
    detail = ""
    for m in M_GRID:
        for alpha in ALPHA_GRID:
            for sigma in SIGMA_GRID:
                p = params(m=m, sigma=sigma, alpha=alpha)
                lam = 1e-4
                p_none = math.exp(-lam * math.pi * expected_r2(p, DiversityScheme.no_diversity()))
                p_mrc1 = math.exp(-lam * math.pi * expected_r2_mrc(p, 1))
                p_sc1 = math.exp(-lam * math.pi * expected_r2_sc(p, 1))
                if abs(p_mrc1 - p_none) > 1e-12 or abs(p_sc1 - p_none) > 1e-12:
                    ok, detail = False, f"M=1 reductions differ at m={m} a={alpha} s={sigma}"
            p0 = params(m=m, sigma=0.0, alpha=alpha)
            # sigma = 0 adds exactly 0 to ln E[R^2].
            x0 = 2.0 / alpha
            if _er2(p0, x0, 0.0, m) != math.exp(x0 * (p0.ln_margin - math.log(m))):
                ok, detail = False, f"sigma=0 shadow form differs at m={m} a={alpha}"
            for sigma in (1.0, 2.0):
                psh = params(m=m, sigma=sigma, alpha=alpha)
                factor = math.exp(2 * sigma**2 / alpha**2)
                for kind, M in _scheme_combos():
                    scheme = DiversityScheme(kind, M)
                    ratio = expected_r2(psh, scheme) / expected_r2(p0, scheme)
                    if abs(ratio - factor) > 1e-12 * factor:
                        ok, detail = False, f"shadow factor off for {kind}{M} m={m} a={alpha}"
    _report(2, "reduction identities", ok, detail)


def test_criterion_3_beta_table_and_sc_identity():
    worst_table = 0.0
    for m in range(1, 7):
        exact_rows = occupancy_rows_fraction(m, 6)
        table = build_beta_table(m, 6)
        for n in range(7):
            for k, exact in enumerate(exact_rows[n]):
                got = table.rows[n][k]
                worst_table = max(worst_table, abs(got - float(exact)) / float(exact))
    worst_sc = 0.0
    y_grid = np.logspace(-1, 3, 100) * BASE["psi"]
    for m in range(1, 7):
        p = params(m=m)
        for M in range(1, 7):
            table = build_beta_table(m, M)
            for y in y_grid:
                single = success_prob_mrc(y, 1, p)
                direct = success_prob_sc(y, M, p, table)
                worst_sc = max(worst_sc, abs(direct - (1 - (1 - single) ** M)))
    _report(
        3,
        "occupancy table and SC identity",
        worst_table <= 1e-12 and worst_sc <= 1e-10,
        f"table {worst_table:.2e}, sc identity {worst_sc:.2e}",
    )


def test_criterion_4_monte_carlo_matches_analytic():
    start = time.monotonic()
    none = DiversityScheme.no_diversity()
    mrc2, sc2, sc4 = DiversityScheme.mrc(2), DiversityScheme.sc(2), DiversityScheme.sc(4)
    cells = [(params(m=m), s) for m in (1, 2, 4) for s in (none, mrc2, sc2)]
    cells += [
        (params(m=2), sc4),
        (params(m=2, sigma=2.0), none),
        (params(m=2, sigma=2.0), mrc2),
    ]
    assert len(cells) == 12
    target = 0.6
    hits = 0
    z_scores = []
    for p, scheme in cells:
        lam = min_density_for_isolation(p, scheme, target)
        cfg = SimConfig(
            params=p,
            scheme=scheme,
            node_density=lam,
            boundary="toroidal",
            runs=2000,
            master_seed=MC_SEED,
        )
        est = run_monte_carlo(cfg)
        z_scores.append((est.p_isolated - target) / est.std_error)
        if abs(est.p_isolated - target) <= 3 * est.std_error:
            hits += 1
    elapsed = time.monotonic() - start
    _report(
        4,
        "Monte Carlo vs analytic",
        hits >= 11 and elapsed < 600.0,
        f"{hits}/12 within 3*stderr, max |z| {max(abs(z) for z in z_scores):.2f}, {elapsed:.0f}s",
    )


def test_criterion_4_shadowed_torus_matches_its_cell():
    # At sigma = 4 the 100 m torus cell holds 89% of the link mass, so the
    # sampler's exact target is the cell's P_I, not the plane's.
    p, scheme, lam = params(m=2, sigma=4.0), DiversityScheme.no_diversity(), 5e-3
    cfg = SimConfig(
        params=p,
        scheme=scheme,
        node_density=lam,
        area_side=100.0,
        boundary="toroidal",
        runs=2000,
        master_seed=MC_SEED,
    )
    with pytest.warns(RuntimeWarning, match="torus cell holds"):
        est = run_monte_carlo(cfg)
    grid = simulator._link_mass_grid(p, scheme)
    target = isolation_from_er2(lam, simulator._torus_cell_er2(grid, cfg.area_side))
    z = (est.p_isolated - target) / est.std_error
    _report(
        4,
        "Monte Carlo vs the sigma=4 torus cell",
        abs(z) <= 3.0,
        f"{est.p_isolated:.4f} +- {est.std_error:.4f} against the cell's {target:.4f}, z {z:.2f}",
    )


def test_criterion_5_trend_reproduction():
    ok = True
    detail = ""
    none = DiversityScheme.no_diversity()

    def p_i(p, scheme, lam):
        return isolation_probability(p, scheme, lam)

    # (a) strictly decreasing in lambda, sigma, m, and MRC order M.
    lams = np.logspace(-5, -3, 21)
    vals = [p_i(params(m=2), none, lam) for lam in lams]
    if not all(b < a for a, b in zip(vals, vals[1:])):
        ok, detail = False, "not decreasing in lambda"
    vals = [p_i(params(m=2, sigma=s), none, 1e-5) for s in np.arange(0.0, 4.01, 0.25)]
    if not all(b < a for a, b in zip(vals, vals[1:])):
        ok, detail = False, "not decreasing in sigma"
    vals = [p_i(params(m=m), none, 1e-4) for m in range(1, 7)]
    if not all(b < a for a, b in zip(vals, vals[1:])):
        ok, detail = False, "not decreasing in m"
    vals = [p_i(params(m=2), DiversityScheme.mrc(M) if M > 1 else none, 1e-4)
            for M in range(1, 7)]
    if not all(b < a for a, b in zip(vals, vals[1:])):
        ok, detail = False, "not decreasing in MRC order"

    # (b) strictly increasing in alpha at the alpha-sweep preset parameters.
    vals = [p_i(params(m=4, alpha=a), none, 1e-5) for a in np.arange(2.0, 6.01, 0.25)]
    if not all(b > a for a, b in zip(vals, vals[1:])):
        ok, detail = False, "not increasing in alpha"

    # (c) MRC at least as good as SC, and SC gains diminish with order.
    for M in (2, 4):
        p_mrc = p_i(params(m=2), DiversityScheme.mrc(M), 1e-4)
        p_sc = p_i(params(m=2), DiversityScheme.sc(M), 1e-4)
        if p_mrc > p_sc + 1e-15:
            ok, detail = False, f"MRC worse than SC at M={M}"
    sc_vals = [p_i(params(m=2), DiversityScheme.sc(M) if M > 1 else none, 1e-4)
               for M in range(1, 7)]
    drops = [a - b for a, b in zip(sc_vals, sc_vals[1:])]
    if not all(later < earlier for earlier, later in zip(drops, drops[1:])):
        ok, detail = False, "SC improvement does not diminish"
    _report(5, "trend reproduction", ok, detail)


def test_criterion_6_reference_point_three_way():
    p = params(m=2)
    closed = expected_r2_mrc(p, 1)
    numeric = expected_r2_numeric_fading(make_success_fn(p, DiversityScheme.no_diversity()), p)

    # Monte Carlo expectation of the squared communication range: the range
    # solves gain * k * ptx * R^-alpha / w = psi for each fading gain.
    rng = np.random.default_rng(MC_SEED)
    gains = rng.gamma(p.m, 1.0 / p.m, size=10_000_000)
    budget = p.k * p.ptx / (p.psi * p.w)
    samples = (budget * gains) ** (2.0 / p.alpha)
    mc = float(samples.mean())
    mc_se = float(samples.std(ddof=1)) / math.sqrt(len(samples))

    agree = (
        abs(closed - numeric) / closed <= 1e-3
        and abs(closed - mc) / closed <= 1e-3
        and abs(numeric - mc) / numeric <= 1e-3
    )
    frozen = (
        abs(closed - 9.3998) <= 1e-3
        and closed == pytest.approx(9.399856029866251, rel=1e-12)
        and isolation_probability(p, DiversityScheme.no_diversity(), 1e-4)
        == pytest.approx(0.9970513041039797, rel=1e-12)
    )
    _report(
        6,
        "reference point",
        agree and frozen,
        f"closed {closed:.6f}, quad {numeric:.6f}, mc {mc:.6f} (se {mc_se:.1e})",
    )


def test_criterion_7_simulation_determinism():
    args = [
        sys.executable, "-m", "nodeiso", "simulate",
        "--m", "2", "--lambda", "2e-3", "--runs", "120", "--seed", "4242",
    ]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    parallel = subprocess.run(args + ["--jobs", "4"], capture_output=True, text=True)
    ok = (
        first.returncode == second.returncode == parallel.returncode == 0
        and first.stdout == second.stdout == parallel.stdout
        and first.stdout.strip() != ""
    )
    _report(7, "simulation determinism", ok)


def test_criterion_8_density_inversion_round_trip():
    worst = 0.0
    for m in M_GRID:
        for alpha in ALPHA_GRID:
            for sigma in SIGMA_GRID:
                p = params(m=m, sigma=sigma, alpha=alpha)
                for kind, M in _scheme_combos():
                    scheme = DiversityScheme(kind, M)
                    for target in (0.01, 0.1, 0.5, 0.9):
                        lam = min_density_for_isolation(p, scheme, target)
                        back = isolation_probability(p, scheme, lam)
                        worst = max(worst, abs(back - target) / target)
    _report(8, "density inversion round trip", worst <= 1e-12, f"worst rel {worst:.2e}")
