import concurrent.futures
import math
import re
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

import nodeiso.simulator as simulator
from nodeiso.analytic import expected_r2, min_density_for_isolation
from nodeiso.channel import DiversityScheme, make_success_fn
from nodeiso.quadrature import shadow_averaged_success
from nodeiso.simulator import (
    SimConfig,
    Topology,
    _links_up,
    _pairs_within,
    effective_range_cutoff,
    format_topology_export,
    isolation_count,
    run_monte_carlo,
    sample_topology,
)
from reference import count_link_mass_grids, params


def config(m=2, sigma=0.0, scheme=None, lam=1e-3, runs=200, seed=11, boundary="toroidal"):
    return SimConfig(
        params=params(m=m, sigma=sigma),
        scheme=scheme or DiversityScheme.no_diversity(),
        node_density=lam,
        area_side=100.0,
        boundary=boundary,
        runs=runs,
        master_seed=seed,
    )


def _seed_sequence_stream(master_seed, run, domain):
    return np.random.default_rng(np.random.SeedSequence(entropy=(master_seed, run, domain)))


# ============================================================================
#  Topology sampling
# ============================================================================


def test_topology_deterministic():
    cfg = config()
    a = sample_topology(cfg, 3)
    b = sample_topology(cfg, 3)
    assert np.array_equal(a.positions, b.positions)
    c = sample_topology(cfg, 4)
    assert len(c) != len(a) or not np.array_equal(a.positions, c.positions)


def test_topology_positions_in_range():
    cfg = config(lam=2e-3)
    topo = sample_topology(cfg, 0)
    assert topo.positions.shape[1] == 2
    assert np.all(topo.positions >= 0.0)
    assert np.all(topo.positions < cfg.area_side)


def _assert_seed_sequence_words(words, seed, run, domain):
    reference = np.random.SeedSequence(entropy=(seed, run, domain))
    assert words.dtype == np.uint64
    assert np.array_equal(words, reference.generate_state(4, np.uint64))
    assert (simulator._generator(words).bit_generator.state
            == _seed_sequence_stream(seed, run, domain).bit_generator.state)


@pytest.mark.parametrize("seed", [0, 1, 20260809, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1])
def test_seed_words_match_seed_sequence(seed):
    # Entropy of 3 to 5 words: seeds and runs of one and two 32-bit words,
    # one run at a time and, for runs below 2**32, as one array.
    runs = [0, 1, 2**32 - 1, 2**32, 2**40]
    runs += np.random.default_rng(seed % 997).integers(0, 2**63, 6).tolist()
    runs32 = [0, 1, 2, 99, 2**31, 2**32 - 1]
    runs32 += np.random.default_rng(seed % 991).integers(0, 2**32, 40).tolist()
    for domain in (simulator._TOPOLOGY_DOMAIN, simulator._CHANNEL_DOMAIN):
        for run in runs:
            _assert_seed_sequence_words(simulator._seed_words(seed, run, domain), seed, run, domain)
        rows = simulator._seed_words(seed, np.array(runs32, dtype=np.uint64), domain)
        assert rows.shape == (len(runs32), 4) and rows.flags.c_contiguous
        for run, words in zip(runs32, rows):
            _assert_seed_sequence_words(words, seed, run, domain)


@pytest.mark.parametrize("start, stop", [(0, 11), (5, 6), (3, 20), (2**32 - 6, 2**32 + 3)])
def test_streams_equal_seed_sequence_streams_across_chunks(monkeypatch, start, stop):
    # Chunks of 4 runs: partial first and last chunks, and one chunk that
    # reaches run 2**32 and is seeded run by run.
    monkeypatch.setattr(simulator, "_SEED_CHUNK", 4)
    for seed in (0, 20260809, 2**64 - 1):
        streams = list(simulator._streams(seed, simulator._CHANNEL_DOMAIN, start, stop))
        assert len(streams) == stop - start
        for run, rng in zip(range(start, stop), streams):
            reference = _seed_sequence_stream(seed, run, simulator._CHANNEL_DOMAIN)
            assert rng.bit_generator.state == reference.bit_generator.state
            assert np.array_equal(rng.random(3), reference.random(3))


def test_topology_stream_is_the_seed_sequence_stream():
    cfg = config(lam=2e-3, seed=2**64 - 1)
    for run in (0, 7, 2**32 + 1):
        rng = _seed_sequence_stream(cfg.master_seed, run, simulator._TOPOLOGY_DOMAIN)
        count = int(rng.poisson(cfg.node_density * cfg.area_side**2))
        expected = rng.random((count, 2)) * cfg.area_side
        assert np.array_equal(sample_topology(cfg, run).positions, expected)


def test_expected_node_count_above_poisson_limit_names_area():
    # Only counts above the sampler's limit: one just below it would try to
    # allocate the positions.
    for lam, side in ((1.0, 1e10), (1e6, 4e6), (1e-280, 1e150)):
        message = re.escape(f"area side {side:g} m at node density {lam:g} gives")
        with pytest.raises(ValueError, match=message + ".*Poisson sampler's limit"):
            SimConfig(params=params(m=2), scheme=DiversityScheme.no_diversity(),
                      node_density=lam, area_side=side)


def test_poisson_limit_is_numpys_int64_bound():
    limit = np.iinfo(np.int64).max
    assert simulator._POISSON_MAX_MEAN == limit - 10.0 * math.sqrt(limit)


def test_topology_poisson_mean():
    cfg = config(lam=1e-3, runs=1)
    counts = np.array([len(sample_topology(cfg, i)) for i in range(10_000)])
    mean = counts.mean()
    # Poisson(10): the sample mean over 10^4 runs stays within 3 sigma.
    assert abs(mean - 10.0) <= 3 * math.sqrt(10.0 / 10_000)


def test_topology_mean_one_node():
    cfg = config(lam=1e-4, runs=1)
    counts = np.array([len(sample_topology(cfg, i)) for i in range(10_000)])
    assert abs(counts.mean() - 1.0) <= 3 * math.sqrt(1.0 / 10_000)


# ============================================================================
#  Distances
# ============================================================================


def _triu_reference(positions, side, boundary, cutoff):
    """All pairs at once in ``triu_indices`` order: what ``_pairs_within`` must equal."""
    i, j = np.triu_indices(len(positions), k=1)
    delta = np.abs(positions[i] - positions[j])
    if boundary == "toroidal":
        delta = np.minimum(delta, side - delta)
    dist = np.hypot(delta[:, 0], delta[:, 1])
    keep = dist <= cutoff
    return i[keep], j[keep], dist[keep]


def test_pairs_within_euclidean():
    i, j, dist = _pairs_within(np.array([[0.0, 0.0], [3.0, 4.0]]), 100.0, "bounded", math.inf)
    assert (i.tolist(), j.tolist(), dist.tolist()) == ([0], [1], [5.0])


def test_pairs_within_toroidal_wrap():
    _, _, dist = _pairs_within(np.array([[1.0, 1.0], [99.0, 1.0]]), 100.0, "toroidal", math.inf)
    assert dist.tolist() == [pytest.approx(2.0)]


def test_pairs_within_bounded_no_wrap():
    _, _, dist = _pairs_within(np.array([[1.0, 1.0], [99.0, 1.0]]), 100.0, "bounded", math.inf)
    assert dist.tolist() == [pytest.approx(98.0)]


def _positions(n):
    rng = np.random.default_rng(1000 + n)
    pos = rng.random((n, 2)) * 100.0
    if n >= 4:
        pos[3] = pos[1]  # a coincident pair, at distance exactly 0
    return pos


# Short cutoffs, whose x-windows cover part of the square.
SHORT_CUTOFFS = [0.0, 3.0, 6.3, 24.9]


def _with_seam_nodes(pos):
    """``pos`` plus nodes packed against the x seam of the 100 m square, and
    pairs on horizontal lines whose x-gap, direct or across the seam, is a
    short cutoff (exactly for 3)."""
    seam_x = [0.0, 5e-324, 1e-12, 0.4, 2.9, 97.1, 99.6, 100.0 - 1e-12, np.nextafter(100.0, 0.0)]
    seam = [[x, 50.0 + 7.0 * k % 13.0] for k, x in enumerate(seam_x)]
    line = [[0.0, 40.0], [0.0, 70.0]]
    for cutoff in SHORT_CUTOFFS[1:]:
        line += [[cutoff, 40.0], [50.0, 60.0], [50.0 + cutoff, 60.0], [100.0 - cutoff, 70.0]]
    return np.concatenate([pos, np.array(seam + line)])


def _assert_matches_reference(pos, boundary, cutoffs):
    for cutoff in cutoffs:
        want = _triu_reference(pos, 100.0, boundary, cutoff)
        got = _pairs_within(pos, 100.0, boundary, cutoff)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("boundary", ["toroidal", "bounded"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 16, 17, 18, 33, 100])
def test_pairs_within_matches_all_pairs_enumeration(monkeypatch, boundary, n):
    # Chunks of 16 candidate pairs: n = 17 fills the first node's chunk
    # exactly, and every n >= 17 runs through dozens of chunks. The cutoffs
    # around side/2 straddle the switch from the cell grid to taking every
    # later node as a candidate; those around side span even a bounded
    # square.
    monkeypatch.setattr(simulator, "_BLOCK_PAIRS", 16)
    pos = _positions(n)
    _, _, all_dist = _triu_reference(pos, 100.0, boundary, math.inf)
    cutoffs = SHORT_CUTOFFS + [30.0, 49.9, 50.0, 50.1, 99.9, 100.0, math.inf]
    if len(all_dist):
        cutoffs.append(float(np.sort(all_dist)[len(all_dist) // 2]))  # one pair's distance
        cutoffs.append(float(np.sort(all_dist)[len(all_dist) // 50]))  # a short one
    _assert_matches_reference(pos, boundary, cutoffs)
    _assert_matches_reference(_with_seam_nodes(pos), boundary, cutoffs)
    if len(all_dist):
        # '<=' is inclusive: the pair at exactly the cutoff is kept.
        for cutoff in cutoffs[-2:]:
            assert cutoff in _pairs_within(pos, 100.0, boundary, cutoff)[2]
    for cutoff in SHORT_CUTOFFS[1:]:
        # So is a pair whose x-gap is exactly the cutoff.
        assert cutoff in _pairs_within(_with_seam_nodes(pos), 100.0, boundary, cutoff)[2]


def test_pairs_within_default_blocks_match_all_pairs_enumeration():
    pos = _positions(1500)
    for boundary in ("toroidal", "bounded"):
        _assert_matches_reference(pos, boundary, SHORT_CUTOFFS + [40.0])
        _assert_matches_reference(_with_seam_nodes(pos), boundary, SHORT_CUTOFFS + [40.0])


def _batch_reference(parts, boundary, cutoff):
    """Each replication's all-pairs reference, indexed into the batch."""
    offsets = np.cumsum([0] + [len(p) for p in parts])
    refs = [_triu_reference(p, 100.0, boundary, cutoff) for p in parts]
    return tuple(np.concatenate([r[k] + (off if k < 2 else 0) for r, off in zip(refs, offsets)])
                 for k in range(3))


@pytest.mark.parametrize("boundary", ["toroidal", "bounded"])
def test_pairs_within_batch_matches_each_replication(monkeypatch, boundary):
    # Replications of 0 to 68 nodes, some with nodes on every edge and
    # corner, searched at once. Cutoffs just below side/4, side/3 and side/2
    # give 4, 3 and 2 (that is, no) cells per axis; the others are capped
    # by the node count.
    monkeypatch.setattr(simulator, "_BLOCK_PAIRS", 16)
    rng = np.random.default_rng(77)
    edge = np.array([[0.0, 0.0], [0.0, 99.9], [99.9, 0.0], [99.9, 99.9], [50.0, 0.0],
                     [0.0, 50.0], [99.9, 50.0], [50.0, 99.9]])
    parts = [rng.random((k, 2)) * 100.0 for k in (0, 1, 40, 17, 0, 2, 60, 1, 33)]
    parts[2] = np.concatenate([parts[2], edge])
    parts[6] = np.concatenate([edge, parts[6]])
    offsets = np.cumsum([0] + [len(p) for p in parts])
    positions = np.concatenate(parts)
    for cutoff in (0.0, 3.0, 12.0, 24.9, 25.0, 33.3, 40.0, 49.9, 50.0, math.inf):
        want = _batch_reference(parts, boundary, cutoff)
        got = simulator._pairs_within(positions, 100.0, boundary, cutoff, offsets)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_pairs_within_keeps_pairs_at_tiny_scales():
    # Squared distances here are subnormal and dx^2 + dy^2 rounds above
    # cutoff^2, yet hypot keeps the pair; the prefilter must not drop it.
    pos = np.array([[0.0, 0.0], [6.855419844806947e-162, 3.7249494740262556e-162]])
    cutoff = float(np.hypot(*pos[1]))
    got = _pairs_within(pos, 100.0, "bounded", cutoff)
    assert (got[0].tolist(), got[1].tolist(), got[2].tolist()) == ([0], [1], [cutoff])


# ============================================================================
#  Link trials (the vectorised channel draw, n links at one distance)
# ============================================================================


def test_link_trial_near_certain_at_tiny_distance():
    p = params(m=2)
    rng = np.random.default_rng(1)
    # y/psi = 1e6 at this distance; failures are astronomically unlikely.
    rho = (p.k * p.ptx / (p.w * p.psi * 1e6)) ** (1.0 / p.alpha)
    assert _links_up(np.full(10_000, rho), p, DiversityScheme.no_diversity(), rng).all()


def test_link_trial_rayleigh_rate():
    p = params(m=1)
    rho = 3.0
    expected = math.exp(-p.psi * p.w * rho**p.alpha / (p.k * p.ptx))
    rng = np.random.default_rng(2)
    n = 200_000
    hits = int(_links_up(np.full(n, rho), p, DiversityScheme.no_diversity(), rng).sum())
    se = math.sqrt(expected * (1 - expected) / n)
    assert abs(hits / n - expected) <= 3 * se


def test_link_trial_shadowed_mrc_rate_vs_quadrature():
    p = params(m=2, sigma=2.0)
    scheme = DiversityScheme.mrc(2)
    rho = 3.2
    expected = shadow_averaged_success(make_success_fn(p, scheme), p.mean_snr(rho), p.sigma)
    rng = np.random.default_rng(3)
    n = 200_000
    hits = int(_links_up(np.full(n, rho), p, scheme, rng).sum())
    se = math.sqrt(expected * (1 - expected) / n)
    assert abs(hits / n - expected) <= 3 * se


def test_link_trial_sc_rate():
    p = params(m=2)
    scheme = DiversityScheme.sc(3)
    rho = 3.5
    from nodeiso.channel import success_prob_mrc

    single = success_prob_mrc(p.mean_snr(rho), 1, p)
    expected = 1 - (1 - single) ** 3
    rng = np.random.default_rng(4)
    n = 200_000
    hits = int(_links_up(np.full(n, rho), p, scheme, rng).sum())
    se = math.sqrt(expected * (1 - expected) / n)
    assert abs(hits / n - expected) <= 3 * se


def _links_up_scaled_gamma(dist, p, scheme, rng):
    """The channel draw as once written, with the gamma scale broadcast per link."""
    y = p.k * p.ptx * dist ** -p.alpha / p.w
    if p.sigma > 0:
        y = y * np.exp(p.sigma * rng.standard_normal(len(dist)))
    m = p.m
    if scheme.kind == "mrc":
        snr = rng.gamma(m * scheme.branches, y / m)
    elif scheme.kind == "sc":
        snr = rng.gamma(m, y[:, None] / m, size=(len(dist), scheme.branches)).max(axis=1)
    else:
        snr = rng.gamma(m, y / m)
    return snr >= p.psi


@pytest.mark.parametrize("sigma", [0.0, 2.0])
@pytest.mark.parametrize("scheme", [DiversityScheme.no_diversity(), DiversityScheme.mrc(2),
                                    DiversityScheme.sc(4), DiversityScheme.sc(2),
                                    DiversityScheme.sc(3), DiversityScheme.sc(6)],
                         ids=["none", "mrc2", "sc4", "sc2", "sc3", "sc6"])
def test_links_up_matches_scaled_gamma_draws(scheme, sigma):
    # SC's reference is the branch maximum .max(axis=1) of one drawn (n, M) array.
    p = params(m=2, sigma=sigma)
    dist = np.random.default_rng(8).random(20_000) * 9.0 + 1e-9
    for seed in (5, 20260809):
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        up = _links_up(dist, p, scheme, rng_new)
        assert np.array_equal(up, _links_up_scaled_gamma(dist, p, scheme, rng_old))
        assert 0 < up.sum() < len(up)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state


def test_coincident_nodes_connect():
    # Distance 0 is clamped to 1e-9, where the mean SNR is astronomically high.
    topo = Topology(positions=np.array([[5.0, 5.0], [5.0, 5.0]]), area_side=100.0,
                    boundary="bounded")
    for scheme in (DiversityScheme.no_diversity(), DiversityScheme.mrc(2), DiversityScheme.sc(3)):
        for sigma in (0.0, 2.0):
            rng = np.random.default_rng(0)
            assert isolation_count(topo, params(m=2, sigma=sigma), scheme, rng) == (0, 2)


def test_gamma_sampler_moments():
    # Sample moments of Gamma(m, y/m) against (y, y^2/m) at one million draws.
    m, y = 3, 25.0
    rng = np.random.default_rng(5)
    draws = rng.gamma(m, y / m, size=1_000_000)
    n = len(draws)
    mean_se = math.sqrt(y**2 / m / n)
    assert abs(draws.mean() - y) <= 3 * mean_se
    var = draws.var(ddof=1)
    # Var(s^2) for Gamma(k, s): (2k^2 + 6k) s^4 / n with s = y/m.
    var_se = math.sqrt((2 * m**2 + 6 * m) * (y / m) ** 4 / n)
    assert abs(var - y**2 / m) <= 3 * var_se


# ============================================================================
#  Isolation counting
# ============================================================================


def test_isolation_count_empty_and_singleton():
    p = params()
    scheme = DiversityScheme.no_diversity()
    rng = np.random.default_rng(0)
    empty = Topology(np.empty((0, 2)), 100.0, "toroidal")
    assert isolation_count(empty, p, scheme, rng) == (0, 0)
    single = Topology(np.array([[5.0, 5.0]]), 100.0, "toroidal")
    assert isolation_count(single, p, scheme, rng) == (1, 1)


def test_isolation_count_two_nodes_matches_link_law():
    p = params(m=2)
    scheme = DiversityScheme.no_diversity()
    d = 3.0
    from nodeiso.channel import success_prob_mrc

    success = success_prob_mrc(p.mean_snr(d), 1, p)
    topo = Topology(np.array([[10.0, 10.0], [10.0 + d, 10.0]]), 100.0, "toroidal")
    rng = np.random.default_rng(6)
    repeats = 30_000
    isolated = 0
    for _ in range(repeats):
        iso, tot = isolation_count(topo, p, scheme, rng)
        assert tot == 2
        assert iso in (0, 2)  # reciprocal link: both or neither
        isolated += iso
    frac = isolated / (2 * repeats)
    se = math.sqrt(success * (1 - success) / repeats)
    assert abs(frac - (1 - success)) <= 3 * se


def test_isolation_count_respects_cutoff():
    p = params(m=2)
    scheme = DiversityScheme.no_diversity()
    topo = Topology(np.array([[0.0, 0.0], [50.0, 0.0]]), 100.0, "bounded")
    iso, tot = isolation_count(topo, p, scheme, np.random.default_rng(0), range_cutoff=10.0)
    assert (iso, tot) == (2, 2)


def _fine_tail_masses(p, scheme, t):
    """Trapezoid link mass from each point of the fine grid t outward, summed
    with quadrature's shadow average, one point at a time."""
    fn = make_success_fn(p, scheme)
    f = np.array([2.0 * math.exp(2.0 * u)
                  * shadow_averaged_success(fn, p.mean_snr(math.exp(u)), p.sigma) for u in t])
    pieces = 0.5 * (f[1:] + f[:-1]) * np.diff(t)
    return np.append(np.cumsum(pieces[::-1])[::-1], 0.0)


@pytest.mark.parametrize("m, sigma, scheme", [
    (2, 0.0, DiversityScheme.no_diversity()),
    (2, 2.0, DiversityScheme.mrc(2)),
    (1, 1.0, DiversityScheme.sc(2)),
    (2, 4.0, DiversityScheme.no_diversity()),
], ids=["m2-sigma0-none", "m2-sigma2-mrc2", "m1-sigma1-sc2", "m2-sigma4-none"])
def test_effective_range_cutoff_holds_all_but_eps_of_link_mass(m, sigma, scheme):
    p = params(m=m, sigma=sigma)
    cutoff = effective_range_cutoff(p, scheme)
    step = simulator._MASS_STEP
    budget = simulator._CUTOFF_MASS * expected_r2(p, scheme)
    # A grid 8x finer than the cutoff's, from two steps inside it to far out.
    t = math.log(cutoff) + np.arange(-16, 4 * 8 / step + 1) * (step / 8)
    tail = _fine_tail_masses(p, scheme, t)
    assert tail[-2] < 1e-3 * budget                 # the fine grid reaches far enough
    assert tail[16] <= budget                       # the mass outside the cutoff
    assert tail[0] > budget                         # r_eps lies within the fine grid
    # Exact r_eps, interpolating ln(tail) between fine points.
    k = int(np.argmax(tail <= budget))
    lo, hi = math.log(tail[k - 1]), math.log(tail[k])
    t_eps = t[k - 1] + (t[k] - t[k - 1]) * (lo - math.log(budget)) / (lo - hi)
    assert t_eps <= math.log(cutoff) <= t_eps + step
    if sigma == 4.0:
        assert 2200.0 < cutoff < 2350.0


def test_effective_range_cutoff_infinite_without_decay():
    # With alpha = 0.02 the mean SNR falls by e^-1 over a factor e^50 in
    # distance; the link mass does not decay before rho^2 overflows.
    assert effective_range_cutoff(params(m=2, alpha=0.02), DiversityScheme.no_diversity()) == math.inf


def test_torus_cell_er2_approaches_plane():
    # sigma = 4: r_eps is about 2.3 km, so the cell alone limits the mass.
    p, scheme = params(m=2, sigma=4.0), DiversityScheme.no_diversity()
    plane = expected_r2(p, scheme)
    grid = simulator._link_mass_grid(p, scheme)
    assert float(grid[1].sum()) == pytest.approx(plane, rel=1e-9)
    fractions = [simulator._torus_cell_er2(grid, side) / plane
                 for side in (100.0, 400.0, 1000.0)]
    # A 2000-8000 point trapezoid in ln(rho) of the mass outside the cell
    # gave 0.88986, 0.99427 and 0.99967.
    assert fractions == pytest.approx([0.88986, 0.99427, 0.99967], abs=1e-4)
    # Without shadowing the 100 m cell holds all but the mass beyond r_eps.
    grid = simulator._link_mass_grid(params(m=2), scheme)
    cell = simulator._torus_cell_er2(grid, 100.0)
    assert 1.0 - simulator._CUTOFF_MASS <= cell / float(grid[1].sum()) < 1.0


def test_link_mass_grid_where_the_budget_product_underflows():
    # k * ptx = 1e-400 is 0 as a float, and its log a domain error.
    p, scheme = params(m=2, k=1e-200, ptx=1e-200), DiversityScheme.no_diversity()
    grid = simulator._link_mass_grid(p, scheme)
    assert float(grid[1].sum()) == pytest.approx(expected_r2(p, scheme), rel=1e-9)


# ============================================================================
#  Full campaigns
# ============================================================================


def _per_replication_reference(cfg, start, stop):
    """Each replication searched and drawn on its own, as isolation_count does."""
    cutoff = effective_range_cutoff(cfg.params, cfg.scheme)
    counts = [isolation_count(sample_topology(cfg, run), cfg.params, cfg.scheme,
                              _seed_sequence_stream(cfg.master_seed, run,
                                                    simulator._CHANNEL_DOMAIN),
                              cutoff)
              for run in range(start, stop)]
    return np.array(counts, dtype=np.int64).reshape(-1, 2)


@pytest.mark.parametrize("boundary", ["toroidal", "bounded"])
@pytest.mark.parametrize("sigma, lam", [(0.0, 1.5e-2), (2.0, 8e-3), (0.0, 1e-4)],
                         ids=["cells", "whole-window", "sparse"])
@pytest.mark.parametrize("budget", [None, 40])
def test_simulate_block_matches_each_replication_alone(monkeypatch, boundary, sigma, lam, budget):
    # 'cells' holds about 150 nodes and a 5.9 m cutoff (the acceptance
    # scale), 'whole-window' a cutoff past half the side, and 'sparse' one
    # node on average, so that 0- and 1-node replications join batches.
    if budget is not None:
        monkeypatch.setattr(simulator, "_BATCH_PAIRS", budget)
    cfg = config(sigma=sigma, lam=lam, runs=60, seed=5, boundary=boundary)
    cutoff = effective_range_cutoff(cfg.params, cfg.scheme)
    start, iso, tot = simulator._simulate_block(cfg, cutoff, 7, 60)
    assert start == 7
    assert np.array_equal(np.stack([iso, tot], axis=1), _per_replication_reference(cfg, 7, 60))


def test_batches_hold_consecutive_replications_within_the_budget(monkeypatch):
    # About 8 nodes and one cell per 6 m: each replication costs its node
    # count, so a budget of 12 pairs some of them and leaves the ones above
    # 12 nodes alone.
    monkeypatch.setattr(simulator, "_BATCH_PAIRS", 12)
    cfg = config(lam=8e-4, runs=300, seed=8)
    cutoff = effective_range_cutoff(cfg.params, cfg.scheme)
    batches = list(simulator._batches(cfg, cutoff, 3, 300))
    assert [run for batch in batches for run, _ in batch] == list(range(3, 300))
    # An empty replication costs as much as one node.
    costs = [[max(len(topology), 1) for _, topology in batch] for batch in batches]
    assert all(sum(c) <= 12 or len(c) == 1 for c in costs)
    assert any(len(c) == 1 and c[0] > 12 for c in costs)
    assert any(len(c) >= 2 for c in costs)
    # Consecutive batches could not have been merged.
    assert all(sum(a) + b[0] > 12 for a, b in zip(costs, costs[1:]))
    # At the default budget the acceptance scale gathers dozens per batch.
    monkeypatch.undo()
    cfg = config(lam=1.5e-2, runs=200, seed=8)
    batches = list(simulator._batches(cfg, effective_range_cutoff(cfg.params, cfg.scheme), 0, 200))
    assert 10 <= 200 / len(batches) <= 60


def test_run_monte_carlo_deterministic_and_parallel():
    cfg = config(runs=120, lam=2e-3, seed=99)
    a = run_monte_carlo(cfg)
    b = run_monte_carlo(cfg)
    c = run_monte_carlo(cfg, n_jobs=3)
    assert a == b == c


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs tasks inline."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


@pytest.mark.parametrize("cpus, jobs, runs, workers", [
    ({0, 1}, 5000, 5000, [2]),
    ({0, 1, 2, 3}, 3, 40, [3]),
    ({0, 1, 2, 3}, 8, 2, [2]),
    ({0}, 8, 40, []),
])
def test_run_monte_carlo_caps_workers(monkeypatch, cpus, jobs, runs, workers):
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "created", [])
    cfg = config(runs=runs, lam=1e-2, seed=99)
    assert run_monte_carlo(cfg, n_jobs=jobs) == run_monte_carlo(cfg)
    assert _RecordingPool.created == workers


def test_run_monte_carlo_agrees_with_analytic():
    p = params(m=2)
    scheme = DiversityScheme.no_diversity()
    lam = min_density_for_isolation(p, scheme, 0.5)
    cfg = SimConfig(params=p, scheme=scheme, node_density=lam, runs=1000, master_seed=7)
    est = run_monte_carlo(cfg)
    assert abs(est.p_isolated - 0.5) <= 3 * est.std_error
    low, high = est.ci95
    assert low <= est.p_isolated <= high


def test_run_monte_carlo_sparse_network_nearly_isolated():
    p = params(m=2)
    scheme = DiversityScheme.no_diversity()
    lam = min_density_for_isolation(p, scheme, 0.9995)
    cfg = SimConfig(params=p, scheme=scheme, node_density=lam, runs=1000, master_seed=21)
    est = run_monte_carlo(cfg)
    assert est.p_isolated >= 0.99
    assert est.runs_empty > 0
    assert est.total_isolated <= est.total_nodes


def test_bounded_estimate_exceeds_toroidal():
    p = params(m=2)
    scheme = DiversityScheme.no_diversity()
    lam = min_density_for_isolation(p, scheme, 0.5)
    tor = run_monte_carlo(SimConfig(params=p, scheme=scheme, node_density=lam,
                                    runs=1200, master_seed=7, boundary="toroidal"))
    bnd = run_monte_carlo(SimConfig(params=p, scheme=scheme, node_density=lam,
                                    runs=1200, master_seed=7, boundary="bounded"))
    # One-sided: edge nodes lose neighbours, so bounded mode is more isolated.
    spread = math.hypot(tor.std_error, bnd.std_error)
    assert bnd.p_isolated >= tor.p_isolated - 3 * spread
    assert bnd.p_isolated > tor.p_isolated


def test_degenerate_sample_warns():
    cfg = config(lam=1e-5, runs=20, seed=3)
    with pytest.warns(RuntimeWarning):
        est = run_monte_carlo(cfg)
    assert est.total_nodes < 100


def test_run_monte_carlo_warns_when_the_torus_cell_truncates_the_link_mass(monkeypatch):
    builds = count_link_mass_grids(monkeypatch)
    with pytest.warns(RuntimeWarning) as caught:
        run_monte_carlo(config(sigma=4.0, lam=5e-3, runs=50, seed=3))
    assert [str(w.message) for w in caught] == [
        "the 100 m torus cell holds 89.0% of the link mass; the simulation estimates its "
        "P_I = 0.3788, not the plane's 0.3359"
    ]
    assert len(builds) == 1
    # A bounded square has no single cell value; without shadowing the
    # 100 m cell holds the disc of radius r_eps.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_monte_carlo(config(sigma=4.0, lam=5e-3, runs=50, seed=3, boundary="bounded"))
        run_monte_carlo(config(lam=5e-3, runs=50, seed=3))


def test_estimate_counters_consistent():
    cfg = config(lam=5e-4, runs=300, seed=13)
    est = run_monte_carlo(cfg)
    assert est.runs_executed == 300
    assert 0 <= est.runs_empty < 300
    assert 0 <= est.runs_with_isolated <= 300 - est.runs_empty
    assert 0.0 <= est.p_isolated <= 1.0
    assert 0.0 <= est.p_any_isolated <= 1.0


# ============================================================================
#  Topology export
# ============================================================================


def test_format_topology_export():
    cfg = config(lam=1e-3, seed=17)
    topo = sample_topology(cfg, 5)
    text = format_topology_export(topo, cfg.master_seed, 5)
    lines = text.strip().split("\n")
    assert lines[0] == "# area_side=100 boundary=toroidal seed=17 run=5"
    assert len(lines) == 1 + len(topo)
    for line in lines[1:]:
        x, y = map(float, line.split(","))
        assert 0.0 <= x < 100.0 and 0.0 <= y < 100.0
