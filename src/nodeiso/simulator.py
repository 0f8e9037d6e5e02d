"""Monte Carlo estimation of the node isolation probability.

Each replication samples a Poisson number of nodes uniformly on a square,
draws one reciprocal channel per node pair (common shadowing across
diversity branches, independent fading per branch) and counts degree-zero
nodes. Replications are deterministic given (master_seed, run_index) and
independently executable in parallel; the reduction is over integer
counters, so serial and parallel execution agree bit for bit. One
link-mass grid per campaign, a range of quadrature's ``_log_grid``, gives
the pair cutoff r_eps and the torus cell's own P_I, with a warning when
the cell cannot hold the link law.
Pairs within r_eps come from one cell-list search (``_pairs_within``)
over each batch of consecutive replications; it returns them in all-pairs
order, and each replication then draws its channels from its own stream.

Replication r has two streams, its topology (domain 0) and its channel
draws (domain 1). Each is a PCG64 generator equal bit for bit to
``np.random.default_rng(np.random.SeedSequence(entropy=(master_seed, r,
domain)))``. ``_seed_words`` computes the four seed words that this
SeedSequence generates, for one run or for an array of runs at once, and
PCG64 seeds itself from them, so a worker seeds its replications in
chunks of ``_SEED_CHUNK`` runs instead of hashing each entropy tuple on
its own.

numpy is imported inside the routines that use it, and numpy.random on
the first seeding, so importing this module loads neither.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .analytic import check_node_density, isolation_from_er2
from .channel import ChannelParams, DiversityScheme, make_success_fn
from .quadrature import _LN_LIMIT, QuadratureError, _log_grid, _shadowed_law

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MonteCarloEstimate",
    "SimConfig",
    "Topology",
    "effective_range_cutoff",
    "format_topology_export",
    "isolation_count",
    "run_monte_carlo",
    "sample_topology",
]

# Pairs farther apart than the cutoff radius r_eps are skipped without
# consuming randomness. Together they carry at most this share of the link
# mass pi * E[R^2], so skipping them raises P_I = exp(-lambda * mass) by a
# relative amount of at most about _CUTOFF_MASS * lambda * pi * E[R^2].
_CUTOFF_MASS = 1e-6

# The link mass is summed on the grid t = ln(rho) = t_psi + k * _MASS_STEP,
# anchored where the mean SNR equals psi. The cutoff is a grid radius, so it
# lies at most a factor e^_MASS_STEP beyond r_eps. The grid grows in
# quadrature's blocks until each tail left out holds at most quadrature's
# _TAIL_SHARE of _CUTOFF_MASS of the mass.
_MASS_STEP = 1.0 / 32.0

# Grid points times Hermite nodes per call of the success law, half of
# quadrature's chunk: with 2^14 (128 KiB float64 arrays) the peak RSS of the
# 12 acceptance cells rose by 0.5-0.8 MB over the pointwise search; with
# 2^13 it stayed at its level.
_MASS_CHUNK = 1 << 13

# The pair search expands candidates in chunks of about this many pairs, so
# its scratch memory does not grow with the square of the node count. 2**14
# float64 pairs (128 KiB per array) measured faster than 2**17 (1 MiB),
# whose arrays are most likely handed back to the OS and faulted in again on
# every call, and than 2**12, which made the 3200-node mc-dense topologies
# 10-20% slower. A batch of replications (``_BATCH_PAIRS``) mostly fits in one.
_BLOCK_PAIRS = 1 << 14

# One pair search covers consecutive replications up to about this many
# estimated candidate pairs, which spreads numpy's per-call cost over the
# batch. The budget counts candidates, not nodes: a budget of 4096 nodes
# gathered about 39 of the sigma = 2 acceptance replications (about 4.7k
# pairs each) and raised that workload's peak RSS from 41.5 to 55.9 MB.
_BATCH_PAIRS = 1 << 13

# Fading gains are drawn for this many pairs at a time, so their scratch
# (M + 1 float64 arrays of a chunk under SC) does not grow with the pair
# count. On the mc-dense cells (about 0.3M pairs per replication, 2-vCPU
# Xeon) chunks of 2^16 measured no faster and 2^12 about 4% slower.
_DRAW_CHUNK = 1 << 14

# numpy's Poisson sampler refuses a mean above this: the int64 maximum less
# ten standard deviations.
_POISSON_MAX_MEAN = (2**63 - 1) - 10.0 * math.sqrt(2**63 - 1)

# Substream domains under one (master_seed, run_index) pair.
_TOPOLOGY_DOMAIN = 0
_CHANNEL_DOMAIN = 1

# Seed words are computed for this many consecutive runs of one domain at a
# time. One array pass costs about 0.15-0.2 ms at any length up to here,
# against 14-28 us per run for SeedSequence and default_rng; a chunk per
# pair-search batch (7-60 runs) would keep most of that fixed cost, and one
# chunk per campaign would grow with the number of runs.
_SEED_CHUNK = 1 << 10

_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: channel, density, geometry, replication."""

    params: ChannelParams
    scheme: DiversityScheme
    node_density: float          # nodes per square meter
    area_side: float = 100.0     # meters
    boundary: str = "toroidal"   # 'bounded' | 'toroidal'
    runs: int = 1000
    master_seed: int = 0

    def __post_init__(self) -> None:
        check_node_density(self.node_density)
        if not 0.0 < self.area_side < math.inf:
            raise ValueError(f"area side must be positive and finite, got {self.area_side}")
        try:
            expected_nodes = self.node_density * self.area_side**2
        except OverflowError:
            expected_nodes = math.inf
        if not math.isfinite(expected_nodes):
            raise ValueError(
                f"area side {self.area_side:g} m gives a non-finite expected node count "
                f"lambda * side^2 at node density {self.node_density:g}"
            )
        if expected_nodes > _POISSON_MAX_MEAN:
            raise ValueError(
                f"area side {self.area_side:g} m at node density {self.node_density:g} gives "
                f"{expected_nodes:.3g} expected nodes per replication, above the Poisson "
                f"sampler's limit of {_POISSON_MAX_MEAN:.3g}"
            )
        if self.boundary not in ("bounded", "toroidal"):
            raise ValueError(f"boundary must be 'bounded' or 'toroidal', got {self.boundary!r}")
        if int(self.runs) != self.runs or self.runs < 1:
            raise ValueError(f"runs must be a positive integer, got {self.runs}")
        if int(self.master_seed) != self.master_seed or not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master seed must be a 64-bit unsigned integer, got {self.master_seed}")
        object.__setattr__(self, "runs", int(self.runs))
        object.__setattr__(self, "master_seed", int(self.master_seed))


@dataclass(frozen=True)
class Topology:
    """Sampled node positions on the simulation square."""

    positions: np.ndarray        # shape (n, 2), coordinates in [0, area_side)
    area_side: float
    boundary: str

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Isolation-probability estimate with uncertainty and counters."""

    p_isolated: float
    std_error: float
    ci95: tuple[float, float]
    total_nodes: int
    total_isolated: int
    runs_executed: int
    runs_empty: int
    runs_with_isolated: int

    @property
    def p_any_isolated(self) -> float:
        """Fraction of nonempty replications containing an isolated node."""
        nonempty = self.runs_executed - self.runs_empty
        return self.runs_with_isolated / nonempty if nonempty else math.nan


def _seed_words(master_seed: int, run, domain: int) -> np.ndarray:
    """``np.random.SeedSequence(entropy=(master_seed, run, domain)).generate_state(4, np.uint64)``.

    ``run`` is an int, or a uint64 array of runs below 2**32; an array gives
    one row of four words per run. The arithmetic is numpy's SeedSequence
    (``_bit_generator.pyx``, fixed by its stream-compatibility policy): each
    entropy value becomes little-endian 32-bit words ([0] for 0), the words
    are hashed into a pool of four, every pool word is mixed into every
    other, words past the fourth are mixed into all four, and the pool is
    hashed out as eight 32-bit words, paired into four 64-bit ones. Values
    are Python ints or uint64 arrays holding 32-bit words, reduced with
    ``& _MASK32`` after each product, so one code serves both.
    """
    import numpy as np

    entropy = []
    for value in (master_seed, run, domain):
        if isinstance(value, np.ndarray):
            entropy.append(value)
            continue
        entropy.append(value & _MASK32)
        while value >> 32:
            value >>= 32
            entropy.append(value & _MASK32)
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[k] if k < len(entropy) else 0) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = 0x8B51F9DD
    out = []
    for k in range(8):
        value = pool[k % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        out.append(value ^ value >> 16)
    words = np.array([out[k] | out[k + 1] << 32 for k in range(0, 8, 2)], dtype=np.uint64)
    return np.ascontiguousarray(words.T)


@functools.cache
def _preset_seed() -> type:
    """An ``ISeedSequence`` that hands PCG64 seed words computed beforehand.

    numpy.random.bit_generator is imported here, on first use, so that
    only a simulation loads numpy.random.
    """
    import numpy as np
    from numpy.random.bit_generator import ISeedSequence

    class PresetSeed(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks only for its four uint64 words.
            return self.words

    return PresetSeed


def _generator(words: np.ndarray) -> np.random.Generator:
    """The PCG64 generator that numpy seeds from ``words`` (one row of ``_seed_words``)."""
    import numpy as np

    return np.random.Generator(np.random.PCG64(_preset_seed()(words)))


def _streams(master_seed: int, domain: int, start: int, stop: int):
    """The generators of runs start..stop-1 in one domain, in run order.

    Seed words come ``_SEED_CHUNK`` runs at a time from one array pass of
    ``_seed_words``; a chunk that reaches run 2**32, where a run becomes two
    entropy words, is computed run by run.
    """
    import numpy as np

    for a in range(start, stop, _SEED_CHUNK):
        b = min(a + _SEED_CHUNK, stop)
        if b <= 2**32:
            rows = _seed_words(master_seed, np.arange(a, b, dtype=np.uint64), domain)
        else:
            rows = (_seed_words(master_seed, run, domain) for run in range(a, b))
        for words in rows:
            yield _generator(words)


# ============================================================================
#  Geometry and link draws
# ============================================================================


def sample_topology(
    config: SimConfig, run_index: int, *, rng: np.random.Generator | None = None
) -> Topology:
    """Poisson node count, independent uniform positions on the square.

    Deterministic in (config.master_seed, run_index); zero-node outputs
    are valid. ``rng`` is the run's topology stream when the caller has
    seeded it already (``_batches`` seeds a chunk of runs at once).
    """
    if rng is None:
        rng = _generator(_seed_words(config.master_seed, run_index, _TOPOLOGY_DOMAIN))
    count = int(rng.poisson(config.node_density * config.area_side**2))
    positions = rng.random((count, 2)) * config.area_side
    return Topology(positions=positions, area_side=config.area_side, boundary=config.boundary)


def _reach(cutoff: float, extent: float) -> float:
    """The cutoff plus a slack for rounding in hypot (relative to the cutoff)
    and in cell or window bounds (relative to the largest coordinate,
    ``extent``), so that a search by reach finds every pair the exact test
    keeps; the exact test then drops the extras."""
    return cutoff * (1.0 + 1e-9) + 8.0 * math.ulp(1.0) * extent


def _pairs_within(
    positions: np.ndarray,
    area_side: float,
    boundary: str,
    cutoff: float,
    offsets: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unordered pairs (i < j) at distance <= cutoff, in row-major order.

    ``positions`` holds the nodes of consecutive replications, those of
    replication r at rows ``offsets[r]:offsets[r + 1]`` (one replication
    when ``offsets`` is None); pairs never join two replications. Returns
    index arrays ``i`` and ``j`` into ``positions`` and the distances, in
    (replication, i, j) order: for each replication exactly the order of
    ``np.triu_indices`` restricted to its kept pairs. Distances use per-axis
    wraparound in toroidal mode.

    A cell list (Allen & Tildesley, Computer Simulation of Liquids, 2nd ed.,
    sec. 5.3) finds the candidates. Each axis has nc = floor(side / reach)
    cells, so a cell is at least the cutoff (plus slack) wide, but no more
    than about four cells per node of a replication. A node's candidates
    are the later nodes of its own cell and every node of the cells (0, 1),
    (1, -1), (1, 0) and (1, 1) from it, a half stencil that meets each pair
    of neighbouring cells once. On the torus the neighbours across an edge
    are periodic images: column 0 is entered again as a margin column nc,
    then rows 0 and nc - 1 as margin rows nc and -1; on a bounded square
    the margin stays empty. With the cells in column-major order the
    stencil is two runs of sorted entries per node. Below three cells per
    axis (an infinite cutoff included) a torus cell would be its own
    neighbour, so every later node of the same replication is a candidate
    and no sort is needed.

    Candidates are expanded in chunks of at most about ``_BLOCK_PAIRS``; a
    squared-distance prefilter with a little slack discards far ones
    cheaply, and the survivors are decided by the same elementwise
    operations as an all-pairs enumeration (``abs``, the torus ``minimum``,
    ``hypot``, ``<= cutoff``), so the pair set and every distance equal that
    enumeration's.

    Each kept pair is held as one int64 key ``i * n + j`` and its distance,
    16 bytes. On the cell grid one in-place sort of ``key * 2^bits +
    position``, ``bits`` the bit length of the pair count, restores the
    order, with each pair's position in the low bits for one gather of the
    distances; where that would leave int64 (``_packs``), an argsort of the
    keys does. ``divmod(key, n)`` gives i and j.
    """
    import numpy as np

    n = len(positions)
    if n < 2:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)
    if offsets is None:
        offsets = np.array([0, n])
    sizes = np.diff(offsets)
    reps = len(sizes)
    x = np.ascontiguousarray(positions[:, 0])
    y = np.ascontiguousarray(positions[:, 1])
    reach = _reach(cutoff, max(area_side, float(np.abs(positions).max())))
    # More cells than about four per node only add empty ones to visit.
    nc = int(min(area_side / reach, 2 * math.isqrt(n // reps)))
    if nc < 3:
        node, xs, ys, segments = None, x, y, 1
        starts = np.arange(1, n + 1)
        lengths = np.repeat(offsets[1:], sizes) - starts
    else:
        # Cell (cx, cy) of replication r has the key r * width * height +
        # cx * height + cy + 1, which leaves room for the margin.
        height, width = nc + 2, nc + 1
        scale = nc / area_side
        cx = np.minimum((x * scale).astype(np.intp), nc - 1)
        cy = np.minimum((y * scale).astype(np.intp), nc - 1)
        key = np.repeat(np.arange(1, reps * width * height, width * height), sizes)
        key += cx * height + cy
        node = np.arange(n)
        if boundary == "toroidal":
            wrap = np.flatnonzero(cx == 0)
            node = np.concatenate((node, wrap))
            key = np.concatenate((key, key[wrap] + nc * height))
            cy = np.concatenate((cy, cy[wrap]))
            low, high = np.flatnonzero(cy == 0), np.flatnonzero(cy == nc - 1)
            node = np.concatenate((node, node[low], node[high]))
            key = np.concatenate((key, key[low] + nc, key[high] - nc))
        # Any order within a cell serves: the final sort of the keys
        # restores the pairs' order.
        order = np.argsort(key)
        slot = np.empty(len(key), dtype=np.intp)
        slot[order] = np.arange(len(key))
        node = node[order]
        xs, ys = x[node], y[node]
        cell_end = np.cumsum(np.bincount(key, minlength=reps * width * height))
        own = key[:n]
        # Run 0: the later entries of the node's cell, then the cell above.
        # Run 1: the cells (cx + 1, cy - 1 .. cy + 1).
        segments = 2
        ranges = np.empty((n, 2, 2), dtype=np.intp)
        ranges[:, 0, 0] = slot[:n] + 1
        ranges[:, 0, 1] = cell_end[own + 1]
        ranges[:, 1, 0] = cell_end[own + height - 2]
        ranges[:, 1, 1] = cell_end[own + height + 1]
        starts = ranges[:, :, 0].ravel()
        lengths = ranges[:, :, 1].ravel() - starts
    cum = np.cumsum(lengths)
    ends = cum[segments - 1 :: segments]
    per_node = np.diff(ends, prepend=0)
    # Candidate t of segment s sits at position t + shift[s].
    shift = starts - (cum - lengths)
    # The prefilter's slack keeps every pair the exact test keeps, including
    # squares that round up or underflow.
    limit = cutoff * cutoff * (1.0 + 1e-9) + np.finfo(float).tiny
    out_key, out_d = [], []
    p0 = 0
    while p0 < n:
        base = int(ends[p0 - 1]) if p0 else 0
        p1 = max(p0 + 1, int(np.searchsorted(ends, base + _BLOCK_PAIRS, side="right")))
        seg = slice(segments * p0, segments * p1)
        q = np.arange(base, int(ends[p1 - 1])) + np.repeat(shift[seg], lengths[seg])
        counts = per_node[p0:p1]
        dx = np.repeat(x[p0:p1], counts)
        dx -= xs[q]
        np.abs(dx, out=dx)
        dy = np.repeat(y[p0:p1], counts)
        dy -= ys[q]
        np.abs(dy, out=dy)
        if boundary == "toroidal":
            np.minimum(dx, area_side - dx, out=dx)
            np.minimum(dy, area_side - dy, out=dy)
        d2 = dx * dx
        d2 += dy * dy
        cand = np.flatnonzero(d2 <= limit)
        dist = np.hypot(dx[cand], dy[cand])
        exact = dist <= cutoff
        keep = cand[exact]
        dist = dist[exact]
        i, j = np.repeat(np.arange(p0, p1), counts)[keep], q[keep]
        if node is not None:
            j = node[j]
            i, j = np.minimum(i, j), np.maximum(i, j)
        i *= n
        i += j
        out_key.append(i)
        out_d.append(dist)
        p0 = p1
    # Each list is freed before the next is joined.
    key = np.concatenate(out_key)
    del out_key
    dist = np.concatenate(out_d)
    del out_d
    count = len(key)
    if node is not None:
        bits = count.bit_length()
        if _packs(n, bits):
            # key * 2^bits + position: sorting it in place puts the pairs in
            # key order and carries each one's position in the low bits.
            key <<= bits
            key += np.arange(count)
            key.sort()
            rank = key & ((1 << bits) - 1)
            key >>= bits
        else:
            rank = np.argsort(key)
            key = key[rank]
        dist = dist[rank]
        del rank
    j = np.empty_like(key)
    np.divmod(key, n, out=(key, j))
    return key, j, dist


def _packs(n: int, bits: int) -> bool:
    """Whether a pair key below n^2, shifted left by ``bits``, fits in int64."""
    return n * n << bits <= 2**63


def _links_up(
    dist: np.ndarray,
    params: ChannelParams,
    scheme: DiversityScheme,
    rng: np.random.Generator,
) -> np.ndarray:
    """Realize one channel per link distance; True where the link is up.

    One shadowing multiplier per link is shared across all diversity
    branches; branch fading gains are independent. The MRC combiner output
    is drawn as a single Gamma(m*M, y/m) variate (the exact law of the
    branch sum), which for single-branch reception is Gamma(m, y/m); SC
    draws all M branches and keeps the maximum. All shadowing normals are
    drawn before any fading gamma. Distances must be positive.

    Gammas are drawn with a scalar shape and scaled afterwards (for SC after
    the maximum). numpy's ``gamma(k, s)`` is ``s * standard_gamma(k)`` from
    the same stream and rounding a product with a positive scale is
    monotone, so the outcomes equal those of ``rng.gamma(m, y / m)`` bit for
    bit while skipping its per-element broadcasting.

    The shadowing factor and 1/m are applied to y in place. The gammas are
    drawn ``_DRAW_CHUNK`` pairs at a time (rows of M under SC), in the order
    of one call, and compared into one preallocated link mask, so the
    scratch beyond y does not grow with the pair count.
    """
    import numpy as np

    y = params.mean_snr(dist)
    if params.sigma > 0:
        shadow = rng.standard_normal(len(dist))
        shadow *= params.sigma
        np.exp(shadow, out=shadow)
        y *= shadow
        del shadow
    m = params.m
    y /= m
    count = len(dist)
    up = np.empty(count, dtype=bool)
    for a in range(0, count, _DRAW_CHUNK):
        rows = min(count - a, _DRAW_CHUNK)
        if scheme.kind == "sc":
            draws = rng.standard_gamma(m, (rows, scheme.branches))
            # The same values as draws.max(axis=1), which reduces a short
            # inner axis about ten times slower than a maximum over whole
            # columns.
            gain = draws[:, 0].copy()
            for branch in range(1, scheme.branches):
                np.maximum(gain, draws[:, branch], out=gain)
        else:
            gain = rng.standard_gamma(m * scheme.branches, rows)
        gain *= y[a : a + rows]
        np.greater_equal(gain, params.psi, out=up[a : a + rows])
    return up


def _link_mass_grid(
    params: ChannelParams, scheme: DiversityScheme
) -> tuple[np.ndarray, np.ndarray] | None:
    """Grid radii rho and the link mass h * 2 rho^2 * pbar(rho) at each.

    pbar is quadrature's shadow average of the link law, so the masses sum
    to a trapezoid value of E[R^2] = integral 2 rho^2 pbar(rho) d(ln rho),
    computed without the closed form. The radii are quadrature's
    ``_log_grid`` range in t = ln rho, to tolerance ``_CUTOFF_MASS``, and
    ascend. The law is called once per chunk of at most ``_MASS_CHUNK``
    grid points times Hermite nodes. None when the integrand does not decay
    before e^{2t} leaves the float range.
    """
    import numpy as np

    ln_budget = params.ln_budget
    pbar_of, ln_scales = _shadowed_law(make_success_fn(params, scheme), ln_budget, params.sigma)
    t_psi = (ln_budget - math.log(params.psi)) / params.alpha
    points = max(1, _MASS_CHUNK // len(ln_scales))
    chunks: dict[float, np.ndarray] = {}

    def pbar(t: np.ndarray) -> np.ndarray:
        # The law's t is ln rho^alpha; each chunk is kept under its first t.
        chunks[float(t[0])] = p = pbar_of(params.alpha * t)
        return p

    try:
        # rho^2 = e^{2t} must stay a finite float.
        lo, hi, _ = _log_grid(
            pbar, 2.0, t_psi, t_psi, 0.5 * _LN_LIMIT, _MASS_STEP, points, _CUTOFF_MASS
        )
    except QuadratureError:
        return None
    t = t_psi + np.arange(lo, hi) * _MASS_STEP
    pbar_t = np.concatenate([chunks[k] for k in sorted(chunks)])
    return np.exp(t), 2.0 * _MASS_STEP * np.exp(2.0 * t) * pbar_t


def _grid_cutoff(grid: tuple[np.ndarray, np.ndarray] | None) -> float:
    """Smallest grid radius whose outer tail holds at most _CUTOFF_MASS of the mass.

    The tail from grid point k outward is the trapezoid sum mass[k]/2 +
    sum(mass[k+1:]); on the convex far tail that overstates the integral,
    so the radius rounds outward. inf without a grid.
    """
    import numpy as np

    if grid is None:
        return math.inf
    rho, mass = grid
    outer = np.cumsum(mass[::-1])[::-1] - 0.5 * mass
    return float(rho[np.argmax(outer <= _CUTOFF_MASS * float(mass.sum()))])


def effective_range_cutoff(params: ChannelParams, scheme: DiversityScheme) -> float:
    """Radius r_eps outside which pairs carry at most _CUTOFF_MASS of the link mass.

    :func:`_grid_cutoff` on the grid of :func:`_link_mass_grid`, which
    sums the mass without the closed form. inf when the integrand does not
    decay inside the float range.
    """
    return _grid_cutoff(_link_mass_grid(params, scheme))


def _torus_cell_er2(grid: tuple[np.ndarray, np.ndarray], area_side: float) -> float:
    """The counterpart of E[R^2] that a toroidal replication represents.

    On the torus a node's neighbours are Poisson on the side x side cell
    centred on it, so the sampler's own P_I is exp(-lambda * pi * this).
    Each grid radius up to r_eps counts with the share of its circle that
    lies inside the cell; the grid's mass sums to the plane's E[R^2].
    """
    import numpy as np

    rho, mass = grid
    kept = rho <= _grid_cutoff(grid)
    # The circle leaves the cell through four arcs of 2 rho arccos(half / rho)
    # each once rho > half; in_cell is its length inside over rho.
    arc_outside = 8.0 * np.arccos(np.minimum(0.5 * area_side / rho[kept], 1.0))
    in_cell = np.maximum(2.0 * math.pi - arc_outside, 0.0)
    return float(mass[kept] @ in_cell) / (2.0 * math.pi)


# ============================================================================
#  Replications
# ============================================================================


def isolation_count(
    topology: Topology,
    params: ChannelParams,
    scheme: DiversityScheme,
    rng: np.random.Generator,
    range_cutoff: float = math.inf,
    *,
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[int, int]:
    """Count degree-zero nodes after one channel realization per pair.

    Links are reciprocal: a single draw decides both directions of each
    unordered pair. Pairs beyond the range cutoff are skipped without
    consuming randomness. The kept pairs come in ``np.triu_indices`` order
    (row-major over i < j) and all draws are made after enumeration, so the
    result is deterministic in the generator state and bit-identical to an
    all-pairs enumeration. ``pairs`` is the topology's ``(i, j, dist)`` from
    a search already made (``_simulate_block`` searches a batch of
    replications at once); without it ``_pairs_within`` searches this
    topology. The distances are clamped in place.
    """
    import numpy as np

    n = len(topology)
    if pairs is None:
        pairs = _pairs_within(
            topology.positions, topology.area_side, topology.boundary, range_cutoff
        )
    i_idx, j_idx, dist = pairs
    connected = np.zeros(n, dtype=bool)
    if len(dist):
        # Coincident nodes get a finite, huge mean SNR.
        np.maximum(dist, 1e-9, out=dist)
        up = _links_up(dist, params, scheme, rng)
        connected[i_idx[up]] = True
        connected[j_idx[up]] = True
    isolated = n - int(connected.sum())
    return isolated, n


def _batches(config: SimConfig, range_cutoff: float, start: int, stop: int):
    """Consecutive replications as lists of (run index, topology), each list
    holding at most about ``_BATCH_PAIRS`` candidate pairs of the search.

    The estimate for n nodes is n(n-1)/2 below three cells per axis and
    4.5 n^2 / nc^2 on the cell grid (half of a cell's nodes and four whole
    cells around each node), and at least max(n, 1), so that tiny cutoffs
    and empty replications cannot gather without bound. A replication above
    the budget forms a batch of its own.
    """
    nc = math.floor(config.area_side / _reach(range_cutoff, config.area_side))
    batch: list[tuple[int, Topology]] = []
    load = 0.0
    streams = _streams(config.master_seed, _TOPOLOGY_DOMAIN, start, stop)
    for run, rng in zip(range(start, stop), streams):
        topology = sample_topology(config, run, rng=rng)
        n = len(topology)
        estimate = n * (n - 1) / 2 if nc < 3 else 4.5 * n * n / (nc * nc)
        cost = max(estimate, n, 1)
        if batch and load + cost > _BATCH_PAIRS:
            yield batch
            batch, load = [], 0.0
        batch.append((run, topology))
        load += cost
    if batch:
        yield batch


def _simulate_block(
    config: SimConfig,
    range_cutoff: float,
    start: int,
    stop: int,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Replications start..stop-1: one pair search per batch of them, then
    each replication's channel draws from its own stream."""
    import numpy as np

    isolated = np.empty(stop - start, dtype=np.int64)
    totals = np.empty(stop - start, dtype=np.int64)
    streams = _streams(config.master_seed, _CHANNEL_DOMAIN, start, stop)
    for batch in _batches(config, range_cutoff, start, stop):
        offsets = np.cumsum([0] + [len(topology) for _, topology in batch])
        positions = np.concatenate([topology.positions for _, topology in batch])
        i, j, dist = _pairs_within(
            positions, config.area_side, config.boundary, range_cutoff, offsets
        )
        # Pairs come in replication order; these are each one's first.
        bounds = np.searchsorted(i, offsets)
        for k, (run, topology) in enumerate(batch):
            a, b, offset = bounds[k], bounds[k + 1], offsets[k]
            pairs = (i[a:b], j[a:b], dist[a:b])
            if offset:
                pairs = (pairs[0] - offset, pairs[1] - offset, pairs[2])
            isolated[run - start], totals[run - start] = isolation_count(
                topology, config.params, config.scheme, next(streams), range_cutoff, pairs=pairs
            )
        # Freed before the next batch's search allocates its own.
        del i, j, dist, pairs
    return start, isolated, totals


def _usable_cpus() -> int:
    """CPUs this process may run on (the affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_monte_carlo(
    config: SimConfig, n_jobs: int = 1, grids: dict | None = None
) -> MonteCarloEstimate:
    """Execute all replications and reduce them to one estimate.

    The point estimate is total isolated nodes over total nodes; the
    standard error treats each replication as one cluster, which accounts
    for the correlation of isolation events within a topology. Results are
    bit-identical for any n_jobs. Workers are capped at the number of
    replications and at the CPUs this process may run on.

    One link-mass grid gives the range cutoff r_eps and, on the torus, the
    cell's P_I. It depends only on (params, scheme), so callers that run
    several campaigns, such as a sweep over the density, can pass a dict
    ``grids`` that keeps one per (params, scheme) across calls.
    RuntimeWarnings report fewer than 100 node samples, and a torus cell
    whose P_I, the estimate's target, differs from the plane's by more than
    half a standard error.
    """
    import numpy as np

    if int(n_jobs) != n_jobs or n_jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {n_jobs}")
    grids = {} if grids is None else grids
    channel = (config.params, config.scheme)
    if channel not in grids:
        grids[channel] = _link_mass_grid(config.params, config.scheme)
    grid = grids[channel]
    cutoff = _grid_cutoff(grid)
    runs = config.runs
    isolated = np.empty(runs, dtype=np.int64)
    totals = np.empty(runs, dtype=np.int64)
    n_jobs = min(int(n_jobs), runs, _usable_cpus())
    if n_jobs <= 1:
        _, isolated, totals = _simulate_block(config, cutoff, 0, runs)
    else:
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, runs, n_jobs + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            futures = [
                pool.submit(_simulate_block, config, cutoff, int(a), int(b))
                for a, b in zip(bounds[:-1], bounds[1:])
                if b > a
            ]
            for fut in futures:
                start, iso_block, tot_block = fut.result()
                isolated[start : start + len(iso_block)] = iso_block
                totals[start : start + len(tot_block)] = tot_block

    total_nodes = int(totals.sum())
    total_isolated = int(isolated.sum())
    runs_empty = int((totals == 0).sum())
    runs_with_isolated = int((isolated > 0).sum())
    if total_nodes == 0:
        p = math.nan
        se = math.nan
        ci = (math.nan, math.nan)
    else:
        p = total_isolated / total_nodes
        if runs > 1:
            residuals = isolated - p * totals
            se = math.sqrt(runs * float(np.sum(residuals**2))) / ((runs - 1) ** 0.5 * total_nodes)
        else:
            se = math.nan
        ci = (max(0.0, p - 1.96 * se), min(1.0, p + 1.96 * se))
    if total_nodes < 100:
        warnings.warn(
            f"only {total_nodes} node samples across {runs} runs; "
            "the standard error is unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    if config.boundary == "toroidal" and grid is not None and 0.0 < se < math.inf:
        cell, plane = _torus_cell_er2(grid, config.area_side), float(grid[1].sum())
        p_cell = isolation_from_er2(config.node_density, cell)
        p_plane = isolation_from_er2(config.node_density, plane)
        if abs(p_cell - p_plane) > 0.5 * se:
            warnings.warn(
                f"the {config.area_side:g} m torus cell holds {100.0 * cell / plane:.1f}% of "
                f"the link mass; the simulation estimates its P_I = {p_cell:.4f}, not the "
                f"plane's {p_plane:.4f}",
                RuntimeWarning,
                stacklevel=2,
            )
    return MonteCarloEstimate(
        p_isolated=p,
        std_error=se,
        ci95=ci,
        total_nodes=total_nodes,
        total_isolated=total_isolated,
        runs_executed=runs,
        runs_empty=runs_empty,
        runs_with_isolated=runs_with_isolated,
    )


def format_topology_export(topology: Topology, master_seed: int, run_index: int) -> str:
    """Render a topology in the plotter exchange format.

    Header line '# area_side=<v> boundary=<mode> seed=<s> run=<i>' followed
    by one 'x,y' line per node in decimal meters.
    """
    lines = [
        f"# area_side={topology.area_side:g} boundary={topology.boundary} "
        f"seed={master_seed} run={run_index}"
    ]
    for x, y in topology.positions:
        lines.append(f"{x:.6f},{y:.6f}")
    return "\n".join(lines) + "\n"
