"""References that several test modules share, each written once."""

import math
from fractions import Fraction

import numpy as np

import nodeiso.quadrature as quadrature
import nodeiso.simulator as simulator
from nodeiso.channel import ChannelParams, build_beta_table

# K = 10, psi = 10 (both linear, i.e. 10 dB), ptx = 1 mW, w = 0.01 mW.
BASE = dict(ptx=1.0, w=0.01, k=10.0, psi=10.0)


def params(m=1, sigma=0.0, alpha=4.0, **over):
    """The reference channel, with any field of ``BASE`` overridden."""
    return ChannelParams(**dict(BASE, alpha=alpha, sigma=sigma, m=m, **over))


def theta(p):
    """m psi w / (k ptx), the threshold-to-budget ratio, as a plain float product."""
    return p.m * p.psi * p.w / (p.k * p.ptx)


def beta_rows_fraction(m, order):
    """Exact beta rows: repeated polynomial self-convolution in rationals."""
    kernel = [Fraction(1, math.factorial(k)) for k in range(m)]
    rows = [[Fraction(1)]]
    for _ in range(order):
        prev = rows[-1]
        new = [Fraction(0)] * (len(prev) + m - 1)
        for i, b in enumerate(prev):
            for j, c in enumerate(kernel):
                new[i + j] += b * c
        rows.append(new)
    return rows


def occupancy_rows_fraction(m, order):
    """Exact occupancy rows beta_{h,l} * l!/h^l: the chance that l balls in h
    bins leave every bin below m."""
    return [[b * math.factorial(l) / Fraction(max(h, 1)) ** l for l, b in enumerate(row)]
            for h, row in enumerate(beta_rows_fraction(m, order))]


def mrc_er2_series(p, branches):
    """MRC E[R^2] as the Erlang series x0 theta^(-x0) sum_{l<mM} Gamma(x0+l)/l!
    times the shadowing factor, x0 = 2/alpha: the term-by-term sum that the
    closed form's Gamma ratio Gamma(mM+x0)/Gamma(mM) replaces. Integer m only."""
    x0 = 2.0 / p.alpha
    terms = [math.gamma(x0)]
    for l in range(1, p.m * branches):
        terms.append(terms[-1] * (x0 + l - 1) / l)
    return x0 * theta(p)**-x0 * math.fsum(terms) * math.exp(2.0 * p.sigma**2 / p.alpha**2)


def sc_er2_alternating(p, branches):
    """SC E[R^2] as the alternating sum over branch subsets h of
    C(M,h) h^(-x0) c_{h,l} Gamma(x0+l)/l!, c the occupancy table: the sum
    that the closed form's positive series replaces. Integer m only; the
    sum cancels, by about 2e-10 at (m, M) = (256, 16) and more beyond."""
    x0, table = 2.0 / p.alpha, build_beta_table(p.m, branches)
    terms = []
    for h in range(1, branches + 1):
        ladder = [h**-x0 * math.gamma(x0)]
        for l in range(1, len(table.rows[h])):
            ladder.append(ladder[-1] * (x0 + l - 1) / l)
        weight = (-1.0 if h % 2 else 1.0) * math.comb(branches, h)
        terms.extend(weight * c * g for c, g in zip(table.rows[h], ladder))
    return -x0 * theta(p)**-x0 * math.fsum(terms) * math.exp(2.0 * p.sigma**2 / p.alpha**2)


def truncated_exp_series_full(x, num_terms):
    """Q(num_terms, x) with every term summed over the whole array: the
    plain loop that ``specialfn.truncated_exp_series`` must match bit for bit."""
    x = np.asarray(x, dtype=float)[()]
    far = x > 700.0
    near = np.minimum(x, 700.0)
    term = total = 1.0
    for l in range(1, num_terms):
        term = term * (near / l)
        total = total + term
    out = np.exp(-near) * total
    if far.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            lx = np.log(x)
            acc = 0.0
            for l in range(num_terms):
                acc = acc + np.exp(-x + l * lx - math.lgamma(l + 1.0))
        out = np.where(far, np.where(np.isinf(x), 0.0, acc), out)
    out = np.minimum(out, 1.0)
    return float(out) if np.ndim(out) == 0 else out


def log_grid_one_block_per_call(f, rate, origin, t_start, t_max, h, points, tol):
    """(lo, hi, h * sum) of ``quadrature._log_grid`` with one law call per chunk of
    each block: the plain growth loop that the batched one must match bit for bit."""
    q = quadrature
    tail, block = q._TAIL_SHARE * tol, max(1, round(q._BLOCK_WIDTH / h))

    def block_sum(start):
        acc = 0.0
        for a in range(start, start + block, points):
            t = origin + np.arange(a, min(a + points, start + block)) * h
            acc += float(np.sum(rate * np.exp(rate * t) * f(t)))
        return h * acc

    lo = hi = math.floor((min(t_start, t_max) - origin) / h)
    total, previous = 0.0, math.inf
    while True:
        if origin + (hi + block) * h > t_max:
            raise q.QuadratureError("the integrand does not decay inside the float range")
        current = block_sum(hi)
        hi += block
        total += current
        if current <= tail * total and current <= previous:
            break
        previous = current
    while (edge := math.exp(rate * (origin + lo * h))) > tail * total:
        t_end = (math.log(tail) + math.log(total + edge)) / rate
        if hi - lo > q._MAX_POINTS or hi - (t_end - origin) / h > q._MAX_POINTS + block:
            raise q.QuadratureError(f"the left tail needs more than {q._MAX_POINTS} points")
        total += block_sum(lo - block)
        lo -= block
    return lo, hi, total


def count_link_mass_grids(monkeypatch):
    """The list to which every later build of a link-mass grid appends its arguments."""
    builds, build = [], simulator._link_mass_grid

    def counting(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(simulator, "_link_mass_grid", counting)
    return builds
