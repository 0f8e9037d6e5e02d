"""Numerical evaluation of the defining range integrals.

This module is the independent check on every closed form in
:mod:`nodeiso.analytic` and the only evaluation path for non-integer
Nakagami severity. Nothing here reuses the closed-form algebra. After the
substitution u = rho^alpha = e^t the radial integral is
integral (2/alpha) e^{2t/alpha} P_S(budget e^{-t}) dt over the real line,
whose analytic integrand decays exponentially to the left and doubly
exponentially to the right; the trapezoid rule in t then converges
geometrically in the step (Trefethen & Weideman, SIAM Review 56(3), 2014).
The range grows until both tails are negligible, then the step halves,
reusing every point, until two sums agree to ``rel_tol``; a law with a jump,
or one that does not decay, raises :class:`QuadratureError`. Shadowing is
a Gauss-Hermite average whose nodes all share one absolute t grid; the
simulator's link-mass grid uses the same average. Success laws are called
with numpy arrays of mean SNRs, in chunks of bounded size. scipy.special is
imported inside the two routines that call it, the shadowing-only oracle
and the real-severity law, so importing this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .channel import ChannelParams, _positive_snr

__all__ = [
    "QuadratureError",
    "QuadratureSpec",
    "expected_r2_numeric_fading",
    "expected_r2_numeric_fading_shadow",
    "expected_r2_numeric_nofade",
    "shadow_averaged_success",
    "success_prob_real_m",
]

# Grid points times Hermite nodes per call of the success law (128 KiB per
# float64 array, whatever the node count and the grid length).
_CHUNK = 1 << 14

# The first step is at most _FIRST_STEP and halves at most _MAX_HALVINGS
# times: smooth laws agree to 1e-9 within three halvings, while a law with a
# jump converges only like the step. No grid exceeds _MAX_POINTS points.
_FIRST_STEP = 0.5
_MAX_HALVINGS = 6
_MAX_POINTS = 1 << 22

# The range grows by _BLOCK_WIDTH in t at a time, and each tail left out
# holds at most _TAIL_SHARE * rel_tol of the integral.
_BLOCK_WIDTH = 8.0
_TAIL_SHARE = 1e-3

# Mean SNRs stay within e^(+-_LN_LIMIT) and the Jacobian e^{rate t} below
# e^_LN_LIMIT, so every law argument and integrand value is a finite float.
_LN_LIMIT = 700.0


class QuadratureError(RuntimeError):
    """The integral could not be brought to the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and Hermite order for the numeric range integrals."""

    rel_tol: float = 1e-9
    hermite_order: int = 64

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.hermite_order < 8:
            raise ValueError(f"hermite_order must be >= 8, got {self.hermite_order}")


_DEFAULT_SPEC = QuadratureSpec()


@lru_cache(maxsize=8)
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.hermite.hermgauss(order)


# ============================================================================
#  Trapezoid rule in t = ln u
# ============================================================================


def _log_trapezoid(
    success_of_t: Callable[[np.ndarray], np.ndarray],
    rate: float,
    t_start: float,
    t_max: float,
    first_step: float,
    points_per_call: int,
    spec: QuadratureSpec,
) -> float:
    """Integral over the real line of rate * e^{rate t} * S(t) dt.

    ``success_of_t`` maps an array of at most ``points_per_call`` values of t
    to S(t) in [0, 1]. The grid is t = k * h for integers k, anchored at
    zero, never at a feature of S. The left tail beyond a is at most
    e^{rate a}, because S <= 1; the right tail is taken as negligible once a
    block of width ``_BLOCK_WIDTH`` holds a negligible share of the sum and
    no more than the block before it. No point lies beyond ``t_max``.
    """

    def grid_sum(start: int, stop: int, offset: float) -> float:
        # The integrand summed over t = (k + offset) * h, k in [start, stop).
        if stop - start > _MAX_POINTS:
            raise QuadratureError(f"the trapezoid grid would exceed {_MAX_POINTS} points")
        acc = 0.0
        for a in range(start, stop, points_per_call):
            t = (np.arange(a, min(a + points_per_call, stop)) + offset) * h
            acc += float(np.sum(rate * np.exp(rate * t) * success_of_t(t)))
        return acc

    tail = _TAIL_SHARE * spec.rel_tol
    h = first_step
    block = max(1, round(_BLOCK_WIDTH / h))
    lo = hi = math.floor(min(t_start, t_max) / h)   # points k in [lo, hi)
    total, previous = 0.0, math.inf
    while True:
        if (hi + block) * h > t_max:
            raise QuadratureError("the integrand does not decay inside the float range")
        current = h * grid_sum(hi, hi + block, 0.0)
        hi += block
        total += current
        if current <= tail * total and current <= previous:
            break
        previous = current
    # Ends at the latest where e^{rate t} underflows, also for a zero law.
    while math.exp(rate * lo * h) > tail * total:
        if hi - lo > _MAX_POINTS:
            raise QuadratureError(f"the left tail needs more than {_MAX_POINTS} points")
        total += h * grid_sum(lo - block, lo, 0.0)
        lo -= block
    for _ in range(_MAX_HALVINGS):
        refined = 0.5 * total + 0.5 * h * grid_sum(lo, hi - 1, 0.5)
        h, lo, hi = 0.5 * h, 2 * lo, 2 * hi - 1
        if not math.isfinite(refined):
            raise QuadratureError(f"the trapezoid sum is not finite ({refined})")
        change = abs(refined - total)
        if change <= spec.rel_tol * refined:
            return refined
        total = refined
    raise QuadratureError(
        f"trapezoid sums still differ by {change / refined:.1e} at step {h:g}, "
        f"above rel_tol {spec.rel_tol:g}; the success law is not smooth"
    )


def _shadowed_law(
    success_prob: Callable, ln_budget: float, sigma: float, spec: QuadratureSpec = _DEFAULT_SPEC
) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """t -> Gauss-Hermite mean over shadowing gains e^g of P_S(e^{ln_budget + g - t}).

    Also returns the logs ln_budget + g (ln_budget alone when sigma is 0).
    The law sees mean SNRs clipped to e^(+-700), always finite and positive;
    above e^700 every law is 1.
    """
    if sigma > 0:
        nodes, weights = _hermite_rule(spec.hermite_order)
        weights = weights / math.sqrt(math.pi)
    else:
        nodes, weights = np.zeros(1), np.ones(1)
    ln_scales = ln_budget + sigma * math.sqrt(2.0) * nodes

    def law(t: np.ndarray) -> np.ndarray:
        y = np.exp(np.clip(ln_scales - t[:, None], -_LN_LIMIT, _LN_LIMIT))
        return np.broadcast_to(np.asarray(success_prob(y), dtype=float), y.shape) @ weights

    return law, ln_scales


def _radial_integral(
    success_prob: Callable,
    params: ChannelParams,
    sigma: float,
    spec: QuadratureSpec,
) -> float:
    """E[R^2] for the law averaged over shadowing of spread sigma."""
    ln_budget = math.log(params.k * params.ptx / params.w)
    law, ln_scales = _shadowed_law(success_prob, ln_budget, sigma, spec)
    rate = 2.0 / params.alpha
    t_max = min(float(ln_scales.min()) + _LN_LIMIT, _LN_LIMIT / rate)
    points = max(1, _CHUNK // len(ln_scales))
    return _log_trapezoid(law, rate, ln_budget, t_max, _FIRST_STEP, points, spec)


# ============================================================================
#  Range integrals
# ============================================================================


def expected_r2_numeric_fading(
    success_prob: Callable,
    params: ChannelParams,
    spec: QuadratureSpec = _DEFAULT_SPEC,
) -> float:
    """Mean squared range for an arbitrary success-probability law.

    ``success_prob`` maps an array of distance-law mean SNRs to link success
    probabilities; it must be smooth and nondecreasing in the mean SNR, with
    eventual decay as the mean SNR falls.
    """
    return _radial_integral(success_prob, params, 0.0, spec)


def expected_r2_numeric_fading_shadow(
    success_prob: Callable,
    params: ChannelParams,
    spec: QuadratureSpec = _DEFAULT_SPEC,
) -> float:
    """Mean squared range with fading and lognormal shadowing.

    Outer Gauss-Hermite average over the standard normal shadowing
    variable; the mean SNR at each node is scaled by the realized
    shadowing multiplier, on the radial grid shared by all nodes.
    """
    if not params.sigma > 0:
        raise ValueError("shadowed integral requires sigma > 0; use the fading-only form")
    return _radial_integral(success_prob, params, params.sigma, spec)


def expected_r2_numeric_nofade(
    params: ChannelParams,
    spec: QuadratureSpec = _DEFAULT_SPEC,
) -> float:
    """Mean squared range under path loss and shadowing only (no fading).

    The radial variable is u = rho^2 = e^t, the alpha = 2 form of the rule.
    At distance rho the link is up when the lognormal path gain clears the
    threshold, a standard normal tail taken by erfc at each point.
    """
    if not params.sigma > 0:
        raise ValueError("the shadowing-only integral requires sigma > 0")
    from scipy.special import erfc

    ln_margin = math.log(params.k * params.ptx / (params.psi * params.w))
    scale = 1.0 / (params.sigma * math.sqrt(2.0))

    def tail_mass(t: np.ndarray) -> np.ndarray:
        return 0.5 * erfc((0.5 * params.alpha * t - ln_margin) * scale)

    # The tail falls from 1 to 0 over a few widths 2 sigma/alpha around the
    # disk edge; the first step resolves that width.
    t_disk = 2.0 * ln_margin / params.alpha
    width = 2.0 * params.sigma / params.alpha
    first_step = min(_FIRST_STEP, 2.0 ** math.floor(math.log2(width)))
    return _log_trapezoid(tail_mass, 1.0, t_disk, _LN_LIMIT, first_step, _CHUNK, spec)


# ============================================================================
#  Real-severity success probability and shadow averaging
# ============================================================================


def success_prob_real_m(y, m: float, psi: float):
    """Single-branch success probability for real Nakagami severity m >= 0.5.

    Regularized upper incomplete gamma at (m, m*psi/y); the library routine
    evaluates it by series/continued fraction to near machine precision.
    ``y`` is a float or a numpy array; so is the result.
    """
    y = _positive_snr(y)
    if not m >= 0.5:
        raise ValueError(f"Nakagami severity must be >= 0.5, got {m}")
    if not psi > 0:
        raise ValueError(f"threshold must be positive, got {psi}")
    from scipy.special import gammaincc

    p = gammaincc(m, m * psi / y)
    return float(p) if p.ndim == 0 else p


def shadow_averaged_success(success_prob: Callable, mean_snr: float, sigma: float) -> float:
    """Average the success probability over the lognormal shadowing gain.

    One call of the law over the default spec's Hermite nodes.
    """
    if sigma == 0.0:
        return success_prob(mean_snr)
    nodes, weights = _hermite_rule(_DEFAULT_SPEC.hermite_order)
    p = success_prob(mean_snr * np.exp(sigma * math.sqrt(2.0) * nodes))
    return float(weights @ p) / math.sqrt(math.pi)
