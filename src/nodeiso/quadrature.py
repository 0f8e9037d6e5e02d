"""Numerical evaluation of the defining range integrals.

This module is the independent check on every closed form in
:mod:`nodeiso.analytic`, for real Nakagami severity as for integer.
Nothing here reuses the closed-form algebra. After the substitution
u = rho^alpha = e^t the radial integral is
integral (2/alpha) e^{2t/alpha} P_S(budget e^{-t}) dt over the real line,
whose analytic integrand decays exponentially to the left and doubly
exponentially to the right; the trapezoid rule in t then converges
geometrically in the step (Trefethen & Weideman, SIAM Review 56(3), 2014).
The range grows until both tails are negligible (``_log_grid``), then the
step halves, reusing every point, until two sums agree to ``_REL_TOL``; a
law with a jump, or one that does not decay, raises
:class:`QuadratureError`. Shadowing is a Gauss-Hermite average whose nodes
all share one absolute t grid. The simulator's link-mass grid is a
``_log_grid`` range of the same average, in t = ln rho. Success laws are
called with numpy arrays of mean SNRs, in chunks of bounded size.
scipy.special is imported inside the shadowing-only oracle, its one user
here, and numpy inside each routine that builds an array, so importing
this module loads neither.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

from .channel import ChannelParams

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "QuadratureError",
    "expected_r2_numeric_fading",
    "expected_r2_numeric_fading_shadow",
    "expected_r2_numeric_nofade",
    "shadow_averaged_success",
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
# holds at most _TAIL_SHARE * tol of the integral.
_BLOCK_WIDTH = 8.0
_TAIL_SHARE = 1e-3

# Mean SNRs stay above e^-_LN_LIMIT and the Jacobian e^{rate t} below
# e^_LN_LIMIT, so every law argument and integrand value is a finite float.
_LN_LIMIT = 700.0


class QuadratureError(RuntimeError):
    """The integral could not be brought to the requested tolerance."""


# The oracle's sums agree to _REL_TOL, and shadowing is averaged over
# _HERMITE_ORDER Gauss-Hermite nodes. Both are read at call time.
_REL_TOL = 1e-9
_HERMITE_ORDER = 64


@lru_cache(maxsize=8)
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    return np.polynomial.hermite.hermgauss(order)


# ============================================================================
#  Trapezoid rule in t = ln u
# ============================================================================


def _grid_sum(
    f: Callable, rate: float, origin: float, h: float, start: int, stop: int, points: int
) -> float:
    """Sum of rate * e^{rate t} * f(t) over t = origin + k * h, k in [start, stop).

    ``f`` sees ascending chunks of at most ``points`` values of t.
    """
    if stop - start > _MAX_POINTS:
        raise QuadratureError(f"the trapezoid grid would exceed {_MAX_POINTS} points")
    import numpy as np

    acc = 0.0
    for a in range(start, stop, points):
        t = origin + np.arange(a, min(a + points, stop)) * h
        acc += float(np.sum(rate * np.exp(rate * t) * f(t)))
    return acc


def _log_grid(
    f: Callable, rate: float, origin: float, t_start: float, t_max: float, h: float,
    points: int, tol: float,
) -> tuple[int, int, float]:
    """Grid range [lo, hi) that holds integral rate * e^{rate t} * f(t) dt to within tol.

    ``f`` maps t to [0, 1]. The grid is t = origin + k * h, grown in blocks
    of width ``_BLOCK_WIDTH`` from the point at or below ``t_start``: to the
    right until a block holds at most ``_TAIL_SHARE * tol`` of the sum and
    no more than the block before it, then to the left until the bound
    e^{rate t} on the left tail (f <= 1) is below the same share. Returns
    (lo, hi, h * sum). A point beyond ``t_max``, a start whose index could
    leave int64 in the halvings, or over ``_MAX_POINTS`` points raises
    QuadratureError.
    """
    tail = _TAIL_SHARE * tol
    block = max(1, round(_BLOCK_WIDTH / h))
    start = (min(t_start, t_max) - origin) / h
    if not abs(start) < 2.0 ** (62 - _MAX_HALVINGS):    # int64 indices after every halving
        raise QuadratureError(f"the grid would start at t = {min(t_start, t_max):.3g}, "
                              "beyond the integer range of its indices")
    lo = hi = math.floor(start)
    total, previous = 0.0, math.inf
    while True:
        if origin + (hi + block) * h > t_max:
            raise QuadratureError("the integrand does not decay inside the float range")
        current = h * _grid_sum(f, rate, origin, h, hi, hi + block, points)
        hi += block
        total += current
        if current <= tail * total and current <= previous:
            break
        previous = current
    # Ends at the latest where e^{rate t} underflows, also for a zero law.
    while (edge := math.exp(rate * (origin + lo * h))) > tail * total:
        # The tail adds at most edge, so the loop cannot end right of t_end.
        t_end = (math.log(tail) + math.log(total + edge)) / rate
        if hi - lo > _MAX_POINTS or hi - (t_end - origin) / h > _MAX_POINTS + block:
            raise QuadratureError(f"the left tail needs more than {_MAX_POINTS} points")
        total += h * _grid_sum(f, rate, origin, h, lo - block, lo, points)
        lo -= block
    return lo, hi, total


def _log_trapezoid(
    success_of_t: Callable, rate: float, grid: tuple[int, int, float], first_step: float,
    points: int,
) -> float:
    """Integral over the real line of rate * e^{rate t} * S(t) dt.

    ``success_of_t`` maps an array of at most ``points`` values of t to S(t)
    in [0, 1]. ``grid`` is :func:`_log_grid`'s range and sum on the grid
    t = k * first_step, anchored at zero, never at a feature of S; then the
    step halves, reusing every point, until two sums agree to ``_REL_TOL``.
    """
    (lo, hi, total), h, rel_tol = grid, first_step, _REL_TOL
    for _ in range(_MAX_HALVINGS):
        midpoints = _grid_sum(success_of_t, rate, 0.5 * h, h, lo, hi - 1, points)
        refined = 0.5 * total + 0.5 * h * midpoints
        h, lo, hi = 0.5 * h, 2 * lo, 2 * hi - 1
        if not math.isfinite(refined):
            raise QuadratureError(f"the trapezoid sum is not finite ({refined})")
        change = abs(refined - total)
        if change <= rel_tol * refined:
            return refined
        total = refined
    raise QuadratureError(
        f"trapezoid sums still differ by {change / refined:.1e} at step {h:g}, "
        f"above rel_tol {rel_tol:g}; the success law is not smooth"
    )


def _shadowed_law(
    success_prob: Callable, ln_budget: float, sigma: float
) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray, np.ndarray]:
    """t -> Gauss-Hermite mean over shadowing gains e^g of P_S(e^{ln_budget + g - t}).

    Also returns the logs ln_budget + g (ln_budget alone when sigma is 0) and
    their weights. The law sees mean SNRs clipped to [e^-700, the largest
    float]; :func:`_check_window` bounds what the upper clip hides.
    """
    import numpy as np

    if sigma > 0:
        nodes, weights = _hermite_rule(_HERMITE_ORDER)
        weights = weights / math.sqrt(math.pi)
    else:
        nodes, weights = np.zeros(1), np.ones(1)
    with np.errstate(over="ignore"):    # +-inf at sigma near the float maximum; _log_grid refuses it
        ln_scales = ln_budget + sigma * math.sqrt(2.0) * nodes

    def law(t: np.ndarray) -> np.ndarray:
        y = np.exp(np.clip(ln_scales - t[:, None], -_LN_LIMIT, math.log(sys.float_info.max)))
        return np.broadcast_to(np.asarray(success_prob(y), dtype=float), y.shape) @ weights

    return law, ln_scales, weights


def _check_window(success_prob: Callable, params: ChannelParams, ln_scales: np.ndarray,
                  weights: np.ndarray, total: float, tol: float) -> None:
    """Refuse a sum of E[R^2] of which the clip of mean SNRs may hide over tol.

    Node g sees P_S(Y), Y the largest float, where its mean SNR exceeds Y: on
    e^{(2/alpha)(ln y_g - ln Y)} of E[R^2]'s measure, where the law misses at
    most 1 - P_S(Y). The bound reads the law alone, never the closed form; a
    law that is 0 even at Y is 0 at every float SNR and passes.
    """
    import numpy as np

    top = sys.float_info.max
    with np.errstate(over="ignore"):
        span = float(weights @ np.exp(2.0 / params.alpha * (ln_scales - math.log(top))))
    # The law is read at Y only where the span alone could exceed the tolerance.
    p_top = float(np.ravel(success_prob(np.full(1, top)))[0]) if span > tol * total else 1.0
    if (hidden := (1.0 - p_top) * span) > tol * total and p_top > 0:
        raise QuadratureError(
            f"at psi = {params.psi:g} the link law rises beyond the largest mean SNR a float "
            f"holds: up to {hidden:.3g} m^2 of E[R^2] = {total:.3g} m^2 is not seen"
        )


def _radial_integral(success_prob: Callable, params: ChannelParams, sigma: float) -> float:
    """E[R^2] for the law averaged over shadowing of spread sigma."""
    ln_budget = params.ln_budget
    law, ln_scales, weights = _shadowed_law(success_prob, ln_budget, sigma)
    rate = 2.0 / params.alpha
    t_max = min(float(ln_scales.min()) + _LN_LIMIT, _LN_LIMIT / rate)
    points = max(1, _CHUNK // len(ln_scales))
    grid = _log_grid(law, rate, 0.0, ln_budget, t_max, _FIRST_STEP, points, _REL_TOL)
    _check_window(success_prob, params, ln_scales, weights, grid[2], _REL_TOL)
    return _log_trapezoid(law, rate, grid, _FIRST_STEP, points)


# ============================================================================
#  Range integrals
# ============================================================================


def expected_r2_numeric_fading(success_prob: Callable, params: ChannelParams) -> float:
    """Mean squared range for an arbitrary success-probability law.

    ``success_prob`` maps an array of distance-law mean SNRs to link success
    probabilities; it must be smooth and nondecreasing in the mean SNR, with
    eventual decay as the mean SNR falls.
    """
    if params.sigma != 0:
        raise ValueError("fading-only integral requires sigma = 0; use the shadowed form")
    return _radial_integral(success_prob, params, 0.0)


def expected_r2_numeric_fading_shadow(success_prob: Callable, params: ChannelParams) -> float:
    """Mean squared range with fading and lognormal shadowing.

    Outer Gauss-Hermite average over the standard normal shadowing
    variable; the mean SNR at each node is scaled by the realized
    shadowing multiplier, on the radial grid shared by all nodes.
    """
    if not params.sigma > 0:
        raise ValueError("shadowed integral requires sigma > 0; use the fading-only form")
    return _radial_integral(success_prob, params, params.sigma)


def expected_r2_numeric_nofade(params: ChannelParams) -> float:
    """Mean squared range under path loss and shadowing only (no fading).

    The radial variable is u = rho^2 = e^t, the alpha = 2 form of the rule.
    At distance rho the link is up when the lognormal path gain clears the
    threshold, a standard normal tail taken by erfc at each point.
    """
    if not params.sigma > 0:
        raise ValueError("the shadowing-only integral requires sigma > 0")
    from scipy.special import erfc

    ln_margin, scale = params.ln_margin, 1.0 / (params.sigma * math.sqrt(2.0))

    def tail_mass(t: np.ndarray) -> np.ndarray:
        return 0.5 * erfc((0.5 * params.alpha * t - ln_margin) * scale)

    # The tail falls from 1 to 0 over a few widths 2 sigma/alpha around the
    # disk edge; the first step resolves that width.
    t_disk = 2.0 * ln_margin / params.alpha
    width = 2.0 * params.sigma / params.alpha
    first_step = min(_FIRST_STEP, 2.0 ** math.floor(math.log2(width)))
    grid = _log_grid(tail_mass, 1.0, 0.0, t_disk, _LN_LIMIT, first_step, _CHUNK, _REL_TOL)
    return _log_trapezoid(tail_mass, 1.0, grid, first_step, _CHUNK)


# ============================================================================
#  Shadow averaging
# ============================================================================


def shadow_averaged_success(success_prob: Callable, mean_snr: float, sigma: float) -> float:
    """Average the success probability over the lognormal shadowing gain.

    One call of the law over the oracle's Hermite nodes, on the mean SNRs
    that the oracle clips to [e^-700, the largest float].
    """
    if sigma == 0.0 or not mean_snr > 0:  # the law itself rejects a mean SNR <= 0
        return success_prob(mean_snr)
    import numpy as np

    law, _, _ = _shadowed_law(success_prob, math.log(mean_snr), sigma)
    return float(law(np.zeros(1))[0])
