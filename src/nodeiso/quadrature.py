"""Numerical evaluation of the defining range integrals.

This module is the independent check on every closed form in
:mod:`nodeiso.analytic` and the only evaluation path for non-integer
Nakagami severity. Nothing here reuses the closed-form algebra. After the
substitution u = rho^alpha = e^t the radial integral is
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
scipy.special is imported inside the two routines that call it, the
shadowing-only oracle and the real-severity law, and numpy inside each
routine that builds an array, so importing this module loads neither.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

from .channel import ChannelParams, _positive_snr

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "QuadratureError",
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
# holds at most _TAIL_SHARE * tol of the integral.
_BLOCK_WIDTH = 8.0
_TAIL_SHARE = 1e-3

# Mean SNRs stay within e^(+-_LN_LIMIT) and the Jacobian e^{rate t} below
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
    (lo, hi, h * sum). A point beyond ``t_max``, or a start whose index
    could leave int64 in the halvings, raises QuadratureError.
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
    while math.exp(rate * (origin + lo * h)) > tail * total:
        if hi - lo > _MAX_POINTS:
            raise QuadratureError(f"the left tail needs more than {_MAX_POINTS} points")
        total += h * _grid_sum(f, rate, origin, h, lo - block, lo, points)
        lo -= block
    return lo, hi, total


def _log_trapezoid(
    success_of_t: Callable, rate: float, t_start: float, t_max: float, first_step: float,
    points: int,
) -> float:
    """Integral over the real line of rate * e^{rate t} * S(t) dt.

    ``success_of_t`` maps an array of at most ``points`` values of t to S(t)
    in [0, 1]. The range is :func:`_log_grid`'s on the grid t = k * h,
    anchored at zero, never at a feature of S; then h halves, reusing every
    point, until two sums agree to ``_REL_TOL``.
    """
    rel_tol = _REL_TOL
    h = first_step
    lo, hi, total = _log_grid(success_of_t, rate, 0.0, t_start, t_max, h, points, rel_tol)
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
) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """t -> Gauss-Hermite mean over shadowing gains e^g of P_S(e^{ln_budget + g - t}).

    Also returns the logs ln_budget + g (ln_budget alone when sigma is 0).
    The law sees mean SNRs clipped to e^(+-700), always finite and positive;
    above e^700 every law is 1.
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
        y = np.exp(np.clip(ln_scales - t[:, None], -_LN_LIMIT, _LN_LIMIT))
        return np.broadcast_to(np.asarray(success_prob(y), dtype=float), y.shape) @ weights

    return law, ln_scales


def _radial_integral(success_prob: Callable, params: ChannelParams, sigma: float) -> float:
    """E[R^2] for the law averaged over shadowing of spread sigma."""
    ln_budget = params.ln_budget
    law, ln_scales = _shadowed_law(success_prob, ln_budget, sigma)
    rate = 2.0 / params.alpha
    t_max = min(float(ln_scales.min()) + _LN_LIMIT, _LN_LIMIT / rate)
    points = max(1, _CHUNK // len(ln_scales))
    return _log_trapezoid(law, rate, ln_budget, t_max, _FIRST_STEP, points)


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

    ln_margin = params.ln_budget - math.log(params.psi)
    scale = 1.0 / (params.sigma * math.sqrt(2.0))

    def tail_mass(t: np.ndarray) -> np.ndarray:
        return 0.5 * erfc((0.5 * params.alpha * t - ln_margin) * scale)

    # The tail falls from 1 to 0 over a few widths 2 sigma/alpha around the
    # disk edge; the first step resolves that width.
    t_disk = 2.0 * ln_margin / params.alpha
    width = 2.0 * params.sigma / params.alpha
    first_step = min(_FIRST_STEP, 2.0 ** math.floor(math.log2(width)))
    return _log_trapezoid(tail_mass, 1.0, t_disk, _LN_LIMIT, first_step, _CHUNK)


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
    import numpy as np
    from scipy.special import gammaincc

    with np.errstate(over="ignore"):    # x = inf where y is tiny, and Q(m, inf) = 0
        x = m * psi / y
    p = gammaincc(m, x)
    return float(p) if p.ndim == 0 else p


def shadow_averaged_success(success_prob: Callable, mean_snr: float, sigma: float) -> float:
    """Average the success probability over the lognormal shadowing gain.

    One call of the law over the oracle's Hermite nodes, on the mean SNRs
    that the oracle clips to e^(+-700).
    """
    if sigma == 0.0 or not mean_snr > 0:  # the law itself rejects a mean SNR <= 0
        return success_prob(mean_snr)
    import numpy as np

    law, _ = _shadowed_law(success_prob, math.log(mean_snr), sigma)
    return float(law(np.zeros(1))[0])
