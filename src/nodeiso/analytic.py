"""Closed-form mean squared communication range and isolation probability.

The network is a planar Poisson process of density ``node_density``; a node
is isolated when no neighbour clears the SNR threshold. For every receiver
structure the isolation probability is

    P_I = exp(-node_density * pi * E[R^2])

with E[R^2] the mean squared communication range of the corresponding
channel/diversity combination. Single-branch reception is MRC with one
branch, so there are two fading forms, both for real m: MRC (one Gamma
ratio) and SC (a series of positive terms). Each is one exp of

    ln E[R^2] = (2/alpha) (ln_margin - ln m) + ln E[G^(2/alpha)] + 2 sigma^2/alpha^2,

ln_margin = ln(k ptx / (w psi)) from :class:`ChannelParams`; the shadowing
summand is exactly 0 at sigma = 0.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate
from operator import mul, truediv

from .channel import ChannelParams, DiversityScheme, _check_series_length, _sc_occupancy

__all__ = [
    "check_node_density",
    "expected_r2",
    "expected_r2_mrc",
    "expected_r2_sc",
    "expected_r2_shadow_only",
    "isolation_from_er2",
    "isolation_probability",
    "min_density_for_isolation",
]

# The SC series costs about M^2 (sqrt(m) + 2/alpha) band sums. At M = 32 its
# slowest cells (alpha just above where E[G^(2/alpha)] overflows) take 1.5 s
# on a 2-vCPU Xeon; at M = 64, 5.8 s, past channel._MAX_SERIES_TERMS's 4 s.
_SC_MAX_BRANCHES = 32


def _two_over_alpha(params: ChannelParams) -> float:
    """x0 = 2/alpha, the exponent of every closed form; an alpha so small
    that x0 overflows is named as given."""
    x0 = 2.0 / params.alpha
    if x0 == math.inf:
        raise OverflowError(
            f"E[R^2] is outside the float range at alpha = {params.alpha:g}: 2/alpha overflows"
        )
    return x0


def _ln_gain(params: ChannelParams, shape: float, x0: float) -> float:
    """ln E[G^x0] = ln Gamma(shape + x0) - ln Gamma(shape), G ~ Gamma(shape, 1);
    where ln Gamma itself overflows (x0 past about 2.5e305) alpha is named."""
    try:
        return math.lgamma(shape + x0) - math.lgamma(shape)
    except OverflowError:
        raise OverflowError(f"ln E[G^(2/alpha)] is outside the float range at alpha = "
                            f"{params.alpha:g}") from None


def _er2(params: ChannelParams, x0: float, ln_gain: float, m: float) -> float:
    """exp(x0 (ln_margin - ln m) + ln_gain + 2 sigma^2/alpha^2), x0 = 2/alpha and ln_gain
    = ln E[G^x0], G the combiner gain over y/m (m = 1, ln_gain = 0 without fading).
    Beyond the float range the error names alpha, sigma and the three summands."""
    spread = params.sigma * x0
    budget, shadow = x0 * (params.ln_margin - math.log(m)), 0.5 * spread * spread
    ln_er2 = budget + ln_gain + shadow
    if ln_er2 <= math.log(sys.float_info.max):    # False for nan
        return math.exp(ln_er2)
    raise OverflowError(f"E[R^2] is outside the float range at alpha = {params.alpha:g}, sigma = "
                        f"{params.sigma:g}: ln E[R^2] = {budget:.6g} (budget) + {ln_gain:.6g} "
                        f"(gain) + {shadow:.6g} (shadowing)")


# ============================================================================
#  E[R^2] closed forms
# ============================================================================


def expected_r2_shadow_only(params: ChannelParams) -> float:
    """Mean squared range with path loss and shadowing only (no fading).

    Equals exp((2/alpha) ln_margin + 2 sigma^2/alpha^2); the
    no-fading baseline that every fading form approaches as m grows.
    """
    return _er2(params, _two_over_alpha(params), 0.0, 1.0)


def expected_r2_mrc(params: ChannelParams, diversity_order: int) -> float:
    """Mean squared range with maximal-ratio combining over M branches.

    The combiner output is Gamma(n, y/m) with n = m*M, so E[R^2] =
    theta^(-2/alpha) Gamma(n + 2/alpha)/Gamma(n) exp(2 sigma^2/alpha^2) for
    any real m; the ratio is an lgamma difference, O(1) in n. M = 1 is
    single-branch reception.
    """
    M = int(diversity_order)
    if M != diversity_order or M < 1:
        raise ValueError(f"diversity order must be a positive integer, got {diversity_order}")
    x0 = _two_over_alpha(params)
    n = params.m * M
    return _er2(params, x0, _ln_gain(params, n, x0), params.m)


def expected_r2_sc(params: ChannelParams, diversity_order: int) -> float:
    """Mean squared range with selection combining over M branches.

    theta^(-s) E[max_i G_i^s] exp(2 sigma^2/alpha^2), s = 2/alpha, G_i i.i.d.
    Gamma(m, 1) for a real m. Expanding Gupta's M int x^s P(m,x)^(M-1) f_m(x) dx
    (*Technometrics* 2(2), 1960) over N = (M-1)m + l balls in M-1 bins gives
    sum_l v_l U_l, U_l = M (M-1)^N Gamma(mM+s+l) / (Gamma(m) N! M^(mM+s+l)),
    v_l in [0, 1] (:func:`channel._sc_occupancy`): no term is negative. Past
    U's peak, U_{l+1}/U_l is monotone and tends to (M-1)/M, so the tail is at
    most U_{l+1}/(1 - max(U_{l+2}/U_{l+1}, (M-1)/M)); the sum stops once that
    is below half an ulp of E[G^s] <= E[max_i G_i^s]. M = 1 is one term.
    """
    M = int(diversity_order)
    if M != diversity_order or not 1 <= M <= _SC_MAX_BRANCHES:
        raise ValueError(f"selection combining needs an integer 1 <= M <= {_SC_MAX_BRANCHES}, "
                         f"got {diversity_order}; the series takes too long beyond it")
    m, s = params.m, _two_over_alpha(params)
    ln_single = _ln_gain(params, m, s)
    # E[G^s] <= E[max_i G_i^s]: where E[R^2] at E[G^s] is refused, the
    # series, whose length grows with s, is not built.
    _er2(params, s, ln_single, m)
    def ratio(l):  # U_{l+1} / U_l
        return (M - 1) / M * (1.0 + (m + s - 1.0) / ((M - 1) * m + l + 1.0))
    top = max(0, math.floor((M - 1) * s - M) + 1)  # U rises while ratio(l) >= 1
    n = (M - 1) * m + top
    ln_top = (math.log(M) + n * math.log(M - 1 or 1) + math.lgamma(m * M + s + top)
              - math.lgamma(m) - math.lgamma(n + 1.0) - (m * M + s + top) * math.log(M))
    u = list(accumulate(map(ratio, range(top - 1, -1, -1)), truediv, initial=1.0))[::-1]
    tol = 2.0**-54 * math.exp(ln_single - ln_top)
    while (nxt := u[-1] * ratio(len(u) - 1)) >= tol * (1.0 - max(ratio(len(u)), (M - 1) / M)):
        u.append(nxt)
    ln_moment = ln_top + math.log(math.fsum(map(mul, u, _sc_occupancy(m, M - 1, len(u)))))
    return _er2(params, s, ln_moment, m)


def expected_r2(params: ChannelParams, scheme: DiversityScheme) -> float:
    """Single dispatch point for E[R^2] over receiver structures.

    Single-branch reception is MRC with its one branch.
    """
    _check_series_length(params, scheme)
    if scheme.kind == "sc":
        return expected_r2_sc(params, scheme.branches)
    return expected_r2_mrc(params, scheme.branches)


# ============================================================================
#  Isolation probability and inversions
# ============================================================================


def check_node_density(node_density: float) -> None:
    """The one density rule: finite and >= 0 (nodes per square meter)."""
    if not 0.0 <= node_density < math.inf:
        raise ValueError(f"node density must be finite and >= 0, got {node_density}")


def isolation_from_er2(node_density: float, er2: float) -> float:
    """P_I = exp(-lambda * pi * E[R^2]), the result for every receiver structure."""
    check_node_density(node_density)
    return math.exp(-node_density * math.pi * er2)


def isolation_probability(
    params: ChannelParams, scheme: DiversityScheme, node_density: float
) -> float:
    """P_I at this density (nodes per square meter) with the closed-form E[R^2]."""
    return isolation_from_er2(node_density, expected_r2(params, scheme))


def min_density_for_isolation(
    params: ChannelParams,
    scheme: DiversityScheme,
    target_p_i: float,
) -> float:
    """Node density at which the isolation probability equals the target."""
    if not 0.0 < target_p_i < 1.0:
        raise ValueError(f"target isolation probability must lie in (0, 1), got {target_p_i}")
    return _density_from_er2(target_p_i, expected_r2(params, scheme))


def _density_from_er2(target_p_i: float, er2: float) -> float:
    """The density whose P_I is target_p_i, a value in (0, 1), at this E[R^2]."""
    lam = -math.log(target_p_i) / (math.pi * er2) if er2 > 0 else math.inf
    if lam == math.inf:
        raise OverflowError(f"the minimum node density overflows: E[R^2] = {er2:.3e} m^2")
    return lam

