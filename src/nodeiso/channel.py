"""Link-level channel model: parameters, success probabilities, diversity.

All power-like quantities are stored linear (milliwatts); dB inputs are
converted at the CLI boundary. The shadowing spread ``sigma`` is the
standard deviation of the *natural* logarithm of path loss; use
:func:`sigma_from_db` for a dB-spread input.

Provides:
  - ChannelParams / DiversityScheme / BetaTable value types
  - maximal-ratio and selection-combining success probabilities for
    integer Nakagami severity; single-branch reception is MRC with M = 1
  - the occupancy-probability table behind the selection-combining form

The value types, the occupancy table and the scalar SC expansion are
pure Python, and so are the closed forms built on them. numpy is imported
inside the array laws, so importing this module loads no numpy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from math import comb
from operator import mul
from typing import Callable

from .specialfn import truncated_exp_series

__all__ = [
    "BetaTable",
    "ChannelParams",
    "DiversityScheme",
    "build_beta_table",
    "db_to_linear",
    "make_success_fn",
    "sigma_from_db",
    "success_prob_mrc",
    "success_prob_sc",
]


def db_to_linear(value_db: float) -> float:
    """10^(dB/10)."""
    return 10.0 ** (value_db / 10.0)


def sigma_from_db(sigma_db: float) -> float:
    """Convert a dB shadowing spread to natural-log units."""
    return sigma_db * math.log(10.0) / 10.0


# Every route sums an Erlang series one term at a time in Python (m*M terms
# for MRC, m for the SC law, M*(m-1) for the SC table); longer ones are
# refused. At m = 4096 the slowest route, the shadowed quadrature, takes
# 4.4 s on a 2-vCPU Xeon; every other route takes under 4 s.
_MAX_SERIES_TERMS = 1 << 12


def _check_series_length(params: ChannelParams, scheme: DiversityScheme) -> None:
    terms = params.m * scheme.branches
    if terms > _MAX_SERIES_TERMS:
        if terms >= 2**53:  # a swept float can make it hundreds of digits long
            from decimal import Decimal

            terms = f"{Decimal(terms):.3e}"
        raise ValueError(
            f"m*M = {terms} series terms exceed the supported maximum {_MAX_SERIES_TERMS}"
        )


# ============================================================================
#  Value types
# ============================================================================


@dataclass(frozen=True)
class ChannelParams:
    """Static link-budget and fading parameters, all linear units."""

    ptx: float            # transmit power [mW]
    w: float              # receiver noise power [mW]
    k: float              # path-loss constant [linear]
    psi: float            # SNR threshold [linear]
    alpha: float          # path-loss exponent
    sigma: float = 0.0    # shadowing spread [natural-log units]
    m: int = 1            # Nakagami severity, positive integer

    def __post_init__(self) -> None:
        for name in ("ptx", "w", "k", "psi", "alpha"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if int(self.m) != self.m or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m}")
        object.__setattr__(self, "m", int(self.m))

    @property
    def theta(self) -> float:
        """m * psi * w / (k * ptx), the recurring threshold-to-budget ratio."""
        return self.m * self.psi * self.w / (self.k * self.ptx)

    @property
    def ln_budget(self) -> float:
        """ln(k * ptx / w); a sum of logs where the float product or ratio is not normal."""
        product, tiny = self.k * self.ptx, sys.float_info.min
        if tiny <= product < math.inf and tiny <= product / self.w < math.inf:
            return math.log(product / self.w)
        return math.log(self.k) + math.log(self.ptx) - math.log(self.w)

    def mean_snr(self, rho: float) -> float:
        """Distance-law average SNR k * ptx * rho^-alpha / w (no shadowing)."""
        return self.k * self.ptx * rho ** -self.alpha / self.w


@dataclass(frozen=True)
class DiversityScheme:
    """Receiver structure: single branch, MRC or SC over M branches.

    MRC and SC with one branch are the single-branch channel and are stored
    as ``kind="none"``. Every dispatch has two arms: SC, and MRC over
    ``branches``, which for ``kind="none"`` is the one branch.
    """

    kind: str            # 'none' | 'mrc' | 'sc'
    branches: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("none", "mrc", "sc"):
            raise ValueError(f"unknown diversity kind {self.kind!r}")
        if int(self.branches) != self.branches or self.branches < 1:
            raise ValueError(f"branches must be a positive integer, got {self.branches}")
        object.__setattr__(self, "branches", int(self.branches))
        if self.kind == "none" and self.branches != 1:
            raise ValueError("single-branch reception has exactly one branch")
        if self.branches == 1:
            object.__setattr__(self, "kind", "none")

    @classmethod
    def no_diversity(cls) -> "DiversityScheme":
        return cls("none", 1)

    @classmethod
    def mrc(cls, branches: int) -> "DiversityScheme":
        return cls("mrc", branches)

    @classmethod
    def sc(cls, branches: int) -> "DiversityScheme":
        return cls("sc", branches)


@dataclass(frozen=True)
class BetaTable:
    """Occupancy probabilities behind the selection-combining expansion.

    ``rows[h][l]`` is the probability that l balls dropped uniformly into h
    bins leave every bin with fewer than m balls, h = 0..diversity_order,
    l = 0..h*(m-1); beyond that range it is zero. It equals
    beta_{h,l} * l!/h^l, with beta_{h,l} the coefficient of x^l in
    [sum_{k<m} x^k/k!]^h, and lies in [0, 1] for every m.
    """

    m: int
    diversity_order: int
    rows: tuple[tuple[float, ...], ...]


def build_beta_table(m: int, diversity_order: int) -> BetaTable:
    """Build the occupancy table row by row (Johnson & Kotz, *Urn Models and
    Their Application*, 1977).

    Of l balls in h bins the last holds k with probability Bin(k; l, 1/h), so
    c_{h,l} = sum_{k<m} Bin(k; l, 1/h) c_{h-1,l-k} from the seed row (1,).
    The weights for k < m grow with l by Pascal's rule, a sum of two
    nonnegative terms, so none near the mode underflows however long the row.
    """
    if int(m) != m or m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if int(diversity_order) != diversity_order or diversity_order < 1:
        raise ValueError(f"diversity order must be a positive integer, got {diversity_order}")
    m = int(m)
    diversity_order = int(diversity_order)
    rows: list[tuple[float, ...]] = [(1.0,)]
    for h in range(1, diversity_order + 1):
        prev = rows[-1]
        p, q = 1.0 / h, 1.0 - 1.0 / h
        weights = [1.0] + [0.0] * (m - 1)    # Bin(k; 0, p) for k < m
        row = []
        for l in range(h * (m - 1) + 1):
            if l:
                weights = [q * weights[0]] + [p * a + q * b for a, b in zip(weights, weights[1:])]
            lo, hi = max(0, l - (h - 1) * (m - 1)), min(m - 1, l)
            row.append(sum(map(mul, weights[lo:hi + 1], reversed(prev[l - hi:l - lo + 1]))))
        rows.append(tuple(row))
    return BetaTable(m=m, diversity_order=diversity_order, rows=tuple(rows))


# ============================================================================
#  Success probabilities
# ============================================================================


def _positive_snr(y):
    """Mean SNR y (float or array) as a numpy value, after checking y > 0."""
    import numpy as np

    y = np.asarray(y, dtype=float)[()]
    if not (y > 0).all():
        raise ValueError(f"average SNR must be positive, got {np.extract(~(y > 0), y)[0]}")
    return y


def success_prob_mrc(y, diversity_order: int, params: ChannelParams):
    """Success probability after maximal-ratio combining of M branches.

    Branches are independent with identical mean SNR y; the combiner output
    is Gamma(m*M, y/m), so this is Q(m*M, m*psi/y). M = 1 is P(SNR >= psi)
    on one Nakagami-m branch. ``y`` is a float or a numpy array; so is the
    result.
    """
    if int(diversity_order) != diversity_order or diversity_order < 1:
        raise ValueError(f"diversity order must be a positive integer, got {diversity_order}")
    import numpy as np

    y = _positive_snr(y)
    with np.errstate(over="ignore"):    # x = inf where y is tiny, and Q(n, inf) = 0
        x = params.m * params.psi / y
    return truncated_exp_series(x, params.m * int(diversity_order))


def _poisson_average(row: tuple[float, ...], lam: float) -> float:
    """sum_k row[k] * e^{-lam} lam^k/k!, each Poisson weight taken in log space."""
    if lam == 0.0 or lam == math.inf:    # weights 1, 0, 0, ... at 0 and all 0 at inf
        return row[0] if lam == 0.0 else 0.0
    ln_lam = math.log(lam)
    return math.fsum(c * math.exp(k * ln_lam - lam - math.lgamma(k + 1.0))
                     for k, c in enumerate(row))


def success_prob_sc(
    y: float,
    diversity_order: int,
    params: ChannelParams,
    beta: BetaTable,
) -> float:
    """Success probability after selection combining of M branches.

    Complement of all M branches falling below threshold, expanded
    binomially with the occupancy table:
        -sum_{n=1}^{M} (-1)^n C(M,n) sum_k c_{n,k} Poisson(k; n x),  x = m psi / y,
    the expansion the closed form integrates. Identically equal to
    1 - (1 - Q(m, x))^M, the form :func:`make_success_fn` evaluates.
    """
    if not y > 0:
        raise ValueError(f"average SNR must be positive, got {y}")
    M = int(diversity_order)
    if M != diversity_order or M < 1:
        raise ValueError(f"diversity order must be a positive integer, got {diversity_order}")
    if beta.m != params.m or beta.diversity_order < M:
        raise ValueError(
            f"coefficient table built for (m={beta.m}, M={beta.diversity_order}) "
            f"does not cover (m={params.m}, M={M})"
        )
    x = params.m * params.psi / y
    terms = [-((-1.0) ** n) * comb(M, n) * _poisson_average(beta.rows[n], n * x)
             for n in range(1, M + 1)]
    return min(max(math.fsum(terms), 0.0), 1.0)


def make_success_fn(params: ChannelParams, scheme: DiversityScheme) -> Callable:
    """Bind the per-scheme success probability to a function of mean SNR.

    The law maps a float or a numpy array of mean SNRs to the same shape.
    SC is 1 - (1 - Q(m, x))^M as -expm1(M log1p(-Q)): full relative
    precision in the tail, and no coefficient table. Every other structure
    is MRC over ``scheme.branches``, one branch for single-branch reception.
    """
    _check_series_length(params, scheme)
    M = scheme.branches
    if scheme.kind == "sc":
        import numpy as np

        def success_sc(y):
            q = np.asarray(success_prob_mrc(y, 1, params))
            with np.errstate(divide="ignore"):
                p = -np.expm1(M * np.log1p(-q))
            return float(p) if p.ndim == 0 else p

        return success_sc
    return lambda y: success_prob_mrc(y, M, params)
