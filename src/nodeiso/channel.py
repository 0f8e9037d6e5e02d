"""Link-level channel model: parameters, success probabilities, diversity.

All power-like quantities are stored linear (milliwatts); dB inputs are
converted at the CLI boundary. The shadowing spread ``sigma`` is the
standard deviation of the *natural* logarithm of path loss; use
:func:`sigma_from_db` for a dB-spread input.

Provides:
  - ChannelParams / DiversityScheme / BetaTable value types
  - maximal-ratio and selection-combining success probabilities for
    integer Nakagami severity; single-branch reception is MRC with M = 1
  - the multinomial coefficient table behind the selection-combining form

The value types, the coefficient table and the scalar SC expansion are
pure Python, and so are the closed forms built on them. numpy is imported
inside the array laws, so importing this module loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable

from .specialfn import LOG_SPACE_CUTOVER, truncated_exp_series

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
# refused. At m = 4096 the slowest route, the shadowed quadrature, took 31 s
# on a 2-vCPU Xeon, and 72 s at 10^4; every other route took under 4 s.
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
    """Coefficients of [sum_{k<m} x^k/k!]^n expanded in powers of x.

    ``rows[n][k]`` holds the coefficient of x^k in the n-th power,
    n = 0..diversity_order, k = 0..n*(m-1). Coefficients outside that
    range are zero.
    """

    m: int
    diversity_order: int
    rows: tuple[tuple[float, ...], ...]


def build_beta_table(m: int, diversity_order: int) -> BetaTable:
    """Build the coefficient table by row convolution.

    Row n is row n-1 convolved with (1/0!, 1/1!, ..., 1/(m-1)!); the base
    cases beta_00 = beta_0n = 1 and beta_k1 = 1/k! fall out of the
    recursion from the seed row (1,).
    """
    if int(m) != m or m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if int(diversity_order) != diversity_order or diversity_order < 1:
        raise ValueError(f"diversity order must be a positive integer, got {diversity_order}")
    m = int(m)
    diversity_order = int(diversity_order)
    rows: list[tuple[float, ...]] = [(1.0,)]
    try:
        factorials = [float(factorial(j)) for j in range(m)]
        for n in range(1, diversity_order + 1):
            prev = rows[n - 1]
            prev_top = (n - 1) * (m - 1)
            row = []
            for k in range(n * (m - 1) + 1):
                acc = 0.0
                for i in range(max(0, k - m + 1), min(k, prev_top) + 1):
                    acc += prev[i] / factorials[k - i]
                row.append(acc)
            rows.append(tuple(row))
    except OverflowError as exc:
        raise OverflowError(
            f"coefficient table for (m={m}, M={diversity_order}) needs {m - 1}!, "
            "which exceeds the float range"
        ) from exc
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
    x = params.m * params.psi / _positive_snr(y)
    return truncated_exp_series(x, params.m * int(diversity_order))


def success_prob_sc(
    y: float,
    diversity_order: int,
    params: ChannelParams,
    beta: BetaTable,
) -> float:
    """Success probability after selection combining of M branches.

    Complement of all M branches falling below threshold, expanded
    binomially with the coefficient table:
        -sum_{n=1}^{M} (-1)^n C(M,n) e^{-n x} sum_k beta_kn x^k,  x = m psi / y,
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
    top = M * (params.m - 1)
    # x^k itself can overflow for very long polynomials even while each
    # full term is tiny; route those through the log-space branch too.
    if x <= LOG_SPACE_CUTOVER and top * max(math.log(x), 0.0) < 680.0:
        powers = [1.0]
        for _ in range(top):
            powers.append(powers[-1] * x)
        terms = []
        for n in range(1, M + 1):
            poly = 0.0
            for coeff, xk in zip(beta.rows[n], powers):
                poly += coeff * xk
            terms.append(-((-1.0) ** n) * comb(M, n) * math.exp(-n * x) * poly)
    else:
        # Per-term log-space evaluation keeps sub-normal results meaningful;
        # zero coefficients carry no term there.
        lx = math.log(x)
        terms = []
        for n in range(1, M + 1):
            log_c = math.log(comb(M, n))
            for k, coeff in enumerate(beta.rows[n]):
                if coeff != 0.0:
                    mag = log_c + math.log(coeff) + k * lx - n * x
                    terms.append(-((-1.0) ** n) * math.exp(mag))
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
