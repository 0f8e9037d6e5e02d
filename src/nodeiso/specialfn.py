"""Scalar special functions shared by the closed forms and samplers.

Everything here is pure and reentrant: plain floats in, plain floats out.
"""

from __future__ import annotations

import math

__all__ = [
    "log_factorial",
    "truncated_exp_series",
]

# Above this, e^{-x} and x^l individually over/underflow before they can
# cancel, so the series switches to per-term log-space evaluation.
LOG_SPACE_CUTOVER = 700.0

# Compensated summation only pays off once the series is long enough to
# accumulate cancellation; below this a plain running sum is fine.
_FSUM_MIN_TERMS = 30


def log_factorial(n: int) -> float:
    """ln(n!); exact integer factorial up to 20!, lgamma beyond."""
    if n < 0:
        raise ValueError(f"factorial argument must be >= 0, got {n}")
    if n <= 20:
        return math.log(math.factorial(n))
    return math.lgamma(n + 1.0)


def truncated_exp_series(x: float, num_terms: int) -> float:
    """e^{-x} * sum_{l=0}^{num_terms-1} x^l / l!, clamped to [0, 1].

    This is the regularized upper incomplete gamma Q(num_terms, x), the tail
    probability of a unit-scale Erlang variate, and the workhorse behind
    every integer-shape link success probability.
    """
    if x < 0:
        raise ValueError(f"series argument must be >= 0, got {x}")
    if num_terms < 1:
        raise ValueError(f"series needs at least one term, got {num_terms}")
    if x == 0.0:
        return 1.0
    if x > LOG_SPACE_CUTOVER:
        lx = math.log(x)
        total = 0.0
        for l in range(num_terms):
            total += math.exp(-x + l * lx - log_factorial(l))
        return min(total, 1.0)
    if num_terms <= _FSUM_MIN_TERMS:
        term = 1.0
        total = 1.0
        for l in range(1, num_terms):
            term *= x / l
            total += term
        return min(math.exp(-x) * total, 1.0)
    terms = [1.0]
    term = 1.0
    for l in range(1, num_terms):
        term *= x / l
        terms.append(term)
    return min(math.exp(-x) * math.fsum(terms), 1.0)

