"""Special functions shared by the success laws and the closed forms.

Everything here is pure and reentrant. numpy is imported inside the
series, its one user, so importing this module loads no numpy.
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


def log_factorial(n: int) -> float:
    """ln(n!); exact integer factorial up to 20!, lgamma beyond."""
    if n < 0:
        raise ValueError(f"factorial argument must be >= 0, got {n}")
    if n <= 20:
        return math.log(math.factorial(n))
    return math.lgamma(n + 1.0)


def truncated_exp_series(x, num_terms: int):
    """e^{-x} * sum_{l=0}^{num_terms-1} x^l / l!, clamped to [0, 1].

    This is the regularized upper incomplete gamma Q(num_terms, x), the tail
    probability of a unit-scale Erlang variate, and the workhorse behind
    every integer-shape link success probability. ``x`` is a float or a
    numpy array; the result has its shape, and a scalar gives a float. The
    series is built one term at a time over the whole array, so scratch
    memory does not grow with the number of terms.
    """
    if num_terms < 1:
        raise ValueError(f"series needs at least one term, got {num_terms}")
    import numpy as np

    x = np.asarray(x, dtype=float)[()]    # a numpy scalar for a scalar
    if not (x >= 0).all():
        raise ValueError(f"series argument must be >= 0, got {np.extract(~(x >= 0), x)[0]}")
    far = x > LOG_SPACE_CUTOVER
    near = np.minimum(x, LOG_SPACE_CUTOVER)
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
                acc = acc + np.exp(-x + l * lx - log_factorial(l))
        # Q(n, inf) = 0; the log-space terms read inf - inf there.
        out = np.where(far, np.where(np.isinf(x), 0.0, acc), out)
    out = np.minimum(out, 1.0)
    return float(out) if np.ndim(out) == 0 else out
