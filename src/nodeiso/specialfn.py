"""Special functions shared by the success laws and the closed forms.

Everything here is pure and reentrant. numpy is imported inside the
series, its one user, so importing this module loads no numpy.
"""

from __future__ import annotations

import functools
import math

__all__ = [
    "log_factorial",
    "truncated_exp_series",
]

# Above this, e^{-x} and x^l individually over/underflow before they can
# cancel, so the series switches to per-term log-space evaluation.
LOG_SPACE_CUTOVER = 700.0

# e^v rounds to 0.0 for every v below about -745.13; a far entry whose largest
# term exponent lies below this bound sums to exactly 0.0.
_UNDERFLOW_EXPONENT = -750.0


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
    numpy array; the result has its shape, and a scalar gives a float.

    Entries up to ``LOG_SPACE_CUTOVER`` sum the terms x^l/l! by recurrence,
    one term at a time over the array, so scratch memory does not grow with
    the number of terms. Every 16 terms the sum stops once l exceeds the
    largest such x and every term is below 2^-54 of its total: under half an
    ulp, and later terms only shrink, so no later term changes a bit.

    Entries past the cutover (the far entries) sum e^{-x + l ln x - ln l!}
    term by term, on those entries alone. A far entry with
    -x + (num_terms-1) ln x below -750, which is every x above
    :func:`_underflow_limit`, bounds every term's exponent there, so each
    term, and the result, is exactly 0.0; it is not summed. That covers
    x = inf, Q(n, inf) = 0.
    """
    if num_terms < 1:
        raise ValueError(f"series needs at least one term, got {num_terms}")
    import numpy as np

    x = np.asarray(x, dtype=float)
    if not (x >= 0).all():
        raise ValueError(f"series argument must be >= 0, got {np.extract(~(x >= 0), x)[0]}")
    flat = x.ravel()
    far = flat > LOG_SPACE_CUTOVER
    near = np.where(far, 0.0, flat)
    term = total = 1.0
    for l in range(1, num_terms):
        term = term * (near / l)
        total = total + term
        if l % 16 == 0 and l > near.max(initial=0.0) and (term < total * 2.0**-54).all():
            break
    out = np.exp(-near) * total
    if far.any():
        out[far] = 0.0
        live = far & (flat <= _underflow_limit(num_terms))
        if live.any():
            x_live = flat[live]
            neg_x, lx = -x_live, np.log(x_live)
            acc = 0.0
            for l in range(num_terms):
                acc = acc + np.exp(neg_x + l * lx - log_factorial(l))
            out[live] = acc
    out = np.minimum(out, 1.0).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=128)
def _underflow_limit(num_terms: int) -> float:
    """The largest x with -x + (num_terms-1) ln x >= -750, to rounding.

    That function of x peaks at x = num_terms-1 and falls beyond, so for every
    x past the limit each term e^{-x + l ln x - ln l!}, l < num_terms,
    underflows to 0.0. The limit is the fixed point of
    v -> 750 + (num_terms-1) ln v, which the iteration approaches from above.
    """
    v = 1e300
    while True:
        step = -_UNDERFLOW_EXPONENT + (num_terms - 1) * math.log(v)
        if not step < v:
            return v
        v = step
