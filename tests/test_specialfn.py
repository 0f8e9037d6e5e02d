import math

import numpy as np
import pytest
from scipy import integrate, special

from nodeiso.specialfn import log_factorial, truncated_exp_series
from reference import truncated_exp_series_full


def test_log_factorial_small_exact():
    assert log_factorial(0) == 0.0
    assert log_factorial(5) == pytest.approx(math.log(120), rel=1e-15)
    assert log_factorial(20) == pytest.approx(math.log(2432902008176640000), rel=1e-15)


def test_log_factorial_large_matches_lgamma():
    for n in (21, 50, 170, 1000):
        assert log_factorial(n) == pytest.approx(math.lgamma(n + 1), rel=1e-14)


def test_log_factorial_domain():
    with pytest.raises(ValueError):
        log_factorial(-1)


def test_incomplete_gamma_trivial_cases():
    assert truncated_exp_series(0.0, 1) == 1.0
    assert truncated_exp_series(math.log(10.0), 1) == pytest.approx(0.1, rel=1e-12)


def test_incomplete_gamma_derived_m3():
    # Independent oracle: adaptive integration of t^(m-1) e^-t over [x, inf).
    m, x = 3, 2.0
    oracle, _ = integrate.quad(lambda t: t ** (m - 1) * math.exp(-t), x, np.inf)
    oracle /= math.gamma(m)
    value = truncated_exp_series(x, m)
    assert value == pytest.approx(oracle, rel=1e-10)
    assert value == pytest.approx(0.6766764161830635, rel=1e-12)


def test_incomplete_gamma_m1_is_exponential():
    for x in (0.0, 0.3, 1.0, 5.0, 40.0, 200.0):
        assert abs(truncated_exp_series(x, 1) - math.exp(-x)) <= 1e-14


def test_incomplete_gamma_monotonicity_and_limits():
    xs = np.linspace(0.0, 60.0, 200)
    for m in (1, 2, 3, 5, 8):
        vals = [truncated_exp_series(x, m) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[0] == 1.0
        assert vals[-1] < 1e-10
    for x in (0.5, 3.0, 12.0):
        by_m = [truncated_exp_series(x, m) for m in range(1, 10)]
        assert all(b >= a - 1e-15 for a, b in zip(by_m, by_m[1:]))


def test_incomplete_gamma_domain():
    with pytest.raises(ValueError):
        truncated_exp_series(1.0, 0)
    with pytest.raises(ValueError):
        truncated_exp_series(-0.5, 2)


def test_series_log_space_branch():
    # x above the cutover exercises the per-term log-space path; the library
    # continued-fraction routine is the independent reference.
    for m, x in [(1, 705.0), (3, 705.0), (5, 720.0)]:
        assert truncated_exp_series(x, m) == pytest.approx(
            float(special.gammaincc(m, x)), rel=1e-8
        )


def test_series_long_sum_uses_compensation():
    # Long series (beyond the plain-loop threshold) against the library.
    for m, x in [(40, 25.0), (64, 50.0), (120, 100.0)]:
        assert truncated_exp_series(x, m) == pytest.approx(
            float(special.gammaincc(m, x)), rel=1e-12
        )


def test_series_arrays_match_scalars():
    # One recurrence for floats and arrays: every element matches the scalar
    # call to rounding, on both sides of the log-space cutover, at 0 and inf.
    xs = np.concatenate([[0.0, 1e-300, 699.9, 700.0, 700.1, 1e6, math.inf],
                         np.logspace(-3, 3, 50)])
    for m in (1, 2, 5, 40):
        values = truncated_exp_series(xs.reshape(3, 19), m).ravel()
        scalars = [truncated_exp_series(float(x), m) for x in xs]
        np.testing.assert_allclose(values, scalars, rtol=4 * np.finfo(float).eps, atol=0)
    assert truncated_exp_series(math.inf, 3) == 0.0
    assert truncated_exp_series(np.zeros((2, 0)), 3).shape == (2, 0)
    with pytest.raises(ValueError):
        truncated_exp_series(np.array([1.0, -0.5]), 2)
    with pytest.raises(ValueError):
        truncated_exp_series(np.array([math.nan]), 2)


def _bits(value):
    return np.asarray(value, dtype=float).view(np.int64)


@pytest.mark.parametrize("num_terms", [1, 2, 8, 17, 64, 699, 700, 701, 1024, 4096])
def test_series_bits_match_full_loop(num_terms):
    # The series skips terms and far entries that cannot change a bit; its
    # bits must equal the loop that sums every term over the whole array.
    rng = np.random.default_rng(num_terms)
    edges = [0.0, 1e-300, 699.9, 700.0, 700.1, 757.0, 800.0, 1e6, 1e308, math.inf]
    xs = np.concatenate([edges, np.logspace(-3, math.log10(1500.0), 2000),
                         rng.uniform(0.0, 1500.0, 2000), 10.0 ** rng.uniform(-3, 3.2, 2000)])
    for x in (xs, xs[:4000].reshape(40, 100), xs[xs < 700.0], xs[xs > 700.0]):
        np.testing.assert_array_equal(_bits(truncated_exp_series(x, num_terms)),
                                      _bits(truncated_exp_series_full(x, num_terms)))
    for x in edges + [0.5, 3.0, 64.0, 650.0]:
        value = truncated_exp_series(x, num_terms)
        assert type(value) is float
        assert _bits(value) == _bits(truncated_exp_series_full(x, num_terms))
    assert truncated_exp_series(np.zeros((2, 0)), num_terms).shape == (2, 0)
