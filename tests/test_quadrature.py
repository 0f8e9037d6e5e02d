import math
import warnings

import numpy as np
import pytest
from scipy import integrate

import nodeiso.channel as channel
import nodeiso.quadrature as quadrature
from nodeiso.analytic import expected_r2_mrc, expected_r2_sc, expected_r2_shadow_only
from nodeiso.channel import DiversityScheme, make_success_fn, success_prob_mrc
from nodeiso.quadrature import (
    QuadratureError,
    expected_r2_numeric_fading,
    expected_r2_numeric_fading_shadow,
    expected_r2_numeric_nofade,
    shadow_averaged_success,
)
from reference import params
from reference import theta as reference_theta


# ============================================================================
#  Shadowing-only integral
# ============================================================================


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("alpha", [2.0, 4.0])
def test_nofade_matches_closed_form(sigma, alpha):
    p = params(sigma=sigma, alpha=alpha)
    numeric = expected_r2_numeric_nofade(p)
    closed = expected_r2_shadow_only(p)
    assert abs(numeric - closed) / closed < 1e-6


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_nofade_budget_below_the_float_range(sigma):
    # k * ptx underflows to 0.0; the budget's log is still finite.
    p = params(sigma=sigma, ptx=1e-200, k=1e-200)
    numeric = expected_r2_numeric_nofade(p)
    closed = expected_r2_shadow_only(p)
    assert abs(numeric - closed) / closed < 1e-6


def test_nofade_small_sigma_approaches_disk():
    p = params(sigma=1e-3, alpha=4.0)
    disk = (p.k * p.ptx / (p.psi * p.w)) ** (2.0 / p.alpha)
    assert abs(expected_r2_numeric_nofade(p) - disk) / disk < 1e-4


def test_nofade_requires_sigma():
    with pytest.raises(ValueError):
        expected_r2_numeric_nofade(params(sigma=0.0))


# ============================================================================
#  Fading integrals
# ============================================================================


def test_fading_reference_point():
    # This module is the oracle; cross-check it three ways at the reference
    # point: the closed form, a direct rho-space quadrature, and a Monte
    # Carlo expectation of the squared range.
    p = params(m=2)
    numeric = expected_r2_numeric_fading(make_success_fn(p, DiversityScheme.no_diversity()), p)
    assert numeric == pytest.approx(9.399856029866251, rel=1e-8)

    theta = reference_theta(p)

    def ps(rho):
        x = theta * rho**4
        return math.exp(-x) * (1 + x)

    direct, _ = integrate.quad(lambda r: 2 * r * ps(r), 0, np.inf, limit=400)
    assert numeric == pytest.approx(direct, rel=1e-8)

    rng = np.random.default_rng(90_210)
    gains = rng.gamma(2.0, 0.5, size=10_000_000)
    budget = p.k * p.ptx / (p.psi * p.w)
    samples = budget ** (2.0 / p.alpha) * gains ** (2.0 / p.alpha)
    mc = float(samples.mean())
    se = float(samples.std(ddof=1)) / math.sqrt(len(samples))
    assert abs(mc - numeric) <= 4 * se


def test_fading_step_function_gives_disk():
    # The trapezoid rule converges only like the step on a law with a jump,
    # so the oracle refuses it rather than return an O(h) answer; the disk
    # limit itself is covered by test_nofade_small_sigma_approaches_disk.
    p = params(m=1, alpha=4.0)
    step = lambda y: np.where(y >= p.psi, 1.0, 0.0)  # noqa: E731
    with pytest.raises(QuadratureError, match="not smooth"):
        expected_r2_numeric_fading(step, p)


def test_fading_mrc_one_branch_identical():
    p = params(m=2)
    a = expected_r2_numeric_fading(make_success_fn(p, DiversityScheme.no_diversity()), p)
    b = expected_r2_numeric_fading(make_success_fn(p, DiversityScheme.mrc(1)), p)
    assert a == b


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0, 6.0])
def test_fading_matches_closed_forms_across_alpha(alpha):
    for m, M in [(1, 1), (2, 1), (2, 2), (4, 2)]:
        p = params(m=m, alpha=alpha)
        scheme = DiversityScheme.mrc(M) if M > 1 else DiversityScheme.no_diversity()
        numeric = expected_r2_numeric_fading(make_success_fn(p, scheme), p)
        closed = expected_r2_mrc(p, M)
        assert abs(numeric - closed) / closed < 1e-6


# ============================================================================
#  Fading + shadowing
# ============================================================================


def test_fading_shadow_reference_point():
    p = params(m=2, sigma=2.0)
    numeric = expected_r2_numeric_fading_shadow(make_success_fn(p, DiversityScheme.no_diversity()), p)
    assert numeric == pytest.approx(15.497742577959349, rel=1e-7)


def test_fading_shadow_small_sigma_continuity():
    p_eps = params(m=2, sigma=1e-6)
    p_zero = params(m=2, sigma=0.0)
    fn = make_success_fn(p_zero, DiversityScheme.no_diversity())
    shadowed = expected_r2_numeric_fading_shadow(fn, p_eps)
    radial = expected_r2_numeric_fading(fn, p_zero)
    assert abs(shadowed - radial) / radial < 1e-6


def test_fading_shadow_factoring_across_families():
    # The shadowing multiplier enters only through the power-law scale, so
    # the shadowed/unshadowed ratio is forced for every success family.
    sigma, alpha = 1.5, 4.0
    factor = math.exp(2 * sigma**2 / alpha**2)
    for m, scheme in [
        (1, DiversityScheme.no_diversity()),
        (2, DiversityScheme.mrc(2)),
        (2, DiversityScheme.sc(2)),
    ]:
        p_sh = params(m=m, sigma=sigma, alpha=alpha)
        p_0 = params(m=m, sigma=0.0, alpha=alpha)
        fn = make_success_fn(p_0, scheme)
        ratio = expected_r2_numeric_fading_shadow(fn, p_sh) / expected_r2_numeric_fading(fn, p_0)
        assert ratio == pytest.approx(factor, rel=1e-6)


def test_fading_shadow_requires_sigma():
    p = params(m=1, sigma=0.0)
    with pytest.raises(ValueError):
        expected_r2_numeric_fading_shadow(make_success_fn(p, DiversityScheme.no_diversity()), p)


def test_fading_only_form_refuses_sigma():
    # Ignoring sigma = 2 would give 9.39986, 39% below the shadowed 15.49774.
    p = params(m=2, sigma=2.0)
    with pytest.raises(ValueError, match="requires sigma = 0; use the shadowed form"):
        expected_r2_numeric_fading(make_success_fn(p, DiversityScheme.no_diversity()), p)


def test_hermite_order_doubling_stable(monkeypatch):
    p = params(m=2, sigma=2.0)
    fn = make_success_fn(p, DiversityScheme.no_diversity())
    monkeypatch.setattr(quadrature, "_HERMITE_ORDER", 64)
    lo = expected_r2_numeric_fading_shadow(fn, p)
    monkeypatch.setattr(quadrature, "_HERMITE_ORDER", 128)
    hi = expected_r2_numeric_fading_shadow(fn, p)
    assert abs(hi - lo) / lo < 1e-9


def test_rel_tol_halving_self_consistency(monkeypatch):
    p = params(m=2, sigma=1.0)
    fn = make_success_fn(p, DiversityScheme.no_diversity())
    monkeypatch.setattr(quadrature, "_REL_TOL", 1e-6)
    coarse = expected_r2_numeric_fading_shadow(fn, p)
    monkeypatch.setattr(quadrature, "_REL_TOL", 5e-7)
    fine = expected_r2_numeric_fading_shadow(fn, p)
    assert abs(fine - coarse) / coarse < 1e-6


def test_non_decaying_integrand_raises():
    p = params(m=1)
    with pytest.raises(QuadratureError):
        expected_r2_numeric_fading(lambda y: 0.5, p)


@pytest.mark.parametrize("sigma", [1e20, 1e200])
def test_grid_beyond_integer_indices_raises(sigma):
    # The Hermite nodes put ln(budget) - 1.49 sigma at the grid's start.
    with pytest.raises(QuadratureError, match="beyond the integer range of its indices"):
        p = params(m=1.5, sigma=sigma)
        expected_r2_numeric_fading_shadow(make_success_fn(p, DiversityScheme.no_diversity()), p)


def test_integrand_evaluated_only_at_interior_points():
    # The success function sees a finite positive mean SNR at every node the
    # rule touches; rho = 0 (infinite SNR) would surface here as inf.
    p = params(m=2, sigma=1.0)
    inner = make_success_fn(p, DiversityScheme.no_diversity())
    seen = []

    def recording(y):
        seen.append(y)
        return inner(y)

    expected_r2_numeric_fading_shadow(recording, p)
    arr = np.concatenate([np.ravel(y) for y in seen])
    assert np.all(np.isfinite(arr)) and np.all(arr > 0.0)


@pytest.mark.parametrize("sigma", [0.0, 2.0])
def test_sc_quadrature_needs_no_beta_table(monkeypatch, sigma):
    # The SC oracle integrates 1 - (1 - Q)^M; the occupancy tables belong to
    # the closed form and the reference law it checks, so it must not lean on them.
    p = params(m=2, sigma=sigma)
    closed = expected_r2_sc(p, 4)

    def refuse(*args, **kwargs):
        raise AssertionError("the quadrature route built an occupancy table")

    monkeypatch.setattr(channel, "build_beta_table", refuse)
    monkeypatch.setattr(channel, "_sc_occupancy", refuse)
    fn = make_success_fn(p, DiversityScheme.sc(4))
    if sigma > 0:
        numeric = expected_r2_numeric_fading_shadow(fn, p)
    else:
        numeric = expected_r2_numeric_fading(fn, p)
    assert abs(numeric - closed) / closed < 1e-6


def test_law_calls_stay_within_chunk(monkeypatch):
    # Memory per call is bounded by the chunk, not by nodes x grid points.
    p = params(m=2, sigma=4.0)
    inner = make_success_fn(p, DiversityScheme.mrc(4))
    sizes = []

    def recording(y):
        sizes.append(np.size(y))
        return inner(y)

    for order in (64, 200):
        monkeypatch.setattr(quadrature, "_HERMITE_ORDER", order)
        expected_r2_numeric_fading_shadow(recording, p)
    assert 0 < max(sizes) <= quadrature._CHUNK


def test_zero_law_gives_zero_and_subnormal_values_survive():
    assert expected_r2_numeric_fading(lambda y: np.zeros_like(y), params(m=1)) == 0.0
    # E[R^2] = 2e-320 m^2: the tail test must not underflow into a refusal.
    p = params(m=1, alpha=1.0, psi=1e163)
    numeric = expected_r2_numeric_fading(make_success_fn(p, DiversityScheme.no_diversity()), p)
    assert numeric == pytest.approx(expected_r2_mrc(p, 1), rel=1e-3)


# ============================================================================
#  Real severity
# ============================================================================


def test_real_m_matches_integer_forms():
    # The real-shape law, scipy's gammaincc, meets the Erlang series at every
    # integer shape, and an integral m*M with a real m takes the series.
    from scipy.special import gammaincc

    for m, M in ((1, 1), (2, 1), (4, 1), (1.5, 2), (0.75, 4)):
        p = params(m=m)
        for y in np.logspace(-1, 3, 20):
            assert gammaincc(float(m * M), m * p.psi / y) == pytest.approx(
                success_prob_mrc(y, M, p), rel=1e-12
            )


@pytest.mark.parametrize(
    "m,y_over_psi,expected",
    [(0.5, 1.0, 0.3173105078629141), (1.5, 2.0, 0.6822703303362125)],
)
def test_real_m_reference_values(m, y_over_psi, expected):
    psi = 10.0
    x = m * psi / (y_over_psi * psi)
    oracle, _ = integrate.quad(lambda t: t ** (m - 1) * math.exp(-t), x, np.inf)
    oracle /= math.gamma(m)
    value = success_prob_mrc(y_over_psi * psi, 1, params(m=m, psi=psi))
    assert value == pytest.approx(oracle, rel=1e-10)
    assert value == pytest.approx(expected, rel=1e-10)


def test_real_m_domain():
    with pytest.raises(ValueError):
        success_prob_mrc(0.0, 1, params(m=1.5))
    for m in (0.3, math.inf, math.nan):
        with pytest.raises(ValueError, match="m must be finite and >= 0.5"):
            params(m=m)


def test_real_m_law_where_m_psi_over_y_overflows():
    # m psi / y leaves the float range: x is inf, Q(m, inf) = 0, and no numpy
    # overflow warning escapes (pyproject's filterwarnings make one an error).
    y = np.array([1e-300, 1e-10, 1e300])
    got = success_prob_mrc(y, 1, params(m=1.5, psi=1e300))
    assert got[0] == 0.0 and got[1] == 0.0 and got[2] == pytest.approx(0.3916251762710877)


def test_real_m_numeric_range_integral_runs():
    p = params(m=1.5, sigma=1.0)
    fn = make_success_fn(p, DiversityScheme.no_diversity())
    shadowed = expected_r2_numeric_fading_shadow(fn, p)
    unshadowed = expected_r2_numeric_fading(fn, params(m=1.5, sigma=0.0))
    assert shadowed > unshadowed > 0.0
    assert shadowed / unshadowed == pytest.approx(math.exp(2 / 16), rel=1e-6)


@pytest.mark.parametrize("sigma", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("m", [0.5, 0.75, 1.5, 2.5, 7.3])
@pytest.mark.parametrize("M, rel", [(1, 1e-10), (2, quadrature._REL_TOL)])
def test_real_m_closed_form_meets_the_quadrature(M, rel, m, alpha, sigma):
    # Real m takes both routes: the Gamma ratio, and the trapezoid rule over
    # gammaincc (or the Erlang series where m*M is an integer). MRC2 is held
    # to the oracle's own tolerance: at m*M = 14.6 and sigma = 2 its step
    # halving stops after one chance agreement, up to 5e-10 off.
    p = params(m=m, alpha=alpha, sigma=sigma)
    fn = make_success_fn(p, DiversityScheme.mrc(M))
    numeric = (expected_r2_numeric_fading_shadow if sigma else expected_r2_numeric_fading)(fn, p)
    assert numeric == pytest.approx(expected_r2_mrc(p, M), rel=rel)


def test_shadow_averaged_success_limits():
    p = params(m=2, sigma=0.0)
    fn = make_success_fn(p, DiversityScheme.no_diversity())
    assert shadow_averaged_success(fn, 20.0, 0.0) == fn(20.0)
    # Averaging over a symmetric gain spreads mass both ways; probe against
    # a brute-force normal expectation.
    rng = np.random.default_rng(3)
    z = rng.standard_normal(200_000)
    brute = float(np.mean(fn(20.0 * np.exp(1.0 * z))))
    smooth = shadow_averaged_success(fn, 20.0, 1.0)
    assert smooth == pytest.approx(brute, abs=4 * 0.5 / math.sqrt(200_000))
    # Mean SNRs clipped to e^(+-700), as the oracle clips them: no underflow
    # to a zero SNR, no overflow warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert shadow_averaged_success(fn, 1e-300, 8.0) == 0.0
        assert shadow_averaged_success(fn, 1e300, 8.0) == 1.0
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="average SNR must be positive"):
            shadow_averaged_success(fn, bad, 1.0)


def test_shadow_averaged_success_is_one_array_call():
    p = params(m=2, sigma=1.0)
    fn = make_success_fn(p, DiversityScheme.sc(3))
    calls = []

    def recording(y):
        calls.append(np.shape(y))
        return fn(y)

    value = shadow_averaged_success(recording, 20.0, 1.0)
    assert calls == [(1, 64)]
    assert isinstance(value, float)
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    loop = sum(w * fn(20.0 * math.exp(math.sqrt(2.0) * x)) for x, w in zip(nodes, weights))
    assert value == pytest.approx(loop / math.sqrt(math.pi), rel=1e-14)
