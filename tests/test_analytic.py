import math
import re
import timeit
from dataclasses import replace

import numpy as np
import pytest

import nodeiso.analytic as analytic
from nodeiso.analytic import (
    expected_r2,
    expected_r2_mrc,
    expected_r2_sc,
    expected_r2_shadow_only,
    isolation_from_er2,
    isolation_probability,
    min_density_for_isolation,
)
from nodeiso.channel import ChannelParams, DiversityScheme, _sc_occupancy, make_success_fn
from nodeiso.quadrature import (
    QuadratureError,
    expected_r2_numeric_fading,
    expected_r2_numeric_fading_shadow,
)
from reference import mrc_er2_series, params, sc_er2_alternating, theta


# ============================================================================
#  Shadowing-only baseline
# ============================================================================


def test_shadow_only_deterministic_disk():
    # k*ptx/(psi*w) = 1e4 and alpha = 4 gives a 10 m disk.
    p = ChannelParams(ptx=1.0, w=0.01, k=100.0, psi=1.0, alpha=4.0, sigma=0.0)
    assert expected_r2_shadow_only(p) == pytest.approx(100.0, rel=1e-12)


@pytest.mark.parametrize(
    "sigma,expected",
    [(2.0, 164.87212707001282), (4.0, 738.905609893065)],
)
def test_shadow_only_spread_factor(sigma, expected):
    p = ChannelParams(ptx=1.0, w=0.01, k=100.0, psi=1.0, alpha=4.0, sigma=sigma)
    assert expected_r2_shadow_only(p) == pytest.approx(expected, rel=1e-12)


def test_shadow_only_budget_beyond_the_float_range():
    # psi * w underflows to 0: k*ptx/(psi*w) = 1e401 and alpha = 4 give 10^200.5.
    p = params(psi=1e-200, w=1e-200)
    assert expected_r2_shadow_only(p) == pytest.approx(10**200.5, rel=1e-13)


# k ptx/(w psi) = 100 in each, as in the reference channel, with the float
# products k ptx = inf, 0 and 1e308 (then k ptx/w = inf and psi = 1e308).
_RESCALED_BUDGETS = [dict(k=1e200, ptx=1e200, w=1e100, psi=1e298),
                     dict(k=1e-200, ptx=1e-200, w=1e-300, psi=1e-102),
                     dict(k=1e300, ptx=1e8, w=0.01, psi=1e308)]


@pytest.mark.parametrize("sigma", [0.0, 1.0])
@pytest.mark.parametrize("scheme", [DiversityScheme.no_diversity(), DiversityScheme.mrc(2),
                                    DiversityScheme.sc(2)], ids=["none", "mrc2", "sc2"])
def test_er2_depends_on_the_budget_only_through_its_ratio(scheme, sigma):
    # The closed form meets the reference scale to 1e-12; the quadrature meets
    # it to 1e-9 wherever it answers, and at psi = 1e308, whose law rises
    # beyond the largest mean SNR a float holds, it refuses.
    reference = expected_r2(params(m=2, sigma=sigma), scheme)
    oracle = expected_r2_numeric_fading_shadow if sigma else expected_r2_numeric_fading
    for budget in _RESCALED_BUDGETS:
        p = params(m=2, sigma=sigma, **budget)
        assert expected_r2(p, scheme) == pytest.approx(reference, rel=1e-12)
        if p.psi < 1e300:
            assert oracle(make_success_fn(p, scheme), p) == pytest.approx(reference, rel=1e-9)
        else:
            with pytest.raises(QuadratureError, match="at psi = 1e"):
                oracle(make_success_fn(p, scheme), p)


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_alpha_whose_inverse_overflows_is_named(sigma):
    message = re.escape(f"at alpha = {1e-320:g}: 2/alpha overflows")
    for er2 in (expected_r2_shadow_only, lambda p: expected_r2(p, DiversityScheme.sc(2))):
        with pytest.raises(OverflowError, match=message):
            er2(params(alpha=1e-320, sigma=sigma))


def test_shadow_factor_is_one_without_shadowing_and_names_an_alpha_squared_of_zero():
    # sigma = 0 adds exactly 0 to ln E[R^2], also where alpha^2 underflows to 0
    # (psi = 1000 makes ln_margin 0); beyond the float range the error names
    # alpha and sigma and each summand.
    x0 = 2.0 / 1e-200
    assert analytic._er2(params(alpha=1e-200, psi=1000.0), x0, 0.5, 1.0) == math.exp(0.5)
    with pytest.raises(OverflowError, match=re.escape(
            "at alpha = 1e-200, sigma = 1: ln E[R^2] = 9.21034e+200 (budget) + 0 (gain) "
            "+ inf (shadowing)")):
        analytic._er2(params(alpha=1e-200, sigma=1.0), x0, 0.0, 1.0)


# ============================================================================
#  Nakagami forms
# ============================================================================


def test_nakagami_m1_alpha2_is_inverse_theta():
    p = params(m=1, alpha=2.0)
    assert expected_r2_mrc(p, 1) == pytest.approx(1.0 / theta(p), rel=1e-14)


def test_nakagami_reference_values():
    assert expected_r2_mrc(params(m=2), 1) == pytest.approx(9.399856029866251, rel=1e-12)
    assert expected_r2_mrc(params(m=1), 1) == pytest.approx(8.862269254527579, rel=1e-12)


def test_nakagami_shadow_reduction_and_values():
    p = params(m=2, sigma=0.0)
    x0, ln_gain = 0.5, math.lgamma(2.5) - math.lgamma(2.0)
    assert analytic._er2(p, x0, ln_gain, 2) == math.exp(x0 * (p.ln_margin - math.log(2)) + ln_gain)
    assert expected_r2_mrc(params(m=2, sigma=2.0), 1) == pytest.approx(
        15.497742577959349, rel=1e-12
    )
    assert expected_r2_mrc(params(m=2, sigma=4.0), 1) == pytest.approx(
        69.45606352655328, rel=1e-12
    )


# ============================================================================
#  Diversity forms
# ============================================================================


def test_mrc_single_branch_reduction_exact():
    # One branch: x0 theta^-x0 sum_{l<m} Gamma(x0+l)/l! times the shadow factor.
    for m in (1, 2, 4):
        for sigma in (0.0, 2.0):
            p = params(m=m, sigma=sigma)
            x0 = 2.0 / p.alpha
            series = math.fsum(math.gamma(x0 + l) / math.factorial(l) for l in range(m))
            direct = x0 * theta(p)**-x0 * series * math.exp(2.0 * sigma**2 / p.alpha**2)
            assert expected_r2_mrc(p, 1) == pytest.approx(direct, rel=1e-14)
            assert expected_r2(p, DiversityScheme.no_diversity()) == expected_r2_mrc(p, 1)


@pytest.mark.parametrize("m, M", [(m, M) for m in (1, 2, 3, 7, 16, 64, 256, 1024)
                                   for M in (1, 2, 4) if m * M <= 4096])
def test_mrc_gamma_ratio_matches_the_series(m, M):
    for alpha in (2.0, 2.5, 3.0, 4.0, 6.0, 8.0):
        for sigma in (0.0, 0.5, 2.0, 4.0):
            p = params(m=m, alpha=alpha, sigma=sigma)
            assert expected_r2_mrc(p, M) == pytest.approx(mrc_er2_series(p, M), rel=1e-11)


def test_mrc_cost_does_not_grow_with_m():
    p = params(m=1024, alpha=2.0, sigma=0.5)
    best = min(timeit.repeat(lambda: expected_r2_mrc(p, 4), number=1000, repeat=5)) / 1000
    assert best < 10e-6


def test_mrc_reference_values():
    assert expected_r2_mrc(params(m=2), 2) == pytest.approx(13.708123376888283, rel=1e-12)
    assert expected_r2_mrc(params(m=1), 2) == pytest.approx(13.29340388179137, rel=1e-12)


def test_sc_single_branch_reduction():
    # One branch is the series' single term Gamma(m + 2/alpha)/Gamma(m).
    for m in (0.5, 1, 1.5, 2, 4, 171):
        for sigma in (0.0, 2.0):
            p = params(m=m, sigma=sigma)
            assert expected_r2_sc(p, 1) == expected_r2_mrc(p, 1)


def test_sc_reference_value():
    p = params(m=1)
    assert expected_r2_sc(p, 2) == pytest.approx(11.457967822477658, rel=1e-12)


@pytest.mark.parametrize("alpha, m, M", [
    (2.0, 64, 4), (2.0, 100, 8), (2.0, 171, 2), (4.0, 100, 16), (4.0, 256, 16), (8.0, 64, 8),
])
def test_sc_long_series_meets_the_oracle(alpha, m, M):
    # Series of 190 to 2540 terms, whose first occupancy probabilities are
    # as small as 1e-22: every term is positive, so none is lost to cancellation.
    p = params(m=m, alpha=alpha)
    oracle = expected_r2_numeric_fading(make_success_fn(p, DiversityScheme.sc(M)), p)
    assert expected_r2_sc(p, M) == pytest.approx(oracle, rel=1e-8)


def test_sc_ladder_in_range_where_its_terms_are():
    # E[max G^s] at s = 100 is about 7e217: every series term is scaled by the
    # largest, so none leaves the float range before the sum does. At m = 200,
    # s = 133.3, E[G^s] alone is 5e322, yet theta^(-s) = 2^(-133.3) brings
    # E[R^2] back into range (40-digit mpmath).
    assert expected_r2_sc(params(m=100, alpha=0.02), 16) == pytest.approx(
        6.760439881531912e217, rel=1e-9)
    assert expected_r2_sc(params(m=200, alpha=0.015), 2) == pytest.approx(
        7.9497265238599763e282, rel=1e-10)


def test_mrc_in_range_where_the_gamma_ratio_overflows():
    # Gamma(333.3)/Gamma(200) is about 5e322, theta^(-s) = 2^(-133.3): one
    # exp of the summed logs gives E[R^2] (40-digit mpmath), as it does
    # where the ratio is a float.
    assert expected_r2_mrc(params(m=200, alpha=0.015), 1) == pytest.approx(
        3.9748632744267007e282, rel=1e-10)
    assert expected_r2_mrc(params(m=200, alpha=0.02), 1) == pytest.approx(
        2.0409087060230189e209, rel=1e-12)


def test_sc_below_mrc():
    for m in (1, 2, 4):
        p = params(m=m)
        for M in (2, 3, 4, 8):
            sc = expected_r2_sc(p, M)
            assert 0.0 < sc <= expected_r2_mrc(p, M)


def test_sc_order_cap(monkeypatch):
    # Beyond the old cap of 16 branches the series meets the oracle; beyond
    # its own cap of 32 the order is refused before any weight is built.
    for alpha in (2.0, 4.0):
        p = params(m=2, alpha=alpha)
        for M in (17, 32):
            oracle = expected_r2_numeric_fading(make_success_fn(p, DiversityScheme.sc(M)), p)
            assert expected_r2_sc(p, M) == pytest.approx(oracle, rel=1e-9)

    def refuse(*args, **kwargs):
        raise AssertionError("series weights were built above the order cap")

    monkeypatch.setattr(analytic, "_sc_occupancy", refuse)
    cap = analytic._SC_MAX_BRANCHES
    with pytest.raises(ValueError, match=f"1 <= M <= {cap}, got {cap + 1}"):
        expected_r2_sc(params(m=2), cap + 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 12])
def test_sc_series_matches_the_alternating_sum(m):
    # Integer m, where the alternating sum still keeps about ten digits.
    for M in (2, 3, 4, 8, 16):
        for alpha in (2.0, 3.0, 4.0, 8.0):
            for sigma in (0.0, 2.0):
                p = params(m=m, alpha=alpha, sigma=sigma)
                assert expected_r2_sc(p, M) == pytest.approx(sc_er2_alternating(p, M), rel=1e-10)


@pytest.mark.parametrize("m", [0.5, 0.75, 1.5, 2.5, 7.3])
def test_sc_real_m_meets_the_quadrature(monkeypatch, m):
    # Every occupancy probability that the series builds lies in [0, 1],
    # which its stopping rule relies on, up to the rounding of its lgamma
    # differences: near 1 the entries overshoot by up to about 4e-13.
    built = []

    def recording(*args):
        built.append(_sc_occupancy(*args))
        return built[-1]

    monkeypatch.setattr(analytic, "_sc_occupancy", recording)
    for alpha in (2.0, 3.0, 4.0, 6.0):
        for sigma in (0.0, 0.5):
            p = params(m=m, alpha=alpha, sigma=sigma)
            for M in (2, 4):
                law = make_success_fn(p, DiversityScheme.sc(M))
                oracle = (expected_r2_numeric_fading_shadow(law, p) if sigma
                          else expected_r2_numeric_fading(law, p))
                assert expected_r2_sc(p, M) == pytest.approx(oracle, rel=1e-9)
    assert len(built) == 16
    assert all(0.0 <= v <= 1.0 + 1e-12 for row in built for v in row)


# E[max_i G_i^s], s = 2/alpha, over M i.i.d. Gamma(m, 1) gains at 30 digits:
# s int x^(s-1) (1 - P(m,x)^M) dx with u = x^s, which takes the x^(s-1)
# singularity at 0 out, split at the mode m - 1 (m/2 for m <= 1), from
#   s = mp.mpf(2) / alpha
#   mp.quad(lambda u: 1 - mp.gammainc(m, 0, u**(1 / s), regularized=True)**M,
#           [0, mode**s, (2 * m + 40)**s, mp.inf])
# with mpmath 1.3.0 at mp.dps = 60; a run at dps = 45 agrees to 46 digits.
_SC_TRUTH = {
    (12, 16, 2.0): "18.8752993508992941971058436662",
    (12, 16, 4.0): "4.33469643793434069485661617663",
    (171, 16, 2.0): "194.886443834959662446854654249",
    (171, 16, 4.0): "13.957408258411675512111943647",
    (256, 16, 2.0): "285.051123847043572961680368092",
    (256, 16, 4.0): "16.8811888847953622053301444394",
    (100, 8, 2.0): "114.687163433144684390356793772",
    (100, 8, 4.0): "10.7046414236104106512646185055",
    (1.5, 4, 2.0): "2.83787144109297405378806774563",
    (1.5, 4, 4.0): "1.63915694633291386847418391417",
    (0.5, 2, 2.0): "0.818309886183790671537767526745",
    (0.5, 2, 4.0): "0.797884560802865355879892119869",
}


@pytest.mark.parametrize("m, M, alpha", list(_SC_TRUTH))
def test_sc_series_meets_the_30_digit_truth(m, M, alpha):
    # theta = 1 here, so E[R^2] is the gain moment itself.
    p = ChannelParams(ptx=m, w=1.0, k=1.0, psi=1.0, alpha=alpha, m=m)
    assert theta(p) == 1.0
    assert expected_r2_sc(p, M) == pytest.approx(float(_SC_TRUTH[m, M, alpha]), rel=1e-11)


def test_sc_series_cost_at_sixteen_branches():
    # Both cells took 0.43 s and 0.92 s with the alternating sum on a 2-vCPU
    # Xeon; each is timed without the cached occupancy probabilities.
    for m in (171, 256):
        _sc_occupancy.cache_clear()
        start = timeit.default_timer()
        expected_r2_sc(params(m=m), 16)
        assert timeit.default_timer() - start < 0.5


def test_dispatch_reductions():
    p = params(m=2, sigma=1.0)
    base = expected_r2(p, DiversityScheme.no_diversity())
    assert expected_r2(p, DiversityScheme.mrc(1)) == base
    assert expected_r2(p, DiversityScheme.sc(1)) == base
    assert expected_r2(p, DiversityScheme.mrc(2)) == expected_r2_mrc(p, 2)
    assert expected_r2(p, DiversityScheme.sc(2)) == expected_r2_sc(p, 2)


# ============================================================================
#  Isolation probability
# ============================================================================


def test_isolation_empty_network():
    assert isolation_probability(params(m=2), DiversityScheme.no_diversity(), 0.0) == 1.0


def test_isolation_reference_value():
    p_i = isolation_probability(params(m=2), DiversityScheme.no_diversity(), 1e-4)
    assert p_i == pytest.approx(0.9970513041039797, rel=1e-12)


def test_isolation_monotone_in_density():
    p = params(m=2)
    scheme = DiversityScheme.no_diversity()
    lams = np.logspace(-5, -1, 30)
    vals = [isolation_probability(p, scheme, lam) for lam in lams]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < vals[0] <= 1.0


def test_isolation_limit_large_density():
    p_i = isolation_probability(params(m=2), DiversityScheme.no_diversity(), 1e6)
    assert p_i == pytest.approx(0.0, abs=1e-300)


def test_isolation_query_validation():
    for bad in (-1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="node density must be finite and >= 0"):
            isolation_probability(params(), DiversityScheme.no_diversity(), bad)


def test_isolation_from_er2_is_the_one_formula():
    p = params(m=2, sigma=1.0)
    for scheme in (DiversityScheme.no_diversity(), DiversityScheme.mrc(2), DiversityScheme.sc(3)):
        er2 = expected_r2(p, scheme)
        for lam in (0.0, 1e-5, 1e-3, 1.0):
            assert isolation_from_er2(lam, er2) == math.exp(-lam * math.pi * er2)
            assert isolation_probability(p, scheme, lam) == isolation_from_er2(lam, er2)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="node density must be finite and >= 0"):
            isolation_from_er2(bad, 1.0)


# ============================================================================
#  Inversions
# ============================================================================


def test_min_density_reference_value():
    lam = min_density_for_isolation(params(m=2), DiversityScheme.no_diversity(), 0.01)
    assert lam == pytest.approx(0.15594613290898593, rel=1e-10)


def test_min_density_round_trip_grid():
    p = params(m=2, sigma=1.0)
    scheme = DiversityScheme.mrc(2)
    for lam in np.logspace(-6, -1, 12):
        target = isolation_probability(p, scheme, lam)
        back = min_density_for_isolation(p, scheme, target)
        assert back == pytest.approx(lam, rel=1e-10)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
def test_min_density_domain(bad):
    with pytest.raises(ValueError):
        min_density_for_isolation(params(), DiversityScheme.no_diversity(), bad)


def test_min_density_overflow_is_numerical():
    # E[R^2] of 2e-320 (subnormal) and of exactly 0: no finite density reaches the target.
    for psi, alpha in ((1e163, 1.0), (1e300, 0.5)):
        with pytest.raises(OverflowError, match="minimum node density overflows"):
            min_density_for_isolation(
                params(psi=psi, alpha=alpha), DiversityScheme.no_diversity(), 0.5
            )


def test_density_spread_tradeoff():
    # The required density versus the shadowing spread (the figure-4 sweep).
    p = params(m=4)
    scheme = DiversityScheme.no_diversity()
    grid = [0.0, 1.0, 2.0, 3.0, 4.0]
    lams = [min_density_for_isolation(replace(p, sigma=s), scheme, 0.01) for s in grid]
    lam0 = min_density_for_isolation(p, scheme, 0.01)
    assert lams[0] == lam0
    assert all(b < a for a, b in zip(lams, lams[1:]))
    for sigma, lam in zip(grid, lams):
        assert lam / lam0 == pytest.approx(math.exp(-2 * sigma**2 / p.alpha**2), rel=1e-12)
    # alpha = 4, sigma = 4 forces the ratio e^-2.
    assert lams[-1] / lam0 == pytest.approx(math.exp(-2.0), rel=1e-12)
