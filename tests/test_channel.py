import math

import numpy as np
import pytest
from scipy import integrate

from nodeiso.channel import (
    ChannelParams,
    DiversityScheme,
    build_beta_table,
    db_to_linear,
    make_success_fn,
    sigma_from_db,
    success_prob_mrc,
    success_prob_sc,
)
from nodeiso.specialfn import truncated_exp_series
from reference import occupancy_rows_fraction, params


# ============================================================================
#  Value types
# ============================================================================


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(ptx=0.0, w=0.01, k=10, psi=10, alpha=4)
    with pytest.raises(ValueError):
        ChannelParams(ptx=1, w=0.01, k=10, psi=10, alpha=4, sigma=-1.0)
    with pytest.raises(ValueError):
        ChannelParams(ptx=1, w=0.01, k=10, psi=10, alpha=4, m=0)
    with pytest.raises(ValueError):
        ChannelParams(ptx=1, w=0.01, k=10, psi=10, alpha=4, m=0.49)
    # m is real; an integral value is stored as int, so integer routes keep their bits.
    assert ChannelParams(ptx=1, w=0.01, k=10, psi=10, alpha=4, m=1.5).m == 1.5
    m = ChannelParams(ptx=1, w=0.01, k=10, psi=10, alpha=4, m=2.0).m
    assert m == 2 and type(m) is int
    base = dict(ptx=1.0, w=0.01, k=10.0, psi=10.0, alpha=4.0, sigma=0.0, m=1.0)
    for name in base:
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=name):
                ChannelParams(**{**base, name: bad})


def test_theta_and_mean_snr():
    # theta = m psi w/(k ptx) is m e^-ln_margin; the mean SNR comes from ln_budget.
    p = params(m=2)
    assert p.m * math.exp(-p.ln_margin) == pytest.approx(2 * 10 * 0.01 / (10 * 1), rel=1e-15)
    assert p.mean_snr(1.0) == pytest.approx(1000.0, rel=1e-15)
    assert p.mean_snr(10.0) == pytest.approx(0.1, rel=1e-12)
    rho = np.array([1.0, 10.0])
    assert p.mean_snr(rho).tolist() == [p.mean_snr(1.0), p.mean_snr(10.0)]


def test_mean_snr_where_the_budget_product_leaves_the_float_range():
    # k ptx is inf as a float product and 0 in the second channel; the mean
    # SNR is formed from ln(k ptx/w) and stays finite, or is inf only where it
    # is itself beyond the float range.
    for k, ptx, w, at_ten in ((1e200, 1e200, 1e100, 1e296), (1e-200, 1e-200, 1e-300, 1e-104)):
        # exp(ln y) is exact to about |ln y| ulps: 681 here.
        assert params(k=k, ptx=ptx, w=w).mean_snr(10.0) == pytest.approx(at_ten, rel=1e-12)
    assert params(k=1e200, ptx=1e100, w=1e-8).mean_snr(np.array([1e-3])).tolist() == [math.inf]


def test_diversity_scheme_validation():
    assert DiversityScheme.no_diversity().branches == 1
    assert DiversityScheme.mrc(4).branches == 4
    with pytest.raises(ValueError):
        DiversityScheme("none", 2)
    with pytest.raises(ValueError):
        DiversityScheme("mrc", 0)
    with pytest.raises(ValueError):
        DiversityScheme("rake", 2)
    # A swept M reaches the scheme unchecked, so it refuses every non-integer.
    for bad in (1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="branches must be a positive integer"):
            DiversityScheme("mrc", bad)


def test_single_branch_diversity_folds_to_none():
    none = DiversityScheme.no_diversity()
    assert DiversityScheme.mrc(1) == DiversityScheme.sc(1) == none
    assert hash(DiversityScheme.mrc(1)) == hash(DiversityScheme.sc(1)) == hash(none)
    assert DiversityScheme("sc", 1.0).kind == "none"
    assert DiversityScheme.mrc(2).kind == "mrc"
    assert DiversityScheme.sc(2).kind == "sc"


def test_db_helpers():
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
    assert db_to_linear(0.0) == 1.0
    assert sigma_from_db(8.685889638065035) == pytest.approx(2.0, rel=1e-12)


# ============================================================================
#  Single branch
# ============================================================================


def test_success_nakagami_threshold_equals_mean():
    assert success_prob_mrc(10.0, 1, params(m=1)) == pytest.approx(math.exp(-1), rel=1e-12)


def test_success_nakagami_high_snr_limit():
    for m in (1, 2, 4):
        assert success_prob_mrc(1e30, 1, params(m=m)) == pytest.approx(1.0, abs=1e-12)


def test_success_nakagami_derived_m2():
    # Two independent oracles: the incomplete-gamma ratio and adaptive
    # integration of the Gamma SNR density above the threshold.
    p = params(m=2)
    y = 2 * p.psi
    value = success_prob_mrc(y, 1, p)
    assert value == pytest.approx(0.7357588823428847, rel=1e-12)
    assert abs(value - truncated_exp_series(1.0, 2)) <= 1e-14

    def snr_pdf(x):
        m = 2
        return (m / y) ** m * x ** (m - 1) * math.exp(-m * x / y) / math.gamma(m)

    oracle, _ = integrate.quad(snr_pdf, p.psi, np.inf)
    assert value == pytest.approx(oracle, rel=1e-9)


def test_success_nakagami_equals_gamma_ratio_everywhere():
    for m in (1, 2, 3, 5):
        p = params(m=m)
        for y in np.logspace(-2, 4, 25):
            assert abs(
                success_prob_mrc(y, 1, p) - truncated_exp_series(m * p.psi / y, m)
            ) <= 1e-14


def test_success_domain_errors():
    with pytest.raises(ValueError):
        success_prob_mrc(0.0, 1, params())
    with pytest.raises(ValueError):
        success_prob_mrc(-1.0, 2, params())
    with pytest.raises(ValueError):
        success_prob_mrc(1.0, 0, params())


# ============================================================================
#  MRC
# ============================================================================


def test_mrc_single_branch_reduction():
    p = params(m=3)
    single = make_success_fn(p, DiversityScheme.no_diversity())
    for y in (0.5, 5.0, 50.0):
        assert success_prob_mrc(y, 1, p) == truncated_exp_series(3 * (p.psi / y), 3)
        assert single(y) == success_prob_mrc(y, 1, p)


def test_mrc_two_branch_rayleigh_monte_carlo():
    # Oracle: 10^7 sums of two unit-mean exponential branch SNRs.
    p = params(m=1)
    value = success_prob_mrc(p.psi, 2, p)
    assert value == pytest.approx(0.7357588823428847, rel=1e-12)
    rng = np.random.default_rng(52_001)
    draws = rng.exponential(p.psi, size=(10_000_000, 2)).sum(axis=1)
    hit = float(np.mean(draws >= p.psi))
    se = math.sqrt(value * (1 - value) / draws.shape[0])
    assert abs(hit - value) <= 4 * se


def test_mrc_two_branch_nakagami2_monte_carlo():
    # Oracle: 10^7 sums of two Gamma(2, psi/2) branch SNRs.
    p = params(m=2)
    value = success_prob_mrc(p.psi, 2, p)
    assert value == pytest.approx(0.857123460498547, rel=1e-12)
    rng = np.random.default_rng(52_002)
    draws = rng.gamma(2.0, p.psi / 2.0, size=(10_000_000, 2)).sum(axis=1)
    hit = float(np.mean(draws >= p.psi))
    se = math.sqrt(value * (1 - value) / draws.shape[0])
    assert abs(hit - value) <= 4 * se


def test_ln_budget_is_the_float_log_while_the_budget_is_a_normal_float():
    p = params()
    assert p.ln_budget == math.log(p.k * p.ptx / p.w)
    # k ptx as a float product is 0, subnormal and inf; then k ptx/w is inf.
    for k, ptx, w in ((1e-200, 1e-200, 1.0), (1e-160, 1e-160, 1.0), (1e200, 1e200, 1.0),
                      (1e200, 1e100, 1e-100)):
        exact = math.log(k) + math.log(ptx) - math.log(w)
        assert params(k=k, ptx=ptx, w=w).ln_budget == pytest.approx(exact, rel=1e-15)


# ============================================================================
#  Coefficient table
# ============================================================================


def test_beta_base_cases():
    # No ball, or fewer than m balls in all, leaves every bin below m.
    table = build_beta_table(4, 5)
    assert table.rows[0] == (1.0,)
    for n in range(1, table.diversity_order + 1):
        assert table.rows[n][:4] == pytest.approx((1.0,) * 4, rel=1e-15)
    assert table.rows[1] == (1.0,) * 4


def test_beta_m1_rows_are_unity():
    table = build_beta_table(1, 4)
    assert table.rows == ((1.0,),) * 5


def test_beta_m2_square():
    assert build_beta_table(2, 2).rows[2] == (1.0, 1.0, 0.5)


def test_beta_m3_square():
    row = build_beta_table(3, 2).rows[2]
    assert row == pytest.approx((1.0, 1.0, 1.0, 0.75, 0.375), rel=1e-15)


def test_beta_out_of_range_is_zero():
    # Coefficients beyond a row are zero by omission: row n stops at x^(n(m-1)),
    # and there is no row past the diversity order.
    table = build_beta_table(2, 3)
    assert len(table.rows[2]) == 3
    assert len(table.rows) == 4


def _assert_rows_match_exact(m, order, rel):
    table = build_beta_table(m, order)
    oracle = occupancy_rows_fraction(m, order)
    for n in range(order + 1):
        assert len(table.rows[n]) == n * (m - 1) + 1
        for k, exact in enumerate(oracle[n]):
            got = table.rows[n][k]
            assert abs(got - float(exact)) <= rel * float(exact)


@pytest.mark.parametrize("m, order", [(6, 6), (40, 4), (171, 2)])
def test_beta_table_matches_exact_occupancy_on_long_rows(m, order):
    # beta_{h,l} itself underflows from l of a few hundred on; its occupancy
    # form stays in [0, 1] and keeps its digits along the whole row.
    _assert_rows_match_exact(m, order, 1e-13)


def test_beta_table_builds_past_the_old_factorial_overflow():
    # Dividing by (m-1)! once overflowed from m = 172 on; occupancy rows need
    # no factorial, so these (m, M) build with every entry a probability, up
    # to the rounding of the sums behind it.
    _assert_rows_match_exact(200, 2, 1e-13)
    for m, M in ((172, 1), (172, 4), (200, 16)):
        table = build_beta_table(m, M)
        for h in range(M + 1):
            row = table.rows[h]
            assert len(row) == h * (m - 1) + 1
            assert all(0.0 < c <= 1.0 + 1e-12 for c in row)
            assert row[:m] == pytest.approx((1.0,) * min(m, len(row)), rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
def test_beta_matches_polynomial_convolution(m, order):
    _assert_rows_match_exact(m, order, 1e-12)


# ============================================================================
#  SC
# ============================================================================


def test_sc_single_branch_reduction():
    p = params(m=3)
    table = build_beta_table(3, 1)
    for y in (0.5, 5.0, 50.0):
        assert success_prob_sc(y, 1, p, table) == pytest.approx(
            success_prob_mrc(y, 1, p), rel=1e-13
        )


def test_sc_two_branch_rayleigh():
    p = params(m=1)
    value = success_prob_sc(p.psi, 2, p, build_beta_table(1, 2))
    assert value == pytest.approx(1 - (1 - math.exp(-1)) ** 2, rel=1e-12)
    assert value == pytest.approx(0.600423599106272, rel=1e-12)


def test_sc_complement_power_identity():
    # Strongest check on the coefficient machinery.
    for m in (1, 2, 3, 4):
        p = params(m=m)
        for M in (1, 2, 3, 4, 6):
            table = build_beta_table(m, M)
            for y in np.logspace(-1, 3, 40) * p.psi:
                direct = success_prob_sc(y, M, p, table)
                single = success_prob_mrc(y, 1, p)
                assert abs(direct - (1 - (1 - single) ** M)) <= 1e-10


def test_sc_three_branch_example():
    p = params(m=2)
    y = 2 * p.psi
    value = success_prob_sc(y, 3, p, build_beta_table(2, 3))
    single = success_prob_mrc(y, 1, p)
    assert value == pytest.approx(1 - (1 - single) ** 3, rel=1e-10)


def test_sc_expansion_matches_the_bound_law():
    # m=8, M=16 sums a degree-112 polynomial in the Poisson weights, whose
    # log-space form must hold from x = 1e-7 to beyond 1e9.
    ys = [float(v) for v in np.logspace(-8, 8, 161)] + [80.0 / 500.0, 80.0 / 650.0]
    for m, M in ((2, 4), (3, 2), (8, 16)):
        p = params(m=m)
        table = build_beta_table(m, M)
        law = make_success_fn(p, DiversityScheme.sc(M))
        for y in ys:
            assert abs(success_prob_sc(y, M, p, table) - law(y)) <= 1e-10
        for y in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                success_prob_sc(y, M, p, table)


def test_sc_expansion_at_the_ends_of_the_snr_range():
    # x = m psi/y overflows at a subnormal y, and is 0 at y = inf.
    for m, M in ((2, 4), (8, 16)):
        p = params(m=m)
        table = build_beta_table(m, M)
        for y in (5e-324, 1e-320):
            assert success_prob_sc(y, M, p, table) == 0.0
        assert success_prob_sc(math.inf, M, p, table) == 1.0


def test_sc_law_matches_beta_expansion():
    # make_success_fn's SC law is 1 - (1 - Q)^M, not the coefficient-table
    # sum; the two agree to rounding wherever the sum keeps its digits.
    ys = np.logspace(-1, 3, 60) * 10.0
    for m in (1, 2, 3, 4):
        p = params(m=m)
        for M in (2, 3, 4, 6):
            law = make_success_fn(p, DiversityScheme.sc(M))
            table = build_beta_table(m, M)
            for y in ys:
                assert abs(law(y) - success_prob_sc(y, M, p, table)) <= 1e-12


def test_success_laws_take_arrays():
    # An array call gives, element by element, what the scalar call gives.
    ys = np.logspace(-8, 8, 97).reshape(1, 97) * np.array([[1.0], [3.0]])
    for m in (1, 2, 8):
        p = params(m=m)
        for scheme in (DiversityScheme.no_diversity(), DiversityScheme.mrc(3),
                       DiversityScheme.sc(4)):
            law = make_success_fn(p, scheme)
            values = law(ys)
            assert values.shape == ys.shape
            scalars = np.array([[law(float(y)) for y in row] for row in ys])
            assert isinstance(law(float(ys[0, 0])), float)
            np.testing.assert_allclose(values, scalars, rtol=4 * np.finfo(float).eps, atol=0)
            assert np.all((values >= 0.0) & (values <= 1.0))
            with pytest.raises(ValueError, match="average SNR must be positive"):
                law(np.array([1.0, 0.0]))


def test_sc_requires_matching_table():
    p = params(m=2)
    with pytest.raises(ValueError):
        success_prob_sc(10.0, 2, p, build_beta_table(3, 2))
    with pytest.raises(ValueError):
        success_prob_sc(10.0, 4, p, build_beta_table(2, 2))


# ============================================================================
#  Shared properties
# ============================================================================


def test_success_monotone_in_y_and_bounded():
    ys = np.logspace(-3, 14, 60)
    for m in (1, 2, 4):
        p = params(m=m)
        table = build_beta_table(m, 3)
        for fn in (
            lambda y: success_prob_mrc(y, 1, p),
            lambda y: success_prob_mrc(y, 3, p),
            lambda y: success_prob_sc(y, 3, p, table),
        ):
            vals = [fn(y) for y in ys]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            assert vals[0] < 1e-6
            assert vals[-1] > 1 - 1e-10


def test_mrc_dominates_sc():
    for m in (1, 2, 4):
        p = params(m=m)
        for M in (2, 3, 4):
            table = build_beta_table(m, M)
            for y in np.logspace(-1, 3, 30) * p.psi:
                assert success_prob_mrc(y, M, p) >= success_prob_sc(y, M, p, table) - 1e-12

