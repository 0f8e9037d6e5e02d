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
from reference import beta_rows_fraction, params


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
        ChannelParams(ptx=1, w=0.01, k=10, psi=10, alpha=4, m=1.5)
    base = dict(ptx=1.0, w=0.01, k=10.0, psi=10.0, alpha=4.0, sigma=0.0)
    for name in base:
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=name):
                ChannelParams(**{**base, name: bad})


def test_theta_and_mean_snr():
    p = params(m=2)
    assert p.theta == pytest.approx(2 * 10 * 0.01 / (10 * 1), rel=1e-15)
    assert p.mean_snr(1.0) == pytest.approx(1000.0, rel=1e-15)
    assert p.mean_snr(10.0) == pytest.approx(0.1, rel=1e-12)


def test_diversity_scheme_validation():
    assert DiversityScheme.no_diversity().branches == 1
    assert DiversityScheme.mrc(4).branches == 4
    with pytest.raises(ValueError):
        DiversityScheme("none", 2)
    with pytest.raises(ValueError):
        DiversityScheme("mrc", 0)
    with pytest.raises(ValueError):
        DiversityScheme("rake", 2)


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
        assert success_prob_mrc(y, 1, p) == truncated_exp_series(3 * p.psi / y, 3)
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


# ============================================================================
#  Coefficient table
# ============================================================================


def test_beta_base_cases():
    table = build_beta_table(4, 5)
    assert table.rows[0][0] == 1.0
    for n in range(table.diversity_order + 1):
        assert table.rows[n][0] == 1.0
    for k in range(4):
        assert table.rows[1][k] == pytest.approx(1.0 / math.factorial(k), rel=1e-15)


def test_beta_m1_rows_are_unity():
    table = build_beta_table(1, 4)
    assert table.rows == ((1.0,),) * 5


def test_beta_m2_square():
    assert build_beta_table(2, 2).rows[2] == (1.0, 2.0, 1.0)


def test_beta_m3_square():
    row = build_beta_table(3, 2).rows[2]
    assert row == pytest.approx((1.0, 2.0, 2.0, 1.0, 0.25), rel=1e-15)


def test_beta_out_of_range_is_zero():
    # Coefficients beyond a row are zero by omission: row n stops at x^(n(m-1)),
    # and there is no row past the diversity order.
    table = build_beta_table(2, 3)
    assert len(table.rows[2]) == 3
    assert len(table.rows) == 4


def test_beta_table_overflow_names_m_and_M():
    # 170! is the largest factorial a float holds, so m = 171 is the last
    # severity whose table exists; beyond it the build names m and M.
    assert build_beta_table(171, 2).rows[1][170] > 0.0
    for m, M in ((172, 1), (172, 4), (200, 2), (200, 16)):
        with pytest.raises(OverflowError) as info:
            build_beta_table(m, M)
        assert str(info.value) == (
            f"coefficient table for (m={m}, M={M}) needs {m - 1}!, which exceeds the float range"
        )
        assert str(info.value.__cause__) == "int too large to convert to float"


@pytest.mark.parametrize("m, order", [(6, 6), (40, 4), (171, 2)])
def test_beta_table_divides_by_each_factorial_with_the_same_bits(m, order):
    # The reference divides by the exact integer k!, which Python rounds to a
    # float once: the closed form's bytes depend on every coefficient's bits.
    rows = [(1.0,)]
    for n in range(1, order + 1):
        row = []
        for k in range(n * (m - 1) + 1):
            acc = 0.0
            for i in range(max(0, k - m + 1), min(k, (n - 1) * (m - 1)) + 1):
                acc += rows[n - 1][i] / math.factorial(k - i)
            row.append(acc)
        rows.append(tuple(row))
    assert build_beta_table(m, order).rows == tuple(rows)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
def test_beta_matches_polynomial_convolution(m, order):
    table = build_beta_table(m, order)
    oracle = beta_rows_fraction(m, order)
    for n in range(order + 1):
        assert len(table.rows[n]) == n * (m - 1) + 1
        for k, exact in enumerate(oracle[n]):
            got = table.rows[n][k]
            if exact == 0:
                assert got == 0.0
            else:
                assert abs(got - float(exact)) <= 1e-12 * float(exact)


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


def _sc_reference(y, M, p, beta, branches_hit):
    """The selection-combining sum as a plain loop, one term at a time."""
    m = p.m
    x = m * p.psi / y
    terms = []
    top = M * (m - 1)
    if x <= 700.0 and top * max(math.log(x), 0.0) < 680.0:
        branches_hit.add("direct")
        for n in range(1, M + 1):
            row = beta.rows[n]
            poly = 0.0
            xk = 1.0
            for k in range(len(row)):
                poly += row[k] * xk
                xk *= x
            terms.append(-((-1.0) ** n) * math.comb(M, n) * math.exp(-n * x) * poly)
    else:
        branches_hit.add("x > 700" if x > 700.0 else "long polynomial")
        lx = math.log(x)
        for n in range(1, M + 1):
            row = beta.rows[n]
            for k in range(len(row)):
                if row[k] == 0.0:
                    continue
                mag = math.log(math.comb(M, n)) + math.log(row[k]) + k * lx - n * x
                terms.append(-((-1.0) ** n) * math.exp(mag))
    return min(max(math.fsum(terms), 0.0), 1.0)


def test_sc_bound_law_is_bit_identical():
    # m=8, M=16 has a degree-112 polynomial, so 434 < x <= 700 takes the
    # log-space branch through the polynomial-length test alone.
    ys = [float(v) for v in np.logspace(-8, 8, 161)] + [80.0 / 500.0, 80.0 / 650.0]
    branches_hit = set()
    for m, M in ((2, 4), (3, 2), (8, 16)):
        p = params(m=m)
        table = build_beta_table(m, M)
        for y in ys:
            expected = _sc_reference(y, M, p, table, branches_hit)
            assert success_prob_sc(y, M, p, table) == expected
        for y in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                success_prob_sc(y, M, p, table)
    assert branches_hit == {"direct", "x > 700", "long polynomial"}


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

