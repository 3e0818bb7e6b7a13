import math
from datetime import date

import numpy as np
import pytest
from scipy import special, stats

from firstlook.contracts import SvParams
from firstlook.diagnostics import (
    PriceSeries,
    _median,
    acf,
    chi2_upper,
    estimate_gbm,
    estimate_sv,
    fitness_comparison,
    gbm_test,
    l2_fitness,
    ljung_box,
    log_ratios,
    normal_quantile,
    realized_vol,
    shapiro_wilk,
)
from firstlook.market_sim import synthetic_market
from firstlook.montecarlo import Scheme, sample_paths

# 20-point sample with R-computed Shapiro-Wilk reference (fBasics / shapiro.test)
R_SAMPLE = [
    -0.1184, -1.3403, 0.0063, -0.612, -0.3869, -0.2313, -2.8485, -0.2167,
    0.4153, 1.8492, -0.3706, 0.9726, -0.1501, -0.0337, -1.4423, 1.2489,
    0.9182, -0.2331, -0.6182, 0.183,
]
R_SHAPIRO_W = 0.939984787255526
R_SHAPIRO_P = 0.239621898000460

# frozen 60-point noise sample and its AR-filtered variant; reference
# a doubling series to 2^39, whose log ratios are all exactly log 2
DOUBLING_RATIOS = log_ratios(PriceSeries.from_prices([2.0**i for i in range(40)]))
# log 2 with noise in the last bits: six values spread over 8 ulps
NEAR_CONSTANT = math.log(2.0) + np.spacing(math.log(2.0)) * np.array([0.0, 3.0, 1.0, 8.0, 2.0, 5.0])

# Ljung-Box and ACF values computed with statsmodels 0.14
NOISE_60 = [
    0.486696, -1.460126, -0.146841, -1.097741, -0.432333, -0.420599, -1.192474,
    -0.655528, -0.286607, 2.837750, 0.649741, -1.917656, -0.270493, 2.174121,
    -0.318797, -1.186750, 1.002934, 0.863374, 1.100549, -0.088195, 0.705072,
    0.106495, 0.910899, -1.095446, 1.162306, 0.484631, 0.293890, -0.230115,
    0.182416, 1.001260, 0.124115, -0.663757, 0.617247, -0.109420, 1.388644,
    -0.326922, -1.397400, -0.345348, 0.679478, -0.079291, 0.816405, -0.383040,
    0.734070, -0.445016, 0.891064, -0.102603, 2.442750, -0.445458, 2.033621,
    -1.912761, -0.364416, 0.019496, -0.846540, 0.990005, 0.938539, 1.990519,
    1.780362, 0.273501, -1.669734, -0.815112,
]
AR_60 = [
    0.486696, -1.216778, -0.755230, -1.475356, -1.170011, -1.005604, -1.695276,
    -1.503166, -1.038190, 2.318655, 1.809068, -1.013122, -0.777054, 1.785594,
    0.574000, -0.899750, 0.553059, 1.139904, 1.670501, 0.747055, 1.078600,
    0.645795, 1.233796, -0.478548, 0.923032, 0.946147, 0.766964, 0.153367,
    0.259099, 1.130810, 0.689520, -0.318997, 0.457748, 0.119454, 1.448371,
    0.397264, -1.198768, -0.944732, 0.207112, 0.024265, 0.828537, 0.031229,
    0.749684, -0.070174, 0.855977, 0.325386, 2.605443, 0.857263, 2.462253,
    -0.681635, -0.705233, -0.333121, -1.013100, 0.483455, 1.180266, 2.580652,
    3.070688, 1.808845, -0.765311, -1.197768,
]


MARKET_SV = SvParams(spot_M0=1.5, sigma0=0.5, kappa=3.0, theta=0.6, delta=0.3)


def market_series(seed):
    """The spot and 365 daily average CPMs of a seeded synthetic market."""
    days = synthetic_market(MARKET_SV, 0.2, 365, 8000, seed)
    return PriceSeries.from_prices([MARKET_SV.spot_M0] + [d.avg_cpm for d in days])


def gbm_series(sigma=0.5, mu=0.1, n=31, seed=0, spot=2.0):
    rng = np.random.default_rng(seed)
    dt = 1 / 365
    increments = (mu - 0.5 * sigma**2) * dt + sigma * math.sqrt(dt) * rng.standard_normal(n - 1)
    prices = spot * np.exp(np.concatenate([[0.0], np.cumsum(increments)]))
    return PriceSeries.from_prices(prices)


class TestPriceSeries:
    def test_dt_for_daily_series(self):
        s = PriceSeries.from_prices([1.0, 1.1, 1.2])
        assert s.dt == pytest.approx(1 / 365)

    def test_dt_is_mean_gap(self):
        # gaps of 1, 2, 1 and 2 days: the mean gap over the year, as one float
        days = (0, 1, 3, 4, 6)
        dates = tuple(date(2013, 1, 1 + d) for d in days)
        s = PriceSeries(dates=dates, prices=(1.0, 1.1, 1.2, 1.1, 1.0))
        assert s.dt == (6 / 4) / 365

    def test_single_observation_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            PriceSeries.from_prices([1.0])

    def test_nonpositive_price_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            PriceSeries.from_prices([1.0, 0.0, 1.2])

    def test_non_monotone_dates_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            PriceSeries(dates=(date(2013, 1, 2), date(2013, 1, 1)), prices=(1.0, 1.1))

    def test_irregular_spacing_rejected(self):
        dates = (date(2013, 1, 1), date(2013, 1, 2), date(2013, 1, 9))
        with pytest.raises(ValueError, match="uniform"):
            PriceSeries(dates=dates, prices=(1.0, 1.1, 1.2))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("date,price\n2013-01-08,1.5\n2013-01-09,1.6\n2013-01-10,1.55\n")
        s = PriceSeries.from_csv(path)
        assert s.prices == (1.5, 1.6, 1.55)
        assert s.dates[0] == date(2013, 1, 8)

    def test_csv_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,price\n2013-01-08,1.5\n2013-01-09,oops\n")
        with pytest.raises(ValueError, match="line 3"):
            PriceSeries.from_csv(path)

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("day,cpm\n2013-01-08,1.5\n")
        with pytest.raises(ValueError, match="header"):
            PriceSeries.from_csv(path)


class TestLogRatios:
    def test_constant_series_all_zero(self):
        s = PriceSeries.from_prices([2.0, 2.0, 2.0, 2.0])
        assert np.allclose(log_ratios(s), 0.0)

    def test_geometric_series_constant_ratio(self):
        s = PriceSeries.from_prices([1.0, 1.1, 1.21, 1.331])
        assert np.allclose(log_ratios(s), math.log(1.1))

    def test_doubling_series_ratios_exact(self):
        # 2^39 has log 27.03, whose rounding a difference of log prices kept
        assert np.all(DOUBLING_RATIOS == math.log(2.0))

    def test_length(self):
        s = gbm_series(n=31)
        assert log_ratios(s).size == 30

    def test_sample_vol_near_generator_vol(self):
        spread = np.std(log_ratios(gbm_series(sigma=0.5, n=31, seed=3)), ddof=1)
        target = 0.5 * math.sqrt(1 / 365)
        assert abs(spread - target) / target < 0.30


SW_SIZES = [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 50, 365, 2000, 5000]
SW_SAMPLES = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "exponential": lambda rng, n: rng.exponential(size=n),
    "laplace": lambda rng, n: rng.laplace(size=n),
    "tied": lambda rng, n: np.round(rng.standard_normal(n), 1),
    "offset": lambda rng, n: 1e9 + rng.standard_normal(n),
}


class TestShapiroWilk:
    def test_r_reference_vector(self):
        # scipy.stats.shapiro sits 1.06e-7 (W) and 1.05e-6 (p) from these values
        w, p = shapiro_wilk(R_SAMPLE)
        assert w == pytest.approx(R_SHAPIRO_W, abs=5e-6)
        assert p == pytest.approx(R_SHAPIRO_P, abs=5e-6)

    @pytest.mark.parametrize("n", SW_SIZES)
    @pytest.mark.parametrize("kind", SW_SAMPLES)
    def test_matches_scipy(self, kind, n):
        x = SW_SAMPLES[kind](np.random.default_rng(n), n)
        w, p = shapiro_wilk(x)
        w_ref, p_ref = stats.shapiro(x)
        assert w == pytest.approx(w_ref, rel=1e-8)
        assert p == pytest.approx(p_ref, rel=1e-5)

    @pytest.mark.parametrize("n", [12, 50, 365, 5000])
    def test_matches_scipy_on_cauchy_samples(self, n):
        # scipy takes its normal scores from AS 111 (relative error up to
        # 1.4e-8), not ndtri; the gap that leaves in W grows with the weight
        # of the extreme order statistics, to about 2.3e-7 on Cauchy samples
        x = np.random.default_rng(n).standard_cauchy(n)
        w, p = shapiro_wilk(x)
        w_ref, p_ref = stats.shapiro(x)
        assert w == pytest.approx(w_ref, rel=1e-6)
        assert p == pytest.approx(p_ref, rel=1e-5)

    @pytest.mark.parametrize(
        "sample",
        [[0.0, 1.0, 2.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 1.0, 2.0, 3.0],
         # on the n = 4 coefficients' own shape, so that 1 - W rounds to 0
         [-1.2366681326153, -0.2993069104656671, 0.2993069104656671, 1.2366681326153],
         [0.0] * 10 + [1.0], list(np.arange(30.0) ** 1.5), list(2.0 ** np.arange(40)),
         list(np.round(np.random.default_rng(5).standard_normal(5000), 2))],
        ids=["n3-even", "n3-low-tie", "n3-high-tie", "n4-even", "n4-exact-fit", "n11-outlier",
             "powers", "geometric", "n5000-rounded"],
    )
    def test_p_in_unit_interval(self, sample):
        w, p = shapiro_wilk(sample)
        assert 0.0 < w <= 1.0
        assert 0.0 <= p <= 1.0

    def test_skewed_sample_rejected(self):
        rng = np.random.default_rng(1)
        _, p = shapiro_wilk(rng.exponential(size=50))
        assert p < 0.01

    def test_constant_sample_error(self):
        with pytest.raises(ValueError, match="constant"):
            shapiro_wilk([1.0] * 10)

    def test_sample_constant_to_rounding_error(self):
        with pytest.raises(ValueError, match="degenerate input"):
            shapiro_wilk(NEAR_CONSTANT)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_error(self, bad):
        with pytest.raises(ValueError, match="finite"):
            shapiro_wilk([0.1, -0.4, 1.2, bad, 0.3])

    @pytest.mark.parametrize("n", [2, 5001])
    def test_size_limits(self, n):
        with pytest.raises(ValueError, match="sample size"):
            shapiro_wilk(np.linspace(0, 1, n))

    @pytest.mark.parametrize("scale,shift", [(2.0, 5.0), (0.001, -3.0), (1e6, 0.0)])
    def test_affine_invariance(self, scale, shift):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(40)
        w_base, _ = shapiro_wilk(x)
        w_scaled, _ = shapiro_wilk(scale * x + shift)
        assert abs(w_scaled - w_base) < 1e-10


class TestLjungBox:
    def test_frozen_noise_values(self):
        q, p = ljung_box(NOISE_60, 5)
        assert q == pytest.approx(4.330720629443, rel=1e-9)
        assert p == pytest.approx(0.502846625865, rel=1e-9)
        q10, p10 = ljung_box(NOISE_60, 10)
        assert q10 == pytest.approx(9.207291857822, rel=1e-9)
        assert p10 == pytest.approx(0.512550450900, rel=1e-9)

    def test_frozen_ar_values(self):
        q, p = ljung_box(AR_60, 5)
        assert q == pytest.approx(11.976206783807, rel=1e-9)
        assert p == pytest.approx(0.035115261002, rel=1e-9)

    def test_strong_ar_rejected(self):
        rng = np.random.default_rng(2)
        eps = rng.standard_normal(300)
        x = np.empty(300)
        x[0] = eps[0]
        for i in range(1, 300):
            x[i] = 0.8 * x[i - 1] + eps[i]
        _, p = ljung_box(x, 10)
        assert p < 0.01

    def test_alternating_signs_rejected(self):
        x = [1.0 if i % 2 == 0 else -1.0 for i in range(100)]
        _, p = ljung_box(x, 5)
        assert p < 1e-10

    def test_scale_invariance(self):
        q1, p1 = ljung_box(NOISE_60, 5)
        q2, p2 = ljung_box([7.3 * v for v in NOISE_60], 5)
        assert q1 == pytest.approx(q2, rel=1e-10)
        assert p1 == pytest.approx(p2, rel=1e-10)

    def test_p_value_matches_chi2_sf(self):
        # p is summed in closed form, not by cephes, so it can differ from
        # scipy in the last bits; below 1e-300 both are rounding noise
        rng = np.random.default_rng(20140103)
        for case in range(500):
            n = int(rng.integers(10, 400))
            lags = int(rng.integers(1, (n + 1) // 2))
            eps = rng.standard_normal(n)
            x = eps if case % 2 else np.cumsum(eps)  # half of them strongly autocorrelated
            q, p = ljung_box(x, lags)
            expected = float(stats.chi2.sf(q, lags))
            if expected >= 1e-300:
                assert p == pytest.approx(expected, rel=1e-12, abs=0), (case, lags, q)
            else:
                assert p <= 1e-300, (case, lags, q)

    def test_lag_bounds(self):
        with pytest.raises(ValueError, match="lags"):
            ljung_box(NOISE_60, 30)
        with pytest.raises(ValueError, match="lags"):
            ljung_box(NOISE_60, 0)

    def test_constant_sample_error(self):
        with pytest.raises(ValueError, match="constant"):
            ljung_box([2.0] * 40, 5)

    @pytest.mark.parametrize("sample", ["doubling", "near-constant"])
    def test_sample_constant_to_rounding_error(self, sample):
        # as differences of log prices, the doubling series' ratios spread over
        # 32 ulps, from which the test read a lag-1 correlation of -0.92, p = 1e-28
        x = DOUBLING_RATIOS if sample == "doubling" else np.resize(NEAR_CONSTANT, 40)
        with pytest.raises(ValueError, match="degenerate input: sample is constant"):
            ljung_box(x, 5)


class TestNormalQuantile:
    def test_matches_ndtri(self):
        # the stdlib and cephes each sit a few ulps from the true quantile (5
        # and 3 where they differ most, by mpmath); a dense grid finds gaps of 7
        p = np.concatenate([
            np.logspace(-300, -1, 2000),
            np.linspace(0.001, 0.999, 2001),
            1.0 - np.logspace(-1, -16, 500),
            [2.0**-53, 1.0 - 2.0**-53],
        ])
        expected = special.ndtri(p)
        gap = np.abs(normal_quantile(p) - expected)
        assert (gap <= 8 * np.spacing(np.abs(expected))).all()

    def test_median_is_zero(self):
        assert normal_quantile([0.5])[0] == 0.0

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1])
    def test_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError):
            normal_quantile([p])


class TestChi2Upper:
    # every df to 100, then every 37th to 2500; x from the far left to the
    # far right tail of each
    DFS = [*range(1, 101), *range(101, 2501, 37), 2500]

    @staticmethod
    def x_grid(df):
        return [df * f for f in (0.01, 0.3, 0.8, 1.0, 1.3, 2.0, 4.0)] + [df + 30 * math.sqrt(2 * df)]

    def test_matches_chdtrc(self):
        # both sit up to about 1.6e-12 from mpmath at df 2268, x 4536
        for df in self.DFS:
            for x in self.x_grid(df):
                expected = float(special.chdtrc(df, x))
                got = chi2_upper(df, x)
                if expected >= 1e-300:
                    assert got == pytest.approx(expected, rel=5e-12, abs=0), (df, x)
                else:
                    assert got <= 1e-300, (df, x)

    @pytest.mark.parametrize("x", [1e-300, 1e-9, 0.3, 1.0, 7.5, 60.0, 700.0, 1400.0, 1500.0])
    def test_closed_forms_at_one_and_two_df(self, x):
        assert chi2_upper(1, x) == math.erfc(math.sqrt(x / 2))
        assert chi2_upper(2, x) == math.exp(-x / 2)

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 9, 10, 51, 400])
    def test_in_unit_interval_and_falling(self, df):
        x = np.linspace(0.0, 8.0 * df + 100.0, 3001)
        p = np.array([chi2_upper(df, v) for v in x])
        assert p[0] == 1.0
        assert ((p >= 0.0) & (p <= 1.0)).all()
        assert (np.diff(p) <= 0.0).all()

    def test_df_below_one_rejected(self):
        with pytest.raises(ValueError, match="df"):
            chi2_upper(0, 1.0)


class TestAcf:
    def test_lag_zero_is_one(self):
        res = acf(NOISE_60, 5)
        assert res.values[0] == 1.0

    def test_frozen_statsmodels_values(self):
        res = acf(NOISE_60, 5)
        expected = [1.0, -0.022672012757, -0.060148940224, -0.192660384508,
                    0.125310811745, -0.094241755388]
        assert np.allclose(res.values, expected, atol=1e-10)
        res_ar = acf(AR_60, 3)
        assert np.allclose(
            res_ar.values, [1.0, 0.411295607813, 0.078049904794, -0.081598037933], atol=1e-10
        )

    def test_band(self):
        res = acf(NOISE_60, 5)
        assert res.band == pytest.approx(1.96 / math.sqrt(60))

    def test_periodic_series(self):
        x = [1.0, -1.0] * 50
        res = acf(x, 2)
        assert res.values[1] == pytest.approx(-1.0, abs=0.02)

    def test_values_bounded(self):
        rng = np.random.default_rng(4)
        res = acf(rng.standard_normal(200), 20)
        assert (np.abs(res.values) <= 1.0 + 1e-12).all()

    def test_white_noise_mostly_inside_band(self):
        rng = np.random.default_rng(5)
        res = acf(rng.standard_normal(500), 10)
        inside = np.sum(np.abs(res.values[1:]) < res.band)
        assert inside >= 8

    def test_constant_sample_error(self):
        with pytest.raises(ValueError, match="constant"):
            acf([3.0] * 30, 2)

    @pytest.mark.parametrize("sample", ["doubling", "near-constant"])
    def test_sample_constant_to_rounding_error(self, sample):
        x = DOUBLING_RATIOS if sample == "doubling" else NEAR_CONSTANT
        with pytest.raises(ValueError, match="degenerate input: sample is constant"):
            acf(x, 2)


class TestGbmTest:
    def test_gbm_paths_usually_accepted(self):
        accepted = sum(gbm_test(gbm_series(n=31, seed=s)).is_gbm for s in range(400))
        assert accepted / 400 >= 0.85

    def test_vol_clustered_paths_rejected_more_often(self):
        sv = SvParams(spot_M0=2.0, sigma0=0.2, kappa=8.0, theta=1.4, delta=2.5)
        reject_sv = 0
        reject_gbm = 0
        for s in range(150):
            path = sample_paths(sv, 0.1, 1 / 365, 60, 1, Scheme.EULER, seed=s)[0]
            reject_sv += not gbm_test(PriceSeries.from_prices(path)).is_gbm
            reject_gbm += not gbm_test(gbm_series(n=61, seed=s)).is_gbm
        assert reject_sv > reject_gbm

    def test_deterministic_trend_rejected(self):
        prices = [1.0 + 0.08 * i for i in range(40)]
        verdict = gbm_test(PriceSeries.from_prices(prices))
        assert not verdict.is_gbm
        assert verdict.ljung_p < 0.01

    def test_verdict_is_pure_function_of_pvalues(self):
        v = gbm_test(gbm_series(seed=10), alpha=0.05)
        assert v.is_gbm == (v.shapiro_p >= 0.05 and v.ljung_p >= 0.05)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError, match="alpha"):
            gbm_test(gbm_series(), alpha=0.7)


class TestEstimateGbm:
    def test_geometric_growth(self):
        s = PriceSeries.from_prices([1.0 * 1.01**i for i in range(20)])
        est = estimate_gbm(s)
        assert est.sigma == pytest.approx(0.0, abs=1e-9)
        assert est.mu == pytest.approx(math.log(1.01) / s.dt, rel=1e-9)
        assert est.spot_M0 == pytest.approx(1.01**19)

    def test_constant_series(self):
        est = estimate_gbm(PriceSeries.from_prices([2.0] * 15))
        assert est.sigma == 0.0
        assert est.mu == 0.0

    def test_recovers_simulated_vol(self):
        est = estimate_gbm(gbm_series(sigma=0.5, mu=0.1, n=1001, seed=6))
        assert 0.45 <= est.sigma <= 0.55

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match=">= 10"):
            estimate_gbm(PriceSeries.from_prices([1.0, 1.1, 1.2]))


class TestEstimateSv:
    def test_constant_vol_input_gives_small_delta(self):
        deltas, theta_errs = [], []
        for seed in range(10):
            s = gbm_series(sigma=0.4, n=1200, seed=100 + seed)
            est = estimate_sv(s, window=7)
            sigma_hat = estimate_gbm(s).sigma
            deltas.append(est.delta)
            theta_errs.append(abs(est.theta - sigma_hat) / sigma_hat)
        # the long-run variance cancels the rolling-proxy noise
        assert np.median(deltas) < 0.5
        assert np.median(theta_errs) < 0.5

    def test_delta_scale_recovered_for_strong_noise(self):
        sv = SvParams(spot_M0=20.0, sigma0=0.3, kappa=8.0, theta=1.4, delta=2.5)
        deltas = []
        for seed in range(10):
            path = sample_paths(sv, 0.05, 1 / 365, 2000, 1, Scheme.EULER, seed=seed)[0]
            deltas.append(estimate_sv(PriceSeries.from_prices(path), window=7).delta)
        assert 1.0 <= np.median(deltas) <= 4.0

    def test_recovery_of_reversion_parameters(self):
        sv = SvParams(spot_M0=20.0, sigma0=0.5, kappa=3.0, theta=0.75, delta=0.35)
        kappas, thetas = [], []
        for s in range(20):
            path = sample_paths(sv, 0.05, 1 / 365, 2000, 1, Scheme.EULER, seed=100 + s)[0]
            est = estimate_sv(PriceSeries.from_prices(path), window=7)
            kappas.append(est.kappa)
            thetas.append(est.theta)
        assert abs(np.median(thetas) - 0.75) / 0.75 < 0.5
        assert np.median(kappas) > 0

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="observations"):
            estimate_sv(gbm_series(n=15), window=7)

    def test_small_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            estimate_sv(gbm_series(n=100), window=3)

    def test_degenerate_regression_rejected(self):
        s = PriceSeries.from_prices([1.0 * 1.02**i for i in range(60)])
        with pytest.raises(ValueError, match="degenerate"):
            estimate_sv(s, window=7)

    @pytest.mark.parametrize("seed", range(8))
    def test_closed_form_fit_matches_polyfit(self, seed):
        s = market_series(seed)
        est = estimate_sv(s, window=7)
        vol = realized_vol(s, window=7)
        slope, intercept = np.polyfit(vol[:-1], np.diff(vol), 1)
        kappa = -slope / s.dt
        assert kappa > 0
        assert est.kappa == pytest.approx(kappa, rel=1e-14, abs=0)
        assert est.theta == pytest.approx(intercept / (kappa * s.dt), rel=1e-14, abs=0)

    def test_realized_vol_tracks_generator(self):
        s = gbm_series(sigma=0.6, n=400, seed=9)
        vol = realized_vol(s, window=30)
        assert abs(np.median(vol) - 0.6) / 0.6 < 0.3

    @pytest.mark.parametrize("window", [2, 5, 7])
    def test_realized_vol_is_per_window_sample_std(self, window):
        # bit for bit: each window's ddof=1 standard deviation, annualized
        s = gbm_series(sigma=0.6, n=60, seed=13)
        ratios = np.log1p(np.diff(s.values) / s.values[:-1])
        stds = [np.std(ratios[i : i + window], ddof=1) for i in range(ratios.size - window + 1)]
        expected = np.array(stds) * (1.0 / math.sqrt(1 / 365))
        np.testing.assert_allclose(realized_vol(s, window), expected, rtol=0, atol=0)


class TestL2Fitness:
    def test_identical_series(self):
        s = gbm_series(seed=11).values
        assert l2_fitness(s, s) == (0.0, 0.0)

    def test_constant_offset(self):
        a = np.full(16, 1.0)
        b = np.full(16, 1.5)
        raw, smoothed = l2_fitness(a, b)
        assert raw == pytest.approx(0.5 * 4.0)
        assert smoothed == pytest.approx(0.5 * math.sqrt(12))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            l2_fitness(gbm_series(n=10).values, gbm_series(n=12).values)

    def test_fitness_comparison_runs(self):
        sv = SvParams(spot_M0=20.0, sigma0=0.5, kappa=3.0, theta=0.75, delta=0.35)
        path = sample_paths(sv, 0.05, 1 / 365, 150, 1, Scheme.EULER, seed=3)[0]
        cmp = fitness_comparison(PriceSeries.from_prices(path), n_instances=5, seed=1)
        assert cmp.gbm_raw > 0 and cmp.sv_raw > 0
        assert cmp.gbm_smoothed <= cmp.gbm_raw * 1.5
        with pytest.raises(ValueError, match="n_instances must be >= 1"):
            fitness_comparison(PriceSeries.from_prices(path), n_instances=0, seed=42)

    def test_fitness_comparison_frozen_values(self):
        # captured with np.median as the median; a change to the path
        # sampler, the fit or the scoring shows here
        cmp = fitness_comparison(market_series(7), n_instances=300, seed=7)
        assert [v.hex() for v in (cmp.gbm_raw, cmp.gbm_smoothed, cmp.sv_raw, cmp.sv_smoothed)] == [
            "0x1.8ab42f9ed73bep+2", "0x1.86e1ba78c84f8p+2",
            "0x1.7eef639176c44p+2", "0x1.7b230e8ddb9c3p+2",
        ]


class TestMedian:
    """``_median`` against ``np.median``, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 299, 300])
    def test_matches_numpy(self, n):
        values = np.random.default_rng(n).standard_normal(n) * 10.0 ** (np.arange(n) % 7)
        assert _median(list(values)).hex() == float(np.median(values)).hex()

    @pytest.mark.parametrize("values", [
        [2.0, 2.0, 1.0, 2.0],
        [3.0, 1.0, 3.0, 1.0],
        [0.1, 0.2],
        [1e308, 1e308],
        [-0.0],
        [-0.0, -0.0],
        [0.0, -0.0, -0.0],
        [math.inf, 1.0],
        [-math.inf, math.inf],
        [-math.inf, -math.inf, 5.0],
        [1.0, math.nan, 2.0],
        [math.nan, math.inf],
    ])
    def test_ties_infinities_zeros_and_nan(self, values):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = float(np.median(values))
        assert _median(values).hex() == expected.hex()
