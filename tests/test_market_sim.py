import io
import math
import tracemalloc
import warnings
from datetime import date

import pytest

from firstlook.contracts import SvParams, per_click_value
from firstlook.market_sim import (
    MAX_SIM_DAYS,
    MarketDay,
    is_bull,
    ledger_to_csv,
    revenue_analysis,
    revenue_to_csv,
    simulate_options,
    simulate_rtb,
    synthetic_market,
)

CTR = 0.03


def day(cpm, supply=10**9, i=0):
    return MarketDay(day=date(2013, 2, 8 + i), avg_cpm=cpm, supply=supply)


def flat_market(cpm, n_days, supply=10**9):
    return [day(cpm, supply, i) for i in range(n_days)]


class TestSimulateRtb:
    def test_exact_division(self):
        ledger = simulate_rtb(5.0, [day(1.0)], CTR)
        row = ledger.rows[0]
        assert row.impressions == 5000
        assert row.spend == pytest.approx(5.0)
        assert row.clicks == 150

    def test_supply_capped_day(self):
        ledger = simulate_rtb(5.0, [day(0.9903, supply=3812)], CTR)
        row = ledger.rows[0]
        assert row.impressions == 3812
        assert row.spend == pytest.approx(3812 * 0.9903 / 1000)
        assert row.clicks == math.floor(3812 * CTR)

    @pytest.mark.parametrize("cpm", [1e-308, 5e-324])
    def test_price_that_rounds_away_fills_the_supply(self, cpm):
        # budget / (cpm / 1000) is inf, or a division by a price that rounds to 0
        row = simulate_rtb(5.0, [day(cpm, supply=3812)], CTR).rows[0]
        assert (row.impressions, row.clicks) == (3812, math.floor(3812 * CTR))
        assert row.spend == 3812 * (cpm / 1000.0)

    def test_zero_budget_all_zero(self):
        ledger = simulate_rtb(0.0, flat_market(1.0, 5), CTR)
        assert all(r.impressions == 0 for r in ledger.rows)
        assert ledger.total_clicks == 0
        assert ledger.total_spend == 0.0

    def test_budget_conservation(self):
        ledger = simulate_rtb(5.0, flat_market(0.7427, 7, supply=8000), CTR)
        for row in ledger.rows:
            assert row.spend <= row.budget + 1e-12
        assert ledger.total_spend <= sum(r.budget for r in ledger.rows) + 1e-9

    def test_rising_prices_reduce_impressions(self):
        days = [day(0.8, i=0), day(1.0, i=1), day(1.2, i=2)]
        rows = simulate_rtb(5.0, days, CTR).rows
        imps = [r.impressions for r in rows]
        assert imps[0] > imps[1] > imps[2]

    def test_totals_equal_row_sums(self):
        ledger = simulate_rtb(5.0, flat_market(0.9, 6, supply=4000), CTR)
        assert ledger.total_clicks == sum(r.clicks for r in ledger.rows)
        assert ledger.total_spend == pytest.approx(sum(r.spend for r in ledger.rows))


class TestSimulateOptions:
    def test_in_the_money_exercised_every_day(self):
        # per-click market value 1.0/30 ~ 0.0333 stays above the 0.02 strike
        ledger = simulate_options(5.0, flat_market(1.0, 5, supply=8000), CTR, 0.004, 0.02)
        for row in ledger.rows:
            assert row.options_held > 0
            assert row.options_exercised == min(row.options_held, math.floor(row.supply * CTR))

    def test_purchase_rule_greedy_per_day_budget(self):
        ledger = simulate_options(5.0, flat_market(1.0, 1), CTR, 0.0025, 0.0223)
        assert ledger.rows[0].options_held == math.floor(5.0 / (0.0025 + 0.0223))

    def test_out_of_the_money_wastes_only_premium(self):
        # market per-click 0.0333 below the 0.05 strike: options lapse
        days = flat_market(1.0, 4, supply=8000)
        with_options = simulate_options(5.0, days, CTR, 0.003, 0.05)
        pure = simulate_rtb(5.0, days, CTR)
        assert all(r.options_exercised == 0 for r in with_options.rows)
        premium_total = sum(r.premium_paid for r in with_options.rows)
        assert premium_total > 0
        # delivery happens with what remains after the premium
        assert with_options.total_clicks <= pure.total_clicks
        assert with_options.total_spend <= pure.total_spend + premium_total + 1e-9

    def test_exercise_indifference_resolved_as_no_exercise(self):
        strike = per_click_value(1.0, CTR)
        ledger = simulate_options(5.0, flat_market(1.0, 3, supply=8000), CTR, 0.001, strike)
        assert all(r.options_exercised == 0 for r in ledger.rows)

    @pytest.mark.parametrize("strike", [0.02, 0.0])  # with a zero strike one option fits the budget
    def test_premium_at_budget_degenerates_to_rtb(self, strike):
        days = flat_market(1.0, 3, supply=8000)
        ledger = simulate_options(5.0, days, CTR, option_price=5.0, strike_cpc=strike)
        pure = simulate_rtb(5.0, days, CTR)
        assert ledger.total_clicks == pure.total_clicks
        assert ledger.total_spend == pytest.approx(pure.total_spend)
        assert ledger.rows == pure.rows

    def test_supply_cap_limits_exercise(self):
        ledger = simulate_options(5.0, [day(1.0, supply=1000)], CTR, 0.004, 0.02)
        row = ledger.rows[0]
        assert row.options_exercised == math.floor(1000 * CTR)
        assert row.impressions <= 1000

    def test_budget_conservation_with_options(self):
        ledger = simulate_options(5.0, flat_market(1.2, 6, supply=9000), CTR, 0.004, 0.02)
        for row in ledger.rows:
            assert row.premium_paid + row.spend <= row.budget + 1e-12

    def test_exercise_days_cost_at_most_market(self):
        ledger = simulate_options(5.0, flat_market(1.0, 5, supply=8000), CTR, 0.004, 0.02)
        for row in ledger.rows:
            if row.options_exercised:
                assert 0.02 <= per_click_value(row.avg_cpm, CTR)


class TestRevenueAnalysis:
    def test_zero_sell_ratio_is_pure_rtb_income(self):
        days = flat_market(1.1, 5, supply=7000)
        report = revenue_analysis(days, CTR, 0.0, 0.004, 0.02)
        for d, market_day in zip(report.series, days):
            assert d.premium_income == 0.0
            assert d.strike_income == 0.0
            assert d.total == pytest.approx(market_day.supply * market_day.avg_cpm / 1000)

    def test_unexercised_options_add_pure_premium(self):
        days = flat_market(1.0, 5, supply=7000)
        base = revenue_analysis(days, CTR, 0.0, 0.001, 0.05)
        sold = revenue_analysis(days, CTR, 0.8, 0.001, 0.05)
        for b, s in zip(base.series, sold.series):
            assert s.total == pytest.approx(b.total + s.premium_income)
            assert s.premium_income > 0

    def test_exercised_options_swap_market_for_strike(self):
        days = flat_market(1.0, 1, supply=10000)
        report = revenue_analysis(days, CTR, 0.5, 0.004, 0.02)
        d = report.series[0]
        sold_impressions = 5000
        options_sold = math.floor(sold_impressions * CTR)
        assert d.strike_income == pytest.approx(options_sold * 0.02)
        assert d.rtb_income == pytest.approx(5000 * 1.0 / 1000)
        assert d.premium_income == pytest.approx(options_sold * 0.004)

    def test_sell_ratio_bounds(self):
        with pytest.raises(ValueError, match="sell_ratio"):
            revenue_analysis(flat_market(1.0, 2), CTR, 1.2, 0.004, 0.02)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_day_total_is_refused_by_day(self):
        # the second day's spot income, 1e9 impressions at 1e308 CPM, overflows
        days = [day(1.0, i=0), day(1e308, i=1)]
        with pytest.raises(ValueError, match=r"^the revenue of 2013-02-09 must be finite, got inf$"):
            revenue_analysis(days, CTR, 0.2, 0.004, 0.02)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "supplies,premium,message",
        [
            # two finite days of 30 options at 5e306 sum past the largest float
            ((1000, 1000), 5e306, r"^the mean revenue inf or its spread inf is not finite$"),
            # a finite mean of about 3e306 whose squared deviations overflow
            ((1000, 1), 2e305, r"^the mean revenue 2\.99\d*e\+306 or its spread inf is not finite$"),
        ],
        ids=["mean", "spread"],
    )
    def test_non_finite_statistics_refused(self, supplies, premium, message):
        days = [day(1.0, supply, i) for i, supply in enumerate(supplies)]
        with pytest.raises(ValueError, match=message):
            revenue_analysis(days, CTR, 1.0, premium, 0.02)

    def test_series_statistics(self):
        days = [day(0.9, 5000, 0), day(1.1, 5000, 1)]
        report = revenue_analysis(days, CTR, 0.0, 0.0, 0.02)
        totals = [d.total for d in report.series]
        assert report.mean_revenue == pytest.approx(sum(totals) / 2)
        assert report.std_revenue > 0


class TestSyntheticMarket:
    def forward(self, drift, seed):
        sv = SvParams(spot_M0=1.0, sigma0=0.5, kappa=0.0, theta=0.5, delta=0.0)
        return synthetic_market(sv, drift, 30, 8000, seed)

    def test_deterministic_for_seed(self):
        a = self.forward(3.0, 7)
        b = self.forward(3.0, 7)
        assert [d.avg_cpm for d in a] == [d.avg_cpm for d in b]
        assert [d.supply for d in a] == [d.supply for d in b]

    def test_bull_and_bear_classification(self):
        assert is_bull(self.forward(3.0, 0), 1.0)
        assert not is_bull(self.forward(-3.0, 0), 1.0)

    def test_supply_jitter_bounded(self):
        days = self.forward(0.0, 3)
        assert all(7200 <= d.supply <= 8800 for d in days)

    def test_day_cap_refused_before_allocating(self):
        sv = SvParams(spot_M0=1.0, sigma0=0.5, kappa=0.0, theta=0.5, delta=0.0)
        assert len(synthetic_market(sv, 3.0, MAX_SIM_DAYS, 10, 0)) == MAX_SIM_DAYS
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds supported maximum"):
                synthetic_market(sv, 3.0, MAX_SIM_DAYS + 1, 10, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize(
        "drift,sigma,first_bad",
        [(1e5, 0.5, 3), (16_245_000.0, 5700.0, 8)],  # overflow; overflow, then inf * 0 on day 90
    )
    def test_non_finite_path_names_first_bad_day(self, drift, sigma, first_bad):
        sv = SvParams(spot_M0=1.0, sigma0=sigma, kappa=0.0, theta=sigma, delta=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"not finite from day {first_bad} of 3000"):
                synthetic_market(sv, drift, 3000, 8000, 3)

    def test_underflowed_path_names_first_zero_day(self):
        sv = SvParams(spot_M0=1.0, sigma0=30_000.0, kappa=0.0, theta=30_000.0, delta=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="price path is zero from day 1 of 3000"):
                synthetic_market(sv, 1e5, 3000, 8000, 3)


class TestCsvEmission:
    def test_ledger_csv_layout(self):
        ledger = simulate_options(5.0, flat_market(1.0, 3, supply=8000), CTR, 0.004, 0.02)
        buf = io.StringIO()
        ledger_to_csv(ledger, buf)
        lines = buf.getvalue().strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "date", "avg_cpm", "supply", "budget", "premium_paid",
            "options_held", "options_exercised", "impressions", "clicks", "spend",
        ]
        assert len(lines) == 5
        assert lines[-1].startswith("total")

    def test_revenue_csv_layout(self):
        report = revenue_analysis(flat_market(1.0, 2, supply=5000), CTR, 0.2, 0.004, 0.02)
        buf = io.StringIO()
        revenue_to_csv(report, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "date,premium_income,strike_income,rtb_income,total"
        assert len(lines) == 4
        assert lines[-1].startswith("summary")


class TestValidation:
    def test_market_day_validation(self):
        with pytest.raises(ValueError):
            MarketDay(day=date(2013, 2, 8), avg_cpm=0.0, supply=10)
        with pytest.raises(ValueError):
            MarketDay(day=date(2013, 2, 8), avg_cpm=1.0, supply=-1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_money_inputs_named(self, bad):
        days = flat_market(1.0, 2)
        with pytest.raises(ValueError, match="budget_per_day must be finite"):
            simulate_rtb(bad, days, CTR)
        with pytest.raises(ValueError, match="budget_per_day must be finite"):
            simulate_options(bad, days, CTR, 0.01, 0.02)
        for name, args in (("option_price", (bad, 0.02)), ("strike_cpc", (0.01, bad))):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                simulate_options(5.0, days, CTR, *args)
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                revenue_analysis(days, CTR, 0.2, *args)

    @pytest.mark.parametrize("terms", [(-0.01, 0.02), (0.01, -0.02)], ids=["premium", "strike"])
    def test_negative_terms_refused(self, terms):
        days = flat_market(1.0, 2)
        with pytest.raises(ValueError, match="option_price and strike_cpc must be >= 0"):
            simulate_options(5.0, days, CTR, *terms)
        with pytest.raises(ValueError, match="option_price and strike_cpc must be >= 0"):
            revenue_analysis(days, CTR, 0.2, *terms)

    def test_simulate_inputs_validated(self):
        with pytest.raises(ValueError):
            simulate_rtb(5.0, flat_market(1.0, 2), ctr=0.0)
        with pytest.raises(ValueError):
            simulate_options(0.0, flat_market(1.0, 2), CTR, 0.01, 0.02)
        with pytest.raises(ValueError):
            simulate_options(5.0, flat_market(1.0, 2), CTR, -0.01, 0.02)
