import math
from dataclasses import fields

import numpy as np
import pytest

from firstlook.contracts import (
    SV_PARAMS,
    GbmParams,
    OptionContract,
    StrikeBasis,
    SvParams,
    discount,
    expected_payoff,
    payoff,
    per_click_value,
    underlying_value,
)


def make_contract(**overrides):
    base = dict(strike=0.005, expiry_T=31 / 365, rate_r=0.05, steps_n=100, ctr=0.3)
    base.update(overrides)
    return OptionContract(**base)


class TestPerClickValue:
    def test_for_one_month_example(self):
        assert per_click_value(2.0, 0.3) == pytest.approx(2.0 / 300.0, rel=1e-15)

    def test_zero_cpm(self):
        assert per_click_value(0.0, 0.5) == 0.0

    def test_small_cpm_low_ctr(self):
        # hand arithmetic: 0.7417 / 30
        assert per_click_value(0.7417, 0.03) == pytest.approx(0.024723333333333333, rel=1e-12)

    @pytest.mark.parametrize("ctr", [0.0, -0.1])
    def test_nonpositive_ctr_rejected(self, ctr):
        with pytest.raises(ValueError):
            per_click_value(1.0, ctr)

    def test_linear_in_cpm(self):
        base = per_click_value(1.37, 0.21)
        for a in (0.5, 2.0, 10.0, 1234.5):
            assert per_click_value(a * 1.37, 0.21) == pytest.approx(a * base, rel=1e-12)


class TestPayoff:
    def test_in_the_money(self):
        # 2/300 - 0.005 = 0.0016666...
        c = make_contract()
        assert payoff(underlying_value(2.0, c), c) == pytest.approx(0.0016666666666666666, rel=1e-12)

    def test_out_of_the_money_is_zero(self):
        c = make_contract(strike=0.075)
        assert payoff(underlying_value(2.0, c), c) == 0.0

    def test_at_the_money_boundary(self):
        c = make_contract(strike=per_click_value(2.0, 0.3))
        assert payoff(underlying_value(2.0, c), c) == 0.0

    def test_per_mille_basis(self):
        c = make_contract(strike=1.5, strike_basis=StrikeBasis.PER_MILLE)
        assert payoff(2.0, c) == pytest.approx(0.5)
        assert payoff(1.0, c) == 0.0

    def test_nonnegative_and_monotone_convex(self):
        c = make_contract()
        cpms = [0.1 * i for i in range(1, 60)]
        values = [payoff(m, c) for m in cpms]
        assert all(v >= 0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))
        # convexity on the uniform grid: second differences nonnegative
        second = [values[i + 1] - 2 * values[i] + values[i - 1] for i in range(1, len(values) - 1)]
        assert all(s >= -1e-15 for s in second)

    def test_vectorized_matches_elementwise(self):
        c = make_contract()
        cpms = np.array([0.5, 1.5, 2.0, 7.25])
        values = payoff(cpms, c)
        assert values.shape == (4,)
        assert values.tolist() == [float(payoff(float(m), c)) for m in cpms]

    def test_underlying_value_respects_basis(self):
        per_click = make_contract()
        per_mille = make_contract(strike_basis=StrikeBasis.PER_MILLE)
        assert underlying_value(2.0, per_click) == pytest.approx(2.0 / 300.0)
        assert underlying_value(2.0, per_mille) == 2.0


class TestDiscount:
    def test_zero_rate(self):
        assert discount(1.0, 0.0, 1.0) == 1.0

    def test_one_month_at_five_percent(self):
        # mpmath 40-digit: exp(-0.05 * 31/365)
        assert discount(1.0, 0.05, 31 / 365) == pytest.approx(0.99576242860877570425, rel=1e-14)

    def test_zero_value(self):
        assert discount(0.0, 0.17, 3.4) == 0.0

    def test_zero_horizon_identity(self):
        assert discount(1.234, 0.08, 0.0) == 1.234

    def test_multiplicative_over_split_horizons(self):
        v, r = 3.7, 0.043
        for t1, t2 in [(0.1, 0.9), (1.5, 2.5), (0.0, 0.3), (0.77, 0.01)]:
            split = discount(discount(v, r, t1), r, t2)
            whole = discount(v, r, t1 + t2)
            assert split == pytest.approx(whole, rel=1e-12)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            discount(1.0, 0.05, -0.1)


class TestExpectedPayoff:
    def test_sums_the_in_the_money_nodes(self):
        c = make_contract(strike=1.5, expiry_T=1.0)
        # the out-of-the-money node's infinite weight is never multiplied by its zero payoff
        weights = np.array([math.inf, 0.5, 0.25])
        price = expected_payoff(weights, np.log([1.0, 2.0, 4.0]), math.log(4.0), c)
        assert price == discount(0.5 * 0.5 + 0.25 * 2.5, c.rate_r, c.expiry_T)

    def test_refuses_a_nan_total_in_one_line(self):
        c = make_contract(strike=0.5)
        with pytest.raises(ValueError) as info:
            expected_payoff(np.array([math.nan, 0.5]), np.log([1.0, 2.0]), math.log(2.0), c)
        assert str(info.value) == "the lattice price must be finite, got nan"

    def test_refuses_an_overflowing_top_node(self):
        with pytest.raises(OverflowError, match="overflows a float"):
            expected_payoff(np.array([1.0]), np.array([710.0]), 710.0, make_contract())


class TestContractValidation:
    def test_valid_contract_dt(self):
        c = make_contract(steps_n=100)
        assert c.dt == pytest.approx((31 / 365) / 100)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"strike": -0.01},
            {"ctr": 0.0},
            {"ctr": 1.5},
            {"expiry_T": 0.0},
            {"expiry_T": -1.0},
            {"steps_n": 0},
            {"steps_n": True},
            {"steps_n": 2.0},
            {"expiry_T": math.inf},
        ],
    )
    def test_invalid_contracts_rejected(self, overrides):
        with pytest.raises(ValueError):
            make_contract(**overrides)

    def test_step_cap(self):
        make_contract(steps_n=100).check_steps(100)
        with pytest.raises(ValueError, match="exceeds supported maximum 99"):
            make_contract(steps_n=100).check_steps(99)

    def test_gbm_params_validation(self):
        GbmParams(spot_M0=2.0, sigma=0.5)
        with pytest.raises(ValueError):
            GbmParams(spot_M0=0.0, sigma=0.5)
        with pytest.raises(ValueError):
            GbmParams(spot_M0=1.0, sigma=-0.1)

    def test_sv_parameter_names_follow_the_dataclass(self):
        assert SV_PARAMS == tuple(f.name for f in fields(SvParams) if f.name != "spot_M0")
        # reports write the estimates in this order
        assert SV_PARAMS == ("sigma0", "kappa", "theta", "delta")

    @pytest.mark.parametrize("sigma,sigma0", [(0.5, 0.5), (1e-12, 1e-12), (0.0, 1e-12)])
    def test_gbm_as_sv_holds_the_volatility(self, sigma, sigma0):
        sv = GbmParams(spot_M0=2.0, sigma=sigma, mu=0.3).as_sv()
        assert sv == SvParams(spot_M0=2.0, sigma0=sigma0, kappa=0.0, theta=sigma, delta=0.0)

    def test_sv_params_validation(self):
        SvParams(spot_M0=1.0, sigma0=0.5, kappa=3.0, theta=0.75, delta=0.35)
        with pytest.raises(ValueError):
            SvParams(spot_M0=1.0, sigma0=0.0, kappa=3.0, theta=0.75, delta=0.35)
        with pytest.raises(ValueError):
            SvParams(spot_M0=1.0, sigma0=0.5, kappa=-1.0, theta=0.75, delta=0.35)
        with pytest.raises(ValueError):
            SvParams(spot_M0=1.0, sigma0=0.5, kappa=3.0, theta=math.nan, delta=0.35)
