import math

import numpy as np
import pytest

from firstlook.contracts import GbmParams, OptionContract, SvParams, per_click_value
from firstlook.gbm_lattice import closed_form_price
from firstlook.montecarlo import (
    MAX_MC_PATHS,
    MAX_PATH_STEPS,
    Containment,
    McConfig,
    McResult,
    Scheme,
    advance,
    containment_sweep,
    mc_price,
    sample_paths,
    simulate_terminal,
    sweep_to_csv,
    validate_lattice,
)

# wide-vol test dynamics used throughout: reversion toward a higher level
BASE_SV = SvParams(spot_M0=20.0, sigma0=0.5, kappa=3.0, theta=0.75, delta=0.35)
BASE_CONTRACT = OptionContract(strike=0.633, expiry_T=31 / 365, rate_r=0.05, steps_n=100, ctr=0.03)


def step(state, dt, sv, normals, scheme=Scheme.EULER, rate=0.05):
    """One scalar step of the kernel the pricers run."""
    return advance(*state, dt, rate, sv, *normals, scheme)


class TestSteps:
    def test_constant_vol_step_keeps_sigma(self):
        sv = SvParams(spot_M0=20.0, sigma0=0.5, kappa=0.0, theta=0.75, delta=0.0)
        for scheme in Scheme:
            _, sigma = step((20.0, 0.5), 0.01, sv, (1.3, -0.4), scheme)
            assert sigma == 0.5

    def test_deterministic_step(self):
        m, sigma = step((20.0, 0.5), 0.01, BASE_SV, (0.0, 0.0))
        assert sigma == pytest.approx(0.5 + 3.0 * 0.25 * 0.01, rel=1e-15)
        assert m == pytest.approx(20.0 * math.exp((0.05 - 0.125) * 0.01), rel=1e-15)

    def test_one_step_frozen_values(self):
        # mpmath 40-digit, dt=0.01, shocks (0.7, -0.3)
        m, sigma = step((20.0, 0.5), 0.01, BASE_SV, (0.7, -0.3))
        assert m == pytest.approx(20.69686570426526566, rel=1e-14)
        assert sigma == pytest.approx(0.50007537879754125099, rel=1e-14)
        m2, sigma2 = step((20.0, 0.5), 0.01, BASE_SV, (0.7, -0.3), Scheme.MILSTEIN)
        assert m2 == pytest.approx(m, rel=1e-15)
        assert sigma2 == pytest.approx(0.49979669129754125099, rel=1e-14)

    def test_milstein_equals_euler_at_unit_shock(self):
        for eps in (1.0, -1.0):
            e = step((20.0, 0.5), 0.01, BASE_SV, (0.3, eps))
            m = step((20.0, 0.5), 0.01, BASE_SV, (0.3, eps), Scheme.MILSTEIN)
            assert m == pytest.approx(e, rel=1e-15)

    def test_milstein_equals_euler_without_vol_noise(self):
        sv = SvParams(spot_M0=20.0, sigma0=0.5, kappa=3.0, theta=0.75, delta=0.0)
        for eps in (-2.0, 0.5, 1.7):
            assert step((20.0, 0.5), 0.01, sv, (0.1, eps), Scheme.MILSTEIN) == pytest.approx(
                step((20.0, 0.5), 0.01, sv, (0.1, eps))
            )

    def test_milstein_correction_magnitude(self):
        # 0.25 * 0.35^2 * 0.01 * (2^2 - 1) = 0.00091875
        e = step((20.0, 0.5), 0.01, BASE_SV, (0.0, 2.0))[1]
        m = step((20.0, 0.5), 0.01, BASE_SV, (0.0, 2.0), Scheme.MILSTEIN)[1]
        assert m - e == pytest.approx(0.00091875, rel=1e-12)

    def test_volatility_floored_at_zero(self):
        _, sigma = step((20.0, 0.01), 0.5, BASE_SV, (0.0, -50.0))
        assert sigma == 0.0
        # reversion toward zero overshoots: 0.5 + 3 * (0 - 0.5) * 0.5 < 0
        toward_zero = SvParams(spot_M0=20.0, sigma0=0.5, kappa=3.0, theta=0.0, delta=0.35)
        for scheme in Scheme:
            _, sigma = step((20.0, 0.5), 0.5, toward_zero, (0.0, 0.0), scheme)
            assert sigma == 0.0
            m, sigma2 = step((20.0, 0.0), 0.01, BASE_SV, (1.0, 1.0), scheme)
            assert m > 0
            assert sigma2 == pytest.approx(3.0 * 0.75 * 0.01)

    def test_price_always_positive(self):
        for scheme in Scheme:
            m, _ = step((20.0, 0.5), 0.01, BASE_SV, (-40.0, 0.0), scheme)
            assert m > 0

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_vector_step_matches_scalar_steps(self, scheme):
        eps_price = np.array([0.7, -1.2, 0.0])
        eps_vol = np.array([-0.3, 2.0, 1.0])
        m, sigma = advance(np.full(3, 20.0), np.full(3, 0.5), 0.01, 0.05, BASE_SV,
                           eps_price, eps_vol, scheme)
        for i in range(3):
            assert (m[i], sigma[i]) == step((20.0, 0.5), 0.01, BASE_SV, (eps_price[i], eps_vol[i]), scheme)


class TestMcPrice:
    def test_deterministic_for_fixed_seed(self):
        cfg = McConfig(scheme=Scheme.EULER, n_paths=5000, steps=50, seed=7)
        a = mc_price(BASE_SV, BASE_CONTRACT, cfg)
        b = mc_price(BASE_SV, BASE_CONTRACT, cfg)
        assert a == b

    def test_seed_changes_result(self):
        a = mc_price(BASE_SV, BASE_CONTRACT, McConfig(Scheme.EULER, 5000, 50, seed=1))
        b = mc_price(BASE_SV, BASE_CONTRACT, McConfig(Scheme.EULER, 5000, 50, seed=2))
        assert a.price != b.price

    def test_interval_brackets_price(self):
        r = mc_price(BASE_SV, BASE_CONTRACT, McConfig(Scheme.MILSTEIN, 20000, 50, seed=3))
        assert r.ci_low <= r.price <= r.ci_high
        assert r.ci_high - r.price == pytest.approx(1.96 * r.std_error, rel=1e-12)

    def test_strike_zero_martingale(self):
        c = OptionContract(strike=0.0, expiry_T=31 / 365, rate_r=0.05, steps_n=50, ctr=0.3)
        sv = SvParams(spot_M0=2.0, sigma0=0.5, kappa=3.0, theta=0.75, delta=0.35)
        r = mc_price(sv, c, McConfig(Scheme.EULER, 100_000, 50, seed=42))
        target = per_click_value(2.0, 0.3)
        assert abs(r.price - target) <= 3 * r.std_error

    def test_constant_vol_interval_contains_closed_form(self):
        c = OptionContract(strike=0.005, expiry_T=31 / 365, rate_r=0.05, steps_n=100, ctr=0.3)
        sv = SvParams(spot_M0=2.0, sigma0=0.5, kappa=0.0, theta=0.5, delta=0.0)
        benchmark = closed_form_price(GbmParams(spot_M0=2.0, sigma=0.5), c)
        r = mc_price(sv, c, McConfig(Scheme.EULER, 100_000, 100, seed=42))
        assert r.ci_low <= benchmark <= r.ci_high

    def test_std_error_scales_inverse_sqrt(self):
        ratios = []
        for seed in range(10):
            small = mc_price(BASE_SV, BASE_CONTRACT, McConfig(Scheme.EULER, 2000, 25, seed=seed))
            big = mc_price(BASE_SV, BASE_CONTRACT, McConfig(Scheme.EULER, 8000, 25, seed=seed))
            ratios.append(small.std_error / big.std_error)
        assert abs(float(np.mean(ratios)) - 2.0) < 0.4

    def test_schemes_agree_within_interval_widths(self):
        euler = mc_price(BASE_SV, BASE_CONTRACT, McConfig(Scheme.EULER, 100_000, 50, seed=11))
        milstein = mc_price(BASE_SV, BASE_CONTRACT, McConfig(Scheme.MILSTEIN, 100_000, 50, seed=12))
        gap = abs(euler.price - milstein.price)
        half_widths = (euler.ci_high - euler.ci_low) / 2 + (milstein.ci_high - milstein.ci_low) / 2
        assert gap < half_widths

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(Scheme.EULER, n_paths=1, steps=10)
        with pytest.raises(ValueError):
            McConfig(Scheme.EULER, n_paths=100, steps=0)

    def test_cost_caps(self):
        with pytest.raises(ValueError, match="n_paths = 10000001 exceeds"):
            McConfig(Scheme.EULER, n_paths=MAX_MC_PATHS + 1, steps=1)
        with pytest.raises(ValueError, match="n_paths \\* steps = 1001000000 exceeds"):
            McConfig(Scheme.EULER, n_paths=1_000_000, steps=1001)
        # the caps themselves are admitted, and so is the CLI default of 100k x 500
        McConfig(Scheme.EULER, n_paths=MAX_MC_PATHS, steps=MAX_PATH_STEPS // MAX_MC_PATHS)
        McConfig(Scheme.MILSTEIN, n_paths=100_000, steps=500)


class TestPathSampling:
    def test_shapes_and_start(self):
        paths = sample_paths(BASE_SV, 0.1, 1 / 365, 20, 7, Scheme.EULER, seed=5)
        assert paths.shape == (7, 21)
        assert (paths[:, 0] == 20.0).all()
        assert (paths > 0).all()

    def test_terminal_matches_path_end(self):
        term = simulate_terminal(BASE_SV, 0.1, 1 / 365, 20, 7, Scheme.EULER, seed=5)
        paths = sample_paths(BASE_SV, 0.1, 1 / 365, 20, 7, Scheme.EULER, seed=5)
        assert np.allclose(term, paths[:, -1], rtol=0, atol=0)


class TestValidation:
    def result(self, price):
        return McResult(
            price=price, std_error=0.01, ci_low=price - 0.0196, ci_high=price + 0.0196,
            n_paths=100, scheme=Scheme.EULER,
        )

    def test_exact_price_contained(self):
        assert validate_lattice(0.5, self.result(0.5)) is Containment.CONTAINED

    def test_above(self):
        r = self.result(0.5)
        assert validate_lattice(r.ci_high + 1e-9, r) is Containment.ABOVE

    def test_below(self):
        r = self.result(0.5)
        assert validate_lattice(r.ci_low - 1e-9, r) is Containment.BELOW

    def test_sweep_rows_and_csv(self, tmp_path):
        cfg = McConfig(Scheme.EULER, n_paths=20000, steps=50, seed=42)
        contract = OptionContract(strike=0.633, expiry_T=31 / 365, rate_r=0.05, steps_n=50, ctr=0.03)
        rows = containment_sweep(BASE_SV, contract, cfg, "kappa", [2.0, 4.0])
        assert [r.value for r in rows] == [2.0, 4.0]
        out = tmp_path / "sweep.csv"
        with open(out, "w", newline="") as fh:
            sweep_to_csv(rows, fh)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "param,value,lattice_price,mc_price,ci_low,ci_high,verdict"
        assert len(lines) == 3

    def test_sweep_rejects_unknown_parameter(self):
        cfg = McConfig(Scheme.EULER, n_paths=100, steps=5, seed=1)
        with pytest.raises(ValueError, match="unknown sweep"):
            containment_sweep(BASE_SV, BASE_CONTRACT, cfg, "rho", [0.1])

    def test_sweep_rejects_empty_values(self):
        cfg = McConfig(Scheme.EULER, n_paths=100, steps=5, seed=1)
        with pytest.raises(ValueError, match="empty"):
            containment_sweep(BASE_SV, BASE_CONTRACT, cfg, "kappa", [])
