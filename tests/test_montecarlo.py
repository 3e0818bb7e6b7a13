import hashlib
import math
import re
import sys
import threading
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from firstlook.contracts import (
    GbmParams, OptionContract, SvParams, discount, payoff, per_click_value, underlying_value,
)
from firstlook.gbm_lattice import closed_form_price
from firstlook import montecarlo
from firstlook.montecarlo import (
    DRAW_CHUNK,
    MAX_MC_PATHS,
    MAX_PATH_STEPS,
    MAX_SWEEP_PATH_STEPS,
    MAX_SWEEP_POINTS,
    PATH_BLOCK,
    SWEEP_GROUP_PATHS,
    Containment,
    McConfig,
    McResult,
    PathCountError,
    Scheme,
    advance,
    check_sweep,
    containment_sweep,
    _walk_paths,
    mc_price,
    sample_paths,
    sweep_to_csv,
    validate_lattice,
)

# wide-vol test dynamics used throughout: reversion toward a higher level
BASE_SV = SvParams(spot_M0=20.0, sigma0=0.5, kappa=3.0, theta=0.75, delta=0.35)
BASE_CONTRACT = OptionContract(strike=0.633, expiry_T=31 / 365, rate_r=0.05, steps_n=100, ctr=0.03)


def step(state, dt, sv, normals, scheme=Scheme.EULER, rate=0.05):
    """One step of the kernel the pricers run, on 1-element arrays."""
    m, sigma = (np.array([x], dtype=float) for x in state)
    eps_price, eps_vol = (np.array([x], dtype=float) for x in normals)
    advance(m, sigma, dt, rate, sv, eps_price, eps_vol, scheme, np.empty((3, 1)), False)
    return float(m[0]), float(sigma[0])


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
        m, sigma = np.full(3, 20.0), np.full(3, 0.5)
        advance(m, sigma, 0.01, 0.05, BASE_SV, eps_price, eps_vol, scheme, np.empty((3, 3)),
                False)
        for i in range(3):
            assert (m[i], sigma[i]) == step((20.0, 0.5), 0.01, BASE_SV, (eps_price[i], eps_vol[i]), scheme)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_antithetic_step_is_the_step_on_negated_normals(self, scheme):
        # bit for bit, signed zeros included
        eps_price = np.array([0.7, -1.2, 0.0, -0.0, 3.1, -2.5])
        eps_vol = np.array([-0.3, 2.0, 1.0, 0.0, -0.0, -4.0])
        sigma0 = np.array([0.5, 0.0, 0.2, 0.5, 0.0, 1.5])
        states = []
        for eps, antithetic in (((eps_price, eps_vol), True), ((-eps_price, -eps_vol), False)):
            m, sigma = np.full(6, 20.0), sigma0.copy()
            advance(m, sigma, 0.01, 0.05, BASE_SV, *eps, scheme, np.empty((3, 6)), antithetic)
            states.append([float(v).hex() for v in (*m, *sigma)])
        assert states[0] == states[1]


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "spot,rate,expiry,ctr,kappa,message",
        # a NaN price (no reversion, which this step length would make diverge);
        # a finite price near the float limit whose pair spread overflows
        [(20.0, 1e3, 1e6, 0.03, 0.0, "nan or its standard error nan"),
         (1e308, 0.05, 31 / 365, 1.0, 3.0,
          "1.00121561963958\\d*e\\+305 or its standard error inf")],
        ids=["nan", "overflow"],
    )
    def test_non_finite_result_refused(self, spot, rate, expiry, ctr, kappa, message):
        c = OptionContract(strike=0.1, expiry_T=expiry, rate_r=rate, steps_n=10, ctr=ctr)
        sv = replace(BASE_SV, spot_M0=spot, kappa=kappa)
        with pytest.raises(ValueError, match=f"^the Monte Carlo price {message} is not finite$"):
            mc_price(sv, c, McConfig(Scheme.EULER, 1000, 10, seed=1))

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
            McConfig(Scheme.EULER, n_paths=1, steps=10, seed=42)
        with pytest.raises(ValueError):
            McConfig(Scheme.EULER, n_paths=100, steps=0, seed=42)

    @pytest.mark.parametrize("n_paths", [-2, 0, 2, 3, 5, 99_999])
    def test_path_count_must_pair(self, n_paths):
        with pytest.raises(PathCountError, match=f"n_paths must be even and >= 4, got {n_paths}$"):
            McConfig(Scheme.EULER, n_paths=n_paths, steps=10, seed=42)

    def test_cost_caps(self):
        with pytest.raises(ValueError, match="n_paths = 10000001 exceeds"):
            McConfig(Scheme.EULER, n_paths=MAX_MC_PATHS + 1, steps=1, seed=42)
        with pytest.raises(ValueError, match="n_paths \\* steps = 1001000000 exceeds"):
            McConfig(Scheme.EULER, n_paths=1_000_000, steps=1001, seed=42)
        # the caps themselves are admitted, and so is the CLI default of 100k x 500
        McConfig(Scheme.EULER, n_paths=MAX_MC_PATHS, steps=MAX_PATH_STEPS // MAX_MC_PATHS, seed=42)
        McConfig(Scheme.MILSTEIN, n_paths=100_000, steps=500, seed=42)


class TestStableVolatilityStep:
    """The reversion factor 1 - kappa * dt flips the volatility's sign from 2 on."""

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("kappa", [4.0, 400.0, 1e8, 1e308])
    def test_refused_from_kappa_dt_two(self, scheme, kappa):
        # dt = 0.5: kappa * dt = 2 exactly at the first case
        c = OptionContract(strike=0.633, expiry_T=2.0, rate_r=0.05, steps_n=4, ctr=0.03)
        sv = replace(BASE_SV, kappa=kappa)
        message = re.escape(f"kappa * dt = {kappa * 0.5!r} must be below 2 for a stable volatility")
        with pytest.raises(ValueError, match=message):
            mc_price(sv, c, McConfig(scheme, 100, 4, seed=1))
        with pytest.raises(ValueError, match=message):
            sample_paths(sv, 0.05, 0.5, 4, 3, scheme, seed=1)
        with pytest.raises(ValueError, match=message):
            mc_price([BASE_SV, sv, BASE_SV], c, McConfig(scheme, 100, 4, seed=1))

    def test_refused_before_any_path_array(self):
        sv = replace(BASE_SV, kappa=200.0)
        walk = _walk_paths((sv,), 0.05, 0.01, 100, 1_000_000, Scheme.EULER, 1, True)
        threads = threading.active_count()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="kappa \\* dt = 2.0 must be below 2"):
                next(walk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert threading.active_count() == threads


class TestPathSampling:
    def test_shapes_and_start(self):
        paths = sample_paths(BASE_SV, 0.1, 1 / 365, 20, 7, Scheme.EULER, seed=5)
        assert paths.shape == (7, 21)
        assert (paths[:, 0] == 20.0).all()
        assert (paths > 0).all()

    def test_terminal_matches_path_end(self):
        term = deque(_walk_paths((BASE_SV,), 0.1, 1 / 365, 20, 7, Scheme.EULER, 5, False), maxlen=1).pop()[0]
        paths = sample_paths(BASE_SV, 0.1, 1 / 365, 20, 7, Scheme.EULER, seed=5)
        assert np.allclose(term, paths[:, -1], rtol=0, atol=0)


def walk_on(normals, sv, drift, dt, scheme):
    """Terminal prices of one unblocked ``advance`` loop over (steps, 2, paths) normals."""
    n = normals.shape[2]
    m, sigma = np.full(n, sv.spot_M0), np.full(n, sv.sigma0)
    for eps_price, eps_vol in normals:
        advance(m, sigma, dt, drift, sv, eps_price, eps_vol, scheme, np.empty((3, n)), False)
    return m


class TestAntitheticPairs:
    """``mc_price`` walks ``n_paths // 2`` drawn paths and their negations."""

    # a few paths over many steps, and both sides of a path-block edge
    SIZES = [(8, 20), (2 * (PATH_BLOCK + 3), 3)]

    def paired_terminal(self, scheme, n_paths, steps):
        walk = _walk_paths((BASE_SV,), 0.1, 1 / 365, steps, n_paths, scheme, 5, paired=True)
        return deque(walk, maxlen=1).pop()[0]

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("n_paths,steps", SIZES)
    def test_first_half_is_the_unpaired_walk(self, scheme, n_paths, steps):
        half = n_paths // 2
        term = self.paired_terminal(scheme, n_paths, steps)
        paths = sample_paths(BASE_SV, 0.1, 1 / 365, steps, half, scheme, seed=5)
        assert np.allclose(term[:half], paths[:, -1], rtol=0, atol=0)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("n_paths,steps", SIZES)
    def test_second_half_walks_the_negated_normals(self, scheme, n_paths, steps):
        half = n_paths // 2
        term = self.paired_terminal(scheme, n_paths, steps)
        normals = np.random.Generator(np.random.Philox(5)).standard_normal((steps, 2, half))
        expected = walk_on(-normals, BASE_SV, 0.1, 1 / 365, scheme)
        assert np.allclose(term[half:], expected, rtol=0, atol=0)
        assert not np.allclose(term[:half], expected)

    def test_price_and_error_come_from_pair_means(self):
        c, steps = BASE_CONTRACT, 20
        normals = np.random.Generator(np.random.Philox(5)).standard_normal((steps, 2, 4))
        terminals = (walk_on(eps, BASE_SV, c.rate_r, c.expiry_T / steps, Scheme.EULER)
                     for eps in (normals, -normals))
        drawn, negated = (payoff(underlying_value(m, c), c) for m in terminals)
        pair_means = (drawn + negated) / 2
        r = mc_price(BASE_SV, c, McConfig(Scheme.EULER, n_paths=8, steps=steps, seed=5))
        assert r.price == discount(float(pair_means.mean()), c.rate_r, c.expiry_T)
        assert r.std_error == discount(float(pair_means.std(ddof=1)), c.rate_r, c.expiry_T) / 2

    def test_std_error_is_calibrated(self):
        # over 200 seeds the prices' spread should match the mean reported
        # error. The spread's own relative error is about 1/sqrt(2 * 199), 5%,
        # so the band is three of those. Near the money a pair's payoffs are
        # anticorrelated: with the spread over all paths the ratio reads 0.65,
        # and with the pair means' spread over sqrt(n_paths) it reads 1.4.
        prices, errors = [], []
        for seed in range(200):
            r = mc_price(BASE_SV, BASE_CONTRACT, McConfig(Scheme.EULER, 2000, 20, seed=seed))
            prices.append(r.price)
            errors.append(r.std_error)
        ratio = float(np.std(prices, ddof=1) / np.mean(errors))
        assert 0.85 < ratio < 1.15


def finishes(call):
    """``call()``'s result or exception; fails, instead of hanging, after 60 s."""
    outcome = []

    def run():
        try:
            outcome.append(call())
        except Exception as exc:
            outcome.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(60)
    assert not runner.is_alive()
    return outcome[0]


class TestDrawAhead:
    """The walk draws each next chunk of steps on a second thread, bit for bit."""

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("drawn,steps,threaded", [
        # chunks of 16 steps at DRAW_CHUNK = 2**15, the last one of 5
        (1000, 3 * (DRAW_CHUNK // 2000) + 5, True),
        # a step of more than DRAW_CHUNK normals, so a chunk is one step
        (DRAW_CHUNK // 2 + 1, 3, True),
        # the whole walk in the first chunk, drawn without a thread
        (8, 20, False),
    ])
    def test_chunk_edges_are_one_draw(self, scheme, drawn, steps, threaded):
        threads = threading.active_count()
        walk = _walk_paths((BASE_SV,), 0.1, 1 / 365, steps, 2 * drawn, scheme, 5, paired=True)
        next(walk)
        assert threading.active_count() == threads + threaded
        term = deque(walk, maxlen=1).pop()[0]
        assert threading.active_count() == threads
        normals = np.random.Generator(np.random.Philox(5)).standard_normal((steps, 2, drawn))
        for half, eps in ((term[:drawn], normals), (term[drawn:], -normals)):
            assert np.array_equal(half, walk_on(eps, BASE_SV, 0.1, 1 / 365, scheme))

    @staticmethod
    def walk(seed=5):
        # seven chunks of 16 steps at DRAW_CHUNK = 2**15
        return _walk_paths((BASE_SV,), 0.1, 1 / 365, 100, 2000, Scheme.EULER, seed, paired=True)

    def test_closed_walk_stops_its_thread(self):
        threads = threading.active_count()
        walk = self.walk()
        for _ in range(3):
            next(walk)
        assert threading.active_count() == threads + 1
        assert finishes(walk.close) is None
        assert threading.active_count() == threads

    def test_error_while_stepping_stops_the_thread(self, monkeypatch):
        threads = threading.active_count()
        stepped = []

        def failing_advance(*args):
            stepped.append(threading.active_count())
            if len(stepped) == 2 * 20:
                raise FloatingPointError("step 20")
            advance(*args)

        monkeypatch.setattr(montecarlo, "advance", failing_advance)
        error = finishes(lambda: deque(self.walk(), maxlen=1))
        assert isinstance(error, FloatingPointError) and str(error) == "step 20"
        # the walk, its thread and the thread that ran it
        assert stepped[-1] == threads + 2
        assert threading.active_count() == threads

    def test_draw_error_reaches_the_caller(self, monkeypatch):
        class SecondDrawFails:
            def __init__(self, seed):
                self.rng = np.random.Generator(np.random.Philox(seed))
                self.draws = 0

            def standard_normal(self, out):
                self.draws += 1
                if self.draws == 2:
                    raise FloatingPointError("second draw")
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(montecarlo, "_generator", SecondDrawFails)
        threads = threading.active_count()
        for call in (
            lambda: mc_price(BASE_SV, BASE_CONTRACT, McConfig(Scheme.EULER, 2000, 100, seed=5)),
            lambda: sample_paths(BASE_SV, 0.1, 1 / 365, 100, 1000, Scheme.EULER, seed=5),
        ):
            error = finishes(call)
            assert isinstance(error, FloatingPointError) and str(error) == "second draw"
        assert threading.active_count() == threads

    def test_concurrent_walks_keep_their_bits(self):
        # eight walks and their threads on two cores, switching threads as
        # often as the interpreter allows: a slot drawn over before it is
        # walked changes the terminal prices
        def terminal(seed):
            return deque(self.walk(seed), maxlen=1).pop()

        expected = [terminal(seed) for seed in range(8)]
        results = {}
        runners = [threading.Thread(target=lambda seed=seed: results.update({seed: terminal(seed)}))
                   for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(runner.is_alive() for runner in runners)
        for seed, want in enumerate(expected):
            assert np.array_equal(results[seed], want)


class TestValidation:
    def result(self, price):
        return McResult(
            price=price, std_error=0.01, ci_low=price - 0.0196, ci_high=price + 0.0196
        )

    def test_exact_price_contained(self):
        assert validate_lattice(0.5, self.result(0.5)) is Containment.CONTAINED

    def test_above(self):
        r = self.result(0.5)
        assert validate_lattice(r.ci_high + 1e-9, r) is Containment.ABOVE

    def test_below(self):
        r = self.result(0.5)
        assert validate_lattice(r.ci_low - 1e-9, r) is Containment.BELOW

    @pytest.mark.parametrize("ulps", [1, 2])
    def test_same_price_in_a_zero_width_interval_contained(self, ulps):
        # every path pays the same: the interval is one point, and the lattice
        # reaches the same price along another sum
        price = 0.03366666666666667
        mc = McResult(price=price, std_error=0.0, ci_low=price, ci_high=price)
        for direction in (math.inf, -math.inf):
            lattice = price
            for _ in range(ulps):
                lattice = math.nextafter(lattice, direction)
            assert validate_lattice(lattice, mc) is Containment.CONTAINED

    def test_other_price_outside_a_zero_width_interval(self):
        price = 0.03366666666666667
        mc = McResult(price=price, std_error=0.0, ci_low=price, ci_high=price)
        assert validate_lattice(price * (1 + 1e-9), mc) is Containment.ABOVE
        assert validate_lattice(price * (1 - 1e-9), mc) is Containment.BELOW

    @pytest.mark.parametrize("field", ["price", "ci_low", "ci_high"])
    def test_nan_is_never_contained(self, field):
        r = self.result(0.5)
        lattice = math.nan if field == "price" else 0.5
        if field != "price":
            r = replace(r, **{field: math.nan})
        with pytest.raises(ValueError, match="^cannot place lattice price"):
            validate_lattice(lattice, r)

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


class TestFrozenPaths:
    """Monte Carlo outputs pinned bit for bit.

    ``PATHS`` was captured from numpy 2.4 on x86-64 with the allocating
    step loop that drew ``eps_price`` and ``eps_vol`` one call each per
    step; the in-place blocked kernel must reproduce every bit. ``PRICES``
    was re-pinned when ``mc_price`` moved to antithetic pairs. Its
    ``n_paths`` covers two pairs, drawn halves on both sides of a
    path-block edge, and criterion 6's path count.
    """

    CONTRACT = OptionContract(strike=0.5, expiry_T=31 / 365, rate_r=0.05, steps_n=100, ctr=0.03)
    PRICES = {
        ("EULER", 4): ("0x1.6d6bd80d41d81p-3", "0x1.889079d2f921ep-9"),
        ("EULER", 65534): ("0x1.5b973d517b6a7p-3", "0x1.92d7c15018d0dp-14"),
        ("EULER", 65538): ("0x1.5b8bfaf1f0bddp-3", "0x1.979d8e1d9140ap-14"),
        ("EULER", 100000): ("0x1.5c0a46308debep-3", "0x1.4e2ad1ed01af9p-14"),
        ("MILSTEIN", 4): ("0x1.6d66bb6b710cfp-3", "0x1.87dd1cade06f3p-9"),
        ("MILSTEIN", 65534): ("0x1.5b97251f28dcep-3", "0x1.92d44788c3de5p-14"),
        ("MILSTEIN", 65538): ("0x1.5b8bd64f1976ep-3", "0x1.979667b31b0dfp-14"),
        ("MILSTEIN", 100000): ("0x1.5c0a4fcf36f41p-3", "0x1.4e2900123fd4ep-14"),
    }
    PATHS = {
        ("EULER", 1): "baf96338a3f553d6593582b6de1f9546b28664fcb54261be9b1fffcd516e0d68",
        ("EULER", 300): "49e13e2f3107f0d73a6f6045dd3e8f4e70eb708c4f84c954374a779f0c5ea499",
        ("MILSTEIN", 1): "db1829976278661fd171fdc992cb9d476f64ddc831cc5ee37d6dadbea6d7a15f",
        ("MILSTEIN", 300): "ad3366e97b3614098cf3b294029327a4bb472e1d4d1c09058a47cbd1b4a1cd86",
    }

    def test_block_edges_are_pinned(self):
        assert {n for _, n in self.PRICES} == {4, 2 * (PATH_BLOCK - 1), 2 * (PATH_BLOCK + 1), 100_000}

    @pytest.mark.parametrize("scheme,n_paths", sorted(PRICES))
    def test_mc_price(self, scheme, n_paths):
        r = mc_price(BASE_SV, self.CONTRACT, McConfig(Scheme[scheme], n_paths, 50, seed=7))
        assert (r.price.hex(), r.std_error.hex()) == self.PRICES[scheme, n_paths]

    @pytest.mark.parametrize("scheme,n_paths", sorted(PATHS))
    def test_sample_paths(self, scheme, n_paths):
        paths = sample_paths(BASE_SV, 0.1, 1 / 365, 365, n_paths, Scheme[scheme], seed=5)
        assert paths.shape == (n_paths, 366)
        assert hashlib.sha256(paths.tobytes()).hexdigest() == self.PATHS[scheme, n_paths]


class TestBatchedSweep:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rows_equal_single_point_prices(self, scheme):
        cfg = McConfig(scheme, n_paths=PATH_BLOCK + 1000, steps=20, seed=42)
        values = [1.0, 2.25, 3.5, 4.75, 6.0]
        rows = containment_sweep(BASE_SV, BASE_CONTRACT, cfg, "kappa", values)
        for row, value in zip(rows, values):
            single = mc_price(replace(BASE_SV, kappa=value), BASE_CONTRACT, cfg)
            assert (row.mc_price.hex(), row.ci_low.hex(), row.ci_high.hex()) == (
                single.price.hex(), single.ci_low.hex(), single.ci_high.hex())

    def test_points_above_the_group_budget_walk_alone(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "SWEEP_GROUP_PATHS", 100)
        cfg = McConfig(Scheme.EULER, n_paths=1000, steps=5, seed=3)
        rows = containment_sweep(BASE_SV, BASE_CONTRACT, cfg, "kappa", [2.0, 4.0])
        for row, value in zip(rows, [2.0, 4.0]):
            assert row.mc_price == mc_price(replace(BASE_SV, kappa=value), BASE_CONTRACT, cfg).price

    def test_group_of_points_is_capped(self):
        cfg = McConfig(Scheme.EULER, n_paths=100, steps=1, seed=42)
        with pytest.raises(ValueError, match="exceeds supported maximum"):
            mc_price([BASE_SV] * (MAX_MC_PATHS // 100 + 1), BASE_CONTRACT, cfg)

    def test_criterion_6_sweep_is_one_group(self):
        assert SWEEP_GROUP_PATHS // 100_000 == 5

    def test_peak_memory_stays_at_one_group(self, monkeypatch):
        # two points of 40k paths fill a group, so six points walk three groups
        monkeypatch.setattr(montecarlo, "SWEEP_GROUP_PATHS", 80_000)
        cfg = McConfig(Scheme.EULER, n_paths=40_000, steps=2, seed=1)
        contract = OptionContract(strike=0.633, expiry_T=31 / 365, rate_r=0.05, steps_n=10, ctr=0.03)

        def peak(points):
            values = list(np.linspace(2.0, 4.0, points))
            tracemalloc.start()
            try:
                containment_sweep(BASE_SV, contract, cfg, "kappa", values)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_group = peak(2)
        # the group's state alone: price and volatility of 2 x 40k paths
        assert one_group > 2 * 2 * 40_000 * 8
        assert peak(6) < one_group + 64 * 1024

    def test_sweep_budget(self):
        # criterion 6 and the CLI defaults are admitted
        check_sweep(McConfig(Scheme.EULER, n_paths=100_000, steps=200, seed=42), 5)
        check_sweep(McConfig(Scheme.EULER, n_paths=100_000, steps=200, seed=42),
                    MAX_SWEEP_PATH_STEPS // (100_000 * 200))
        with pytest.raises(ValueError, match="points \\* n_paths \\* steps = 10020000000 exceeds"):
            check_sweep(McConfig(Scheme.EULER, n_paths=100_000, steps=200, seed=42), 501)
        with pytest.raises(ValueError, match=f"sweep of {MAX_SWEEP_POINTS + 1} points exceeds"):
            check_sweep(McConfig(Scheme.EULER, n_paths=4, steps=1, seed=42), MAX_SWEEP_POINTS + 1)

    def test_sweep_refuses_before_allocating(self):
        cfg = McConfig(Scheme.EULER, n_paths=100_000, steps=200, seed=42)
        values = [3.0] * 501
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds supported maximum"):
                containment_sweep(BASE_SV, BASE_CONTRACT, cfg, "kappa", values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
