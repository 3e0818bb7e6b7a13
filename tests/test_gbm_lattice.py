import io
import math
import sys
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import binom

from firstlook import gbm_lattice
from firstlook.contracts import GbmParams, OptionContract, StrikeBasis, per_click_value
from firstlook.gbm_lattice import (
    DEFAULT_STRETCH,
    MAX_BINOMIAL_STEPS,
    MAX_TRINOMIAL_STEPS,
    LatticeMethod,
    MethodKind,
    binomial_price_sum,
    closed_form_price,
    complementary_binomial_price,
    convergence_report,
    lattice_price,
    movement_params,
    _binomial_log_values,
    _binomial_log_weights,
    _binomial_step,
    _exercise_boundary,
    _trinomial_log_weights,
    _upper_tail,
    report_to_csv,
    trinomial_price,
)
from induction_oracle import induction_price

# benchmark configuration: in-the-money one-month call on a 2.0 CPM slot
ITM = dict(strike=0.005, expiry_T=31 / 365, rate_r=0.05, ctr=0.3)
# mpmath 40-digit evaluation of the closed form on the ITM configuration
GOLDEN_ITM = 0.0016949026752235633441


def contract(n=100, **overrides):
    base = dict(ITM, steps_n=n)
    base.update(overrides)
    return OptionContract(**base)


PARAMS = GbmParams(spot_M0=2.0, sigma=0.5)


def method(kind, lam=DEFAULT_STRETCH):
    return LatticeMethod(kind, lam)


def assert_refused_before_allocating(pricer, c, kind):
    """The pricer refuses ``c``'s step count before building any grid."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds"):
            pricer(PARAMS, c, method(kind))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def branches(mv):
    """(probability, scale) of each branch of a step, top branch first."""
    return zip(mv.probs, mv.moves)


def step_mp(kind, lam, sigma, rate, dt):
    """The step's moves and probabilities, top branch first, from the
    textbook formulas at the working precision; the Boyle and Tian
    trinomial probabilities solve the three moment equations directly."""
    g = mpmath.exp(rate * dt)
    z = mpmath.exp(sigma**2 * dt)
    if kind is MethodKind.CRR:
        u = mpmath.exp(sigma * mpmath.sqrt(dt))
        moves = (u, 1 / u)
    elif kind is MethodKind.TIAN_BIN:
        root = mpmath.sqrt(z * z + 2 * z - 3)
        moves = (g * z * (z + 1 + root) / 2, g * z * (z + 1 - root) / 2)
    elif kind is MethodKind.HAAHTELA_BIN:
        half_width = mpmath.sqrt(z - 1)
        moves = (mpmath.exp(half_width + rate * dt), mpmath.exp(-half_width + rate * dt))
    elif kind is MethodKind.TIAN_TRIN:
        m = g * z * z
        w = g * (z**4 + z**3) / 2
        moves = (w + mpmath.sqrt(w * w - m * m), m, w - mpmath.sqrt(w * w - m * m))
    else:
        u = mpmath.exp(lam * sigma * mpmath.sqrt(dt))
        moves = (u, mpmath.mpf(1), 1 / u)
    if len(moves) == 2:
        u, d = moves
        return moves, ((g - d) / (u - d), (u - g) / (u - d))
    if kind is MethodKind.KR_TRIN:
        tilt = (rate - sigma**2 / 2) * mpmath.sqrt(dt) / (2 * lam * sigma)
        return moves, (1 / (2 * lam**2) + tilt, 1 - 1 / lam**2, 1 / (2 * lam**2) - tilt)
    powers = mpmath.matrix([[1, 1, 1], list(moves), [s * s for s in moves]])
    return moves, tuple(mpmath.lu_solve(powers, mpmath.matrix([1, g, g * g * z])))


def exercise_boundary_by_scan(log_values, strike):
    """Reference: the first node whose terminal value reaches the strike."""
    if strike <= 0:
        return 0
    threshold = math.log(strike)
    for j, lv in enumerate(log_values):
        if lv >= threshold:
            return j
    return len(log_values)


class TestMovementParams:
    def test_crr_formulas(self):
        dt = (31 / 365) / 100
        mv = movement_params(method(MethodKind.CRR), 0.5, 0.05, dt)
        assert mv.u == pytest.approx(math.exp(0.5 * math.sqrt(dt)), rel=1e-15)
        assert mv.d == pytest.approx(1.0 / mv.u, rel=1e-15)
        q = (math.exp(0.05 * dt) - mv.d) / (mv.u - mv.d)
        assert len(mv.moves) == len(mv.probs) == 2
        assert mv.probs[0] == pytest.approx(q, rel=1e-15)
        assert mv.probs[1] == pytest.approx(1.0 - q, rel=1e-15)

    def test_kr_stretch_one_reduces_to_binomial(self):
        dt = 0.01
        mv = movement_params(method(MethodKind.KR_TRIN, 1.0), 0.5, 0.05, dt)
        q1, q2, q3 = mv.probs
        assert q2 == 0.0
        assert q1 + q3 == pytest.approx(1.0, abs=1e-15)

    def test_tian_trinomial_middle_scale(self):
        dt = (31 / 365) / 50
        mv = movement_params(method(MethodKind.TIAN_TRIN), 0.5, 0.05, dt)
        assert mv.moves[1] == pytest.approx(math.exp(0.05 * dt) * math.exp(2 * 0.25 * dt), rel=1e-14)

    @pytest.mark.parametrize("sigma", [0.01, 0.053, 0.5, 1.5])
    @pytest.mark.parametrize("dt", [1e-8, 1.5e-4, 1e-2, 0.5])
    @pytest.mark.parametrize("rate", [0.0, 0.1])
    def test_tian_trinomial_probabilities_against_mpmath(self, sigma, dt, rate):
        # Tian's textbook q1 and q3 at 50 digits; in floats their O(1) terms
        # cancel down to O(sigma^2 dt), which cost up to 4e-5 absolute at dt 1e-8
        mv = movement_params(method(MethodKind.TIAN_TRIN), sigma, rate, dt)
        with mpmath.workdps(50):
            g = mpmath.exp(mpmath.mpf(rate) * dt)
            z = mpmath.exp(mpmath.mpf(sigma) ** 2 * dt)
            m = g * z * z
            w = g * (z**4 + z**3) / 2
            u, d = w + mpmath.sqrt(w * w - m * m), w - mpmath.sqrt(w * w - m * m)
            q1 = (m * d - g * (m + d) + g * g * z) / ((u - d) * (u - m))
            q3 = (u * m - g * (u + m) + g * g * z) / ((u - d) * (m - d))
            assert abs(mv.probs[0] - q1) <= 1e-15
            assert abs(mv.probs[2] - q3) <= 1e-15

    @pytest.mark.parametrize("kind", list(MethodKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("sigma", [0.01, 0.05, 0.2, 0.5, 1.5])
    @pytest.mark.parametrize("dt", [1e-8, 1e-6, 1e-4, 1e-2, 0.5])
    # at rate 0.1 the CRR step at sigma 0.01, dt 0.01 sits on its boundary g = u
    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.08])
    def test_step_against_mpmath(self, kind, sigma, dt, rate):
        # every parameterization's moves at 50 digits, and Boyle's probabilities,
        # whose moment equations cancel to O(sigma^2 dt) when written in u, g and z
        with mpmath.workdps(50):
            moves, probs = step_mp(
                kind, mpmath.mpf(DEFAULT_STRETCH), mpmath.mpf(sigma), mpmath.mpf(rate), mpmath.mpf(dt)
            )
            if not all(0 <= q <= 1 for q in probs):
                with pytest.raises(ValueError, match="lies outside"):
                    movement_params(method(kind), sigma, rate, dt)
                return
            mv = movement_params(method(kind), sigma, rate, dt)
            assert len(mv.moves) == len(moves)
            for i, (got, exact) in enumerate(zip(mv.moves, moves)):
                # tian-trin's d = m - (root - w_m) cancels once sigma^2 dt nears 1:
                # 4.4e-15 relative at sigma 1.5, dt 0.5
                bound = 5e-15 if (kind, i) == (MethodKind.TIAN_TRIN, 2) else 1e-15
                assert abs(got - exact) <= bound * exact
            if kind is MethodKind.BOYLE_TRIN and sigma >= 0.05 and dt >= 1e-6:
                for got, exact in zip(mv.probs, probs):
                    assert abs(got - exact) <= 1e-13 * exact

    def test_tian_trinomial_prices_at_tiny_sigma(self):
        # the moves spread by sqrt(3 sigma^2 dt) about m, which w^2 - m^2 lost to roundoff
        params = GbmParams(spot_M0=2.0, sigma=1e-9)
        c = contract(n=100)
        price = trinomial_price(params, c, method(MethodKind.TIAN_TRIN))
        assert price == pytest.approx(closed_form_price(params, c), rel=1e-12)

    @pytest.mark.parametrize("kind", list(MethodKind))
    @pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("dt", [1e-4, 1e-3, 1e-2])
    def test_probabilities_normalized(self, kind, sigma, dt):
        probs, scales = zip(*branches(movement_params(method(kind), sigma, 0.05, dt)))
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= q <= 1.0 for q in probs)
        assert all(s > 0 for s in scales)
        assert all(a > b for a, b in zip(scales, scales[1:]))

    @pytest.mark.parametrize(
        "kind",
        [
            MethodKind.CRR,
            MethodKind.TIAN_BIN,
            MethodKind.HAAHTELA_BIN,
            MethodKind.BOYLE_TRIN,
            MethodKind.TIAN_TRIN,
        ],
    )
    @pytest.mark.parametrize("sigma,rate,dt", [(0.5, 0.05, 1e-3), (0.2, 0.0, 1e-2), (1.0, 0.1, 1e-4)])
    def test_first_moment_matches_riskless_growth(self, kind, sigma, rate, dt):
        mv = movement_params(method(kind), sigma, rate, dt)
        first = sum(q * s for q, s in branches(mv))
        assert first == pytest.approx(math.exp(rate * dt), abs=1e-10)

    @pytest.mark.parametrize(
        "kind", [MethodKind.TIAN_BIN, MethodKind.BOYLE_TRIN, MethodKind.TIAN_TRIN]
    )
    @pytest.mark.parametrize("sigma,rate,dt", [(0.5, 0.05, 1e-3), (0.2, 0.0, 1e-2), (1.0, 0.1, 1e-4)])
    def test_second_moment_matches_lognormal(self, kind, sigma, rate, dt):
        mv = movement_params(method(kind), sigma, rate, dt)
        second = sum(q * s * s for q, s in branches(mv))
        target = math.exp(2 * rate * dt) * math.exp(sigma * sigma * dt)
        assert second == pytest.approx(target, abs=1e-10)

    @pytest.mark.parametrize(
        "kind,sigma,rate,dt,match",
        [
            # riskless growth above the up move forces q1 > 1
            (MethodKind.CRR, 0.1, 0.5, 0.5, "q1 = "),
            # sigma * sqrt(dt) so small that the moves round onto each other:
            # refused before the probabilities divide by their zero gap
            *((kind, 1e-300, rate, 0.085 / 500, "the moves")
              for kind in (MethodKind.CRR, MethodKind.TIAN_BIN, MethodKind.HAAHTELA_BIN,
                           MethodKind.BOYLE_TRIN, MethodKind.TIAN_TRIN)
              for rate in (0.05, 0.0)),
            (MethodKind.TIAN_BIN, 1e-15, 0.0, 0.085 / 500, "the moves"),
            (MethodKind.TIAN_TRIN, 1e-15, 0.05, 0.085 / 500, "the moves"),
        ],
    )
    def test_invalid_parameterization_is_hard_error(self, kind, sigma, rate, dt, match):
        with pytest.raises(ValueError, match=f"^invalid parameterization for {kind.value}: {match}"):
            movement_params(method(kind), sigma, rate, dt)

    def test_boyle_small_stretch_rejected_by_probability_check(self):
        with pytest.raises(ValueError, match="invalid parameterization"):
            movement_params(method(MethodKind.BOYLE_TRIN, 1.0), 0.05, 0.3, 0.25)

    def test_stretch_below_one_rejected(self):
        with pytest.raises(ValueError, match="stretch_lambda"):
            LatticeMethod(MethodKind.KR_TRIN, 0.9)

    @pytest.mark.parametrize("bad", [dict(sigma=0.0), dict(dt=0.0), dict(sigma=-0.5)])
    def test_degenerate_inputs_rejected(self, bad):
        kwargs = dict(sigma=0.5, dt=0.01)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            movement_params(method(MethodKind.CRR), kwargs["sigma"], 0.05, kwargs["dt"])


def binomial_price_mp(params, c, m):
    """The lattice's discounted expected payoff, summed at 40 digits outward
    from the mode until the weights fall below 1e-60."""
    move = movement_params(m, params.sigma, c.rate_r, c.dt)
    n = c.steps_n
    with mpmath.workdps(40):
        p, u, d = mpmath.mpf(move.probs[0]), mpmath.mpf(move.u), mpmath.mpf(move.d)
        spot, strike = mpmath.mpf(per_click_value(params.spot_M0, c.ctr)), mpmath.mpf(c.strike)
        total = mpmath.mpf(0)
        for k, step in ((int(n * move.probs[0]), 1), (int(n * move.probs[0]) - 1, -1)):
            weight = mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1)
                                - mpmath.loggamma(n - k + 1) + k * mpmath.log(p)
                                + (n - k) * mpmath.log1p(-p))
            value = spot * u**k * d ** (n - k)
            while 0 <= k <= n and weight > 1e-60:
                if value > strike:
                    total += weight * (value - strike)
                elif step < 0:
                    break  # every lower node is out of the money too
                if step > 0:
                    weight, value = weight * (n - k) / (k + 1) * p / (1 - p), value * u / d
                else:
                    weight, value = weight * k / (n - k + 1) * (1 - p) / p, value * d / u
                k += step
        return float(total * mpmath.exp(-mpmath.mpf(c.rate_r) * mpmath.mpf(c.expiry_T)))


class TestBinomialPricers:
    def test_single_step_equals_hand_expectation(self):
        c = contract(n=1)
        mv = movement_params(method(MethodKind.CRR), 0.5, 0.05, c.dt)
        up = max(mv.u * 2.0 / 300.0 - 0.005, 0.0)
        down = max(mv.d * 2.0 / 300.0 - 0.005, 0.0)
        expected = math.exp(-0.05 * c.dt) * (mv.probs[0] * up + mv.probs[1] * down)
        got = binomial_price_sum(PARAMS, c, method(MethodKind.CRR))
        assert got == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("kind", [MethodKind.CRR, MethodKind.TIAN_BIN, MethodKind.HAAHTELA_BIN])
    def test_step_cap_matches_exact_lattice_sum(self, kind):
        # the log-gamma weights put these prices 1.5e-10 off the sum
        c = contract(n=MAX_BINOMIAL_STEPS)
        expected = binomial_price_mp(PARAMS, c, method(kind))
        assert binomial_price_sum(PARAMS, c, method(kind)) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_zero_strike_reduces_to_spot_value(self):
        c = contract(n=200, strike=0.0)
        price = binomial_price_sum(PARAMS, c, method(MethodKind.CRR))
        assert price == pytest.approx(per_click_value(2.0, 0.3), rel=1e-12)

    @pytest.mark.parametrize("kind", [MethodKind.CRR, MethodKind.TIAN_BIN, MethodKind.HAAHTELA_BIN])
    @pytest.mark.parametrize("sigma", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("strike", [0.003, 0.0067, 0.012])
    def test_sum_and_complementary_routes_agree(self, kind, sigma, strike):
        p = GbmParams(spot_M0=2.0, sigma=sigma)
        for n in (13, 144, 500):
            c = contract(n=n, strike=strike)
            direct = binomial_price_sum(p, c, method(kind))
            tail = complementary_binomial_price(p, c, method(kind))
            assert tail == pytest.approx(direct, rel=1e-10)

    def test_routes_agree_deep_out_of_the_money(self):
        # tail sums around 1e-73: the two routes must still agree relatively
        c = contract(n=500, strike=0.075)
        direct = binomial_price_sum(PARAMS, c, method(MethodKind.CRR))
        tail = complementary_binomial_price(PARAMS, c, method(MethodKind.CRR))
        assert direct > 0
        assert tail == pytest.approx(direct, rel=1e-10)

    def test_deep_in_the_money_boundary_zero(self):
        # every terminal node in the money: price is the forward parity value
        p = GbmParams(spot_M0=5000.0, sigma=0.2)
        c = contract(n=50)
        expected = per_click_value(5000.0, 0.3) - 0.005 * math.exp(-0.05 * c.expiry_T)
        assert complementary_binomial_price(p, c, method(MethodKind.CRR)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_one_step_complementary_route_by_hand(self):
        # one step, only the up node in the money: the underlying leg weighs the
        # up branch under the measure shifted by u over the riskless growth e^(r dt)
        c = contract(n=1, strike=0.0067)
        mv = movement_params(method(MethodKind.CRR), 0.5, c.rate_r, c.dt)
        spot = per_click_value(2.0, 0.3)
        assert spot * mv.d < c.strike < spot * mv.u
        q = mv.probs[0]
        q_shift = q * mv.u / math.exp(c.rate_r * c.dt)
        expected = spot * q_shift - c.strike * math.exp(-c.rate_r * c.expiry_T) * q
        got = complementary_binomial_price(PARAMS, c, method(MethodKind.CRR))
        assert got == pytest.approx(expected, rel=1e-13)

    def test_strike_above_whole_lattice_prices_zero(self):
        c = contract(n=50, strike=1e9)
        assert complementary_binomial_price(PARAMS, c, method(MethodKind.CRR)) == 0.0
        assert binomial_price_sum(PARAMS, c, method(MethodKind.CRR)) == 0.0

    def test_trinomial_method_rejected(self):
        with pytest.raises(ValueError, match="not a binomial"):
            binomial_price_sum(PARAMS, contract(), method(MethodKind.BOYLE_TRIN))

    def test_step_cap(self):
        for route in (binomial_price_sum, complementary_binomial_price):
            assert_refused_before_allocating(route, contract(n=MAX_BINOMIAL_STEPS + 1), MethodKind.CRR)


class TestExerciseBoundary:
    def test_matches_scan_on_random_grids(self):
        rng = np.random.default_rng(20140101)
        for _ in range(300):
            n = int(rng.integers(1, 400))
            c = contract(n=n)
            kind = [MethodKind.CRR, MethodKind.TIAN_BIN, MethodKind.HAAHTELA_BIN][int(rng.integers(3))]
            sigma = float(rng.uniform(0.05, 1.5))
            # spot_M0 / (1000 * ctr) puts the per-click spot in [0.001, 0.1]
            p = GbmParams(spot_M0=float(rng.uniform(0.3, 30.0)), sigma=sigma)
            move, spot = _binomial_step(p, c, method(kind))
            log_values = _binomial_log_values(spot, move, n, np.arange(n + 1))
            node = float(np.exp(log_values[int(rng.integers(n + 1))]))
            near = (np.nextafter(node, 0.0), node, np.nextafter(node, np.inf))
            for strike in (0.0, *near, float(rng.uniform(0.0, 0.2)), 1e9):
                expected = exercise_boundary_by_scan(log_values, strike)
                assert _exercise_boundary(spot, move, n, strike) == expected


def upper_tails_mp(n, p):
    """Exact P(X >= j) for j = 0..n, X ~ Binomial(n, p), summed at 50 digits."""
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        term = (1 - p) ** n
        terms = [term]
        for i in range(n):
            term = term * (n - i) / (i + 1) * p / (1 - p)
            terms.append(term)
        tails = [mpmath.mpf(0)] * (n + 1)
        acc = mpmath.mpf(0)
        for j in range(n, -1, -1):
            acc += terms[j]
            tails[j] = acc
        return tails


class TestUpperTail:
    @pytest.mark.parametrize("n", [1, 2, 13, 144, 500, 2000])
    def test_matches_exact_sum(self, n):
        rng = np.random.default_rng(n)
        for p in (rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.01), 1.0 - rng.uniform(0.0, 0.01)):
            exact = upper_tails_mp(n, float(p))
            for j in sorted({0, 1, n // 2, n}):
                got = _upper_tail(j, n, float(p))
                if exact[j] < sys.float_info.min:
                    # below the normal range only the underflow itself can be checked
                    assert got < 2 * sys.float_info.min
                else:
                    assert abs(got - exact[j]) <= 1e-12 * exact[j], (j, n, p)

    def test_matches_binom_sf(self):
        # worst gap on these cases: 9.3e-13 relative (n 72804, j 19769, p 0.2253);
        # on the twelve largest gaps mpmath puts this tail within 4.0e-13 of the
        # exact sum, and binom.sf within 9.1e-13
        rng = np.random.default_rng(20140102)
        for case in range(2000):
            n = int(rng.integers(1, MAX_BINOMIAL_STEPS + 1))
            k = int(rng.integers(-1, n))
            p = [rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.01), 1.0 - rng.uniform(0.0, 0.01),
                 0.0, 1.0][case % 5]
            got = _upper_tail(k + 1, n, float(p))
            expected = float(binom.sf(k, n, p))
            if expected < sys.float_info.min:
                # below the normal range only the underflow itself can be checked
                assert got < 2 * sys.float_info.min, (n, k, p)
            else:
                assert abs(got - expected) <= 2e-12 * expected, (n, k, p)

    def test_fraction_cap_is_a_one_line_error(self, monkeypatch):
        monkeypatch.setattr(gbm_lattice, "MAX_FRACTION_TERMS", 5)
        with pytest.raises(ValueError, match=r"did not converge in 5 terms$"):
            _upper_tail(5_000, 10_000, 0.5)


def log_weights_mp(n, q, nodes):
    """Exact log P(X = j), X ~ Binomial(n, q), at 40 digits."""
    with mpmath.workdps(40):
        q = mpmath.mpf(q)
        return [
            mpmath.loggamma(n + 1) - mpmath.loggamma(j + 1) - mpmath.loggamma(n - j + 1)
            + j * mpmath.log(q) + (n - j) * mpmath.log1p(-q)
            for j in map(int, nodes)
        ]


class TestBinomialLogWeights:
    @pytest.mark.parametrize("q", [3e-3, 0.4999, 0.997])
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 1000, 40_000, 100_000])
    def test_at_least_as_accurate_as_log_gamma(self, n, q):
        mode, sd = math.floor((n + 1) * q), math.sqrt(n * q * (1.0 - q))
        nodes = np.array(sorted({
            min(max(j, 0), n)
            for j in (0, 1, mode - round(3 * sd), mode, mode + round(3 * sd), n - 1, n)
        }))
        exact = log_weights_mp(n, q, nodes)

        def errors(got):
            return np.array([abs(float(mpmath.mpf(g) - e)) for g, e in zip(got, exact)])

        new = errors(_binomial_log_weights(n, q, nodes))
        # the log-gamma form is the baseline to match
        old = errors(gammaln(n + 1) - gammaln(nodes + 1) - gammaln(n - nodes + 1)
                     + nodes * math.log(q) + (n - nodes) * math.log1p(-q))
        # two ulps of the value itself is as close as a float formula gets
        floor = 2 * np.spacing(np.abs(np.array(exact, dtype=float)))
        assert np.all((new <= floor) | (new <= old.max())), (new, old)

    @pytest.mark.parametrize("n", [1, 7, 10_000, 40_000])
    def test_terminal_sum_drops_only_underflowing_nodes(self, n):
        # binomial_price_sum sums the in-the-money nodes within sqrt(373 n) of
        # the mean; the nodes it leaves out weigh exactly 0 once exponentiated
        m = method(MethodKind.CRR)
        for strike in (0.0, 0.004, 0.005, 0.006, 0.1):
            c = contract(n=n, strike=strike)
            move, spot = _binomial_step(PARAMS, c, m)
            j = np.arange(n + 1)
            q = move.probs[0]
            weight = np.exp(_binomial_log_weights(n, q, j))
            assert not weight[np.abs(j - n * q) > math.sqrt(373 * n)].any()
            intrinsic = np.maximum(np.exp(_binomial_log_values(spot, move, n, j)) - strike, 0.0)
            full = float(np.sum(weight * intrinsic)) * math.exp(-c.rate_r * c.expiry_T)
            assert binomial_price_sum(PARAMS, c, m) == pytest.approx(full, rel=1e-14, abs=0)

    @pytest.mark.parametrize("zero", ["q1", "q2", "q3"])
    def test_two_move_trinomial_drops_only_underflowing_nodes(self, zero):
        n = 5_000
        probs = {"q3": 0.25, "q2": 0.45, "q1": 0.3, zero: 0.0}
        got = np.exp(_trinomial_log_weights(n, probs["q1"], probs["q2"], probs["q3"]))
        # the binomial walk on the two moves left, with every node weighed
        (lo, down), (hi, up) = [(k, v) for k, (name, v) in enumerate(probs.items()) if name != zero]
        p = up / (down + up)
        expected = np.zeros(2 * n + 1)
        expected[lo * n : hi * n + 1 : hi - lo] = np.exp(_binomial_log_weights(n, p, np.arange(n + 1)))
        assert np.array_equal(got, expected)


class TestTrinomialPricer:
    def test_strike_above_lattice_prices_zero(self):
        c = contract(n=1, strike=1e9)
        assert trinomial_price(PARAMS, c, method(MethodKind.BOYLE_TRIN)) == 0.0

    def test_binomial_method_rejected(self):
        with pytest.raises(ValueError, match="not a trinomial"):
            trinomial_price(PARAMS, contract(), method(MethodKind.CRR))

    def test_step_cap(self):
        c = contract(n=MAX_TRINOMIAL_STEPS + 1)
        assert_refused_before_allocating(trinomial_price, c, MethodKind.TIAN_TRIN)

    def test_boyle_converges_to_closed_form(self):
        c = contract(n=1000)
        price = trinomial_price(PARAMS, c, method(MethodKind.BOYLE_TRIN, math.sqrt(1.5)))
        assert price == pytest.approx(GOLDEN_ITM, rel=1e-3)

    def test_tian_beats_crr_at_hundred_steps(self):
        c = contract(n=100)
        err_tian = abs(trinomial_price(PARAMS, c, method(MethodKind.TIAN_TRIN)) - GOLDEN_ITM)
        err_crr = abs(binomial_price_sum(PARAMS, c, method(MethodKind.CRR)) - GOLDEN_ITM)
        assert err_tian < err_crr


TRINOMIALS = (MethodKind.BOYLE_TRIN, MethodKind.KR_TRIN, MethodKind.TIAN_TRIN)


def assert_matches_induction(params, c, m):
    """The terminal sum is within 1e-10 of the plain backward induction, and
    exactly 0 where the induction prices 0."""
    expected = induction_price(params, c, m)
    got = trinomial_price(params, c, m)
    if expected == 0.0:
        assert got == 0.0
    else:
        assert abs(got - expected) <= 1e-10 * expected, (got, expected)


class TestTrinomialAgainstInduction:
    """The terminal sum against the O(n^2) induction of ``induction_oracle``."""

    # strike on the strike's basis, from the spot and the top terminal node there
    STRIKES = {
        "zero": lambda spot, top: 0.0,
        "deep-itm": lambda spot, top: 0.1 * spot,
        "atm": lambda spot, top: spot,
        "otm": lambda spot, top: 1.3 * spot,
        # criterion 1's OUT_MONEY strike, 16.65 sigma out of the money at sigma 0.5
        "out-of-the-money": lambda spot, top: 0.075,
        "above-every-node": lambda spot, top: 2.0 * top,
    }

    @pytest.mark.parametrize("strike", sorted(STRIKES))
    @pytest.mark.parametrize("n", [1, 2, 3, 100, 1000, 5000, 20_000])
    @pytest.mark.parametrize("kind", TRINOMIALS, ids=lambda k: k.value)
    def test_agrees(self, kind, n, strike):
        # sigma and rate are seeded draws around PARAMS and ITM
        rng = np.random.default_rng([20140102, TRINOMIALS.index(kind), n])
        params = GbmParams(spot_M0=2.0, sigma=float(rng.uniform(0.45, 0.55)))
        c = contract(n, rate_r=float(rng.uniform(0.0, 0.1)))
        m = method(kind)
        move = movement_params(m, params.sigma, c.rate_r, c.dt)
        spot = per_click_value(params.spot_M0, c.ctr)
        c = replace(c, strike=self.STRIKES[strike](spot, spot * move.u**n))
        assert_matches_induction(params, c, m)

    @pytest.mark.parametrize(
        "lam,sigma,rate,dt,zeros",
        [
            (1.0, 0.5, 0.05, 0.001, ["q2"]),
            (2.0, 1.0, 1.5, 0.25, ["q3"]),
            (2.0, 1.0, -0.5, 0.25, ["q1"]),
            (1.0, 1.0, 1.5, 1.0, ["q2", "q3"]),
        ],
        ids=["q2", "q3", "q1", "q2-q3"],
    )
    def test_zero_probabilities(self, lam, sigma, rate, dt, zeros):
        # Kamrad-Ritchken inputs that zero one or two probabilities exactly;
        # two moves are left, so the walk is a binomial
        m = method(MethodKind.KR_TRIN, lam)
        move = movement_params(m, sigma, rate, dt)
        assert [f"q{i}" for i, q in enumerate(move.probs, 1) if q == 0.0] == zeros
        params = GbmParams(spot_M0=2.0, sigma=sigma)
        spot = per_click_value(params.spot_M0, 0.3)
        for strike in (0.0, spot, 1.3 * spot):
            c = contract(100, strike=strike, expiry_T=100 * dt, rate_r=rate)
            assert c.dt == dt
            assert_matches_induction(params, c, m)


class TestFrozenOutputs:
    """Bits of the trinomial prices, frozen from numpy 2.4 on x86-64.

    Each row is (boyle-trin, kr-trin, tian-trin) on PARAMS. The cases
    cover small n, strike 0, the whole grid above every node, deep in
    and out of the money, and a per-mille strike.
    """

    PRICES = {
        "n1": (dict(steps_n=1, strike=0.007),
               ("0x1.42b5991f3800bp-12", "0x1.3f436fdd7f5dbp-12", "0x1.55cf0a82949e7p-13")),
        "n2": (dict(steps_n=2, strike=0.007),
               ("0x1.28a4ee475d97ap-12", "0x1.2784339171ce8p-12", "0x1.b87af2d552e85p-13")),
        "n3": (dict(steps_n=3, strike=0.007),
               ("0x1.23a17b30e9065p-12", "0x1.22db8ac4606aep-12", "0x1.e0b170ed0fee8p-13")),
        "n1000": (dict(steps_n=1000, strike=0.007),
                  ("0x1.134e0beefbc92p-12", "0x1.134d7b755c304p-12", "0x1.13472dff6ddc2p-12")),
        "zero-strike": (dict(steps_n=50, strike=0.0),
                        ("0x1.b4e81b4e81b3ep-8", "0x1.b4e812ea8e338p-8", "0x1.b4e81b4e81aeep-8")),
        "above-every-node": (dict(steps_n=50, strike=1.0), ("0x0.0p+0",) * 3),
        "deep-itm": (dict(steps_n=50, strike=0.0005),
                     ("0x1.94470bc620b3dp-8", "0x1.944703622d336p-8", "0x1.94470bc620af0p-8")),
        "out-of-the-money": (dict(steps_n=200, strike=0.009),
                             ("0x1.252a0634d67f4p-17", "0x1.251c95d701aafp-17", "0x1.26d767a8330acp-17")),
        "per-mille": (dict(steps_n=50, strike=2.1, strike_basis=StrikeBasis.PER_MILLE),
                      ("0x1.4267cc636eb0fp-4", "0x1.425a814a22438p-4", "0x1.40fda48c7c944p-4")),
    }

    @pytest.mark.parametrize("case", sorted(PRICES))
    def test_price_bits(self, case):
        overrides, expected = self.PRICES[case]
        c = OptionContract(**{**ITM, **overrides})
        kinds = (MethodKind.BOYLE_TRIN, MethodKind.KR_TRIN, MethodKind.TIAN_TRIN)
        assert tuple(trinomial_price(PARAMS, c, method(k)).hex() for k in kinds) == expected


class TestClosedForm:
    def test_golden_value(self):
        assert closed_form_price(PARAMS, contract()) == pytest.approx(GOLDEN_ITM, rel=1e-12)

    def test_zero_strike(self):
        c = contract(strike=0.0)
        assert closed_form_price(PARAMS, c) == per_click_value(2.0, 0.3)

    def test_deterministic_limit(self):
        c = contract(rate_r=0.0)
        p = GbmParams(spot_M0=2.0, sigma=0.0)
        assert closed_form_price(p, c) == pytest.approx(2.0 / 300.0 - 0.005, rel=1e-12)

    def test_monotonicity(self):
        base = closed_form_price(PARAMS, contract())
        assert closed_form_price(PARAMS, contract(strike=0.006)) < base
        assert closed_form_price(GbmParams(spot_M0=2.2, sigma=0.5), contract()) > base
        assert closed_form_price(GbmParams(spot_M0=2.0, sigma=0.6), contract()) > base
        assert closed_form_price(PARAMS, contract(expiry_T=0.2)) > base

    def test_bounds(self):
        spot_value = per_click_value(2.0, 0.3)
        c = contract()
        price = closed_form_price(PARAMS, c)
        lower = max(spot_value - 0.005 * math.exp(-0.05 * c.expiry_T), 0.0)
        assert lower <= price <= spot_value


class TestPriceBounds:
    @pytest.mark.parametrize("kind", list(MethodKind))
    @pytest.mark.parametrize("strike", [0.001, 0.0067, 0.02])
    def test_lattice_prices_within_static_bounds(self, kind, strike):
        c = contract(n=150, strike=strike)
        price = lattice_price(PARAMS, c, method(kind))
        assert 0.0 <= price <= per_click_value(2.0, 0.3)

    @pytest.mark.parametrize("kind", list(MethodKind))
    def test_refinement_improves_on_coarse_grid(self, kind):
        coarse = abs(lattice_price(PARAMS, contract(n=50), method(kind)) - GOLDEN_ITM)
        fine = abs(lattice_price(PARAMS, contract(n=1000), method(kind)) - GOLDEN_ITM)
        assert fine < coarse


class TestConvergenceReport:
    def test_single_row_matches_single_step_price(self):
        rows = convergence_report(PARAMS, contract(n=1), [method(MethodKind.CRR)], [1])
        assert len(rows) == 1
        expected = binomial_price_sum(PARAMS, contract(n=1), method(MethodKind.CRR))
        assert rows[0].price == pytest.approx(expected, rel=1e-14)
        assert rows[0].abs_error == pytest.approx(abs(expected - GOLDEN_ITM), rel=1e-10)

    def test_full_grid_row_count_and_csv(self):
        rows = convergence_report(
            PARAMS, contract(), [LatticeMethod(k) for k in MethodKind], [10, 100]
        )
        assert len(rows) == 12
        buf = io.StringIO()
        report_to_csv(rows, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "method,n,price,abs_error"
        assert len(lines) == 13

    def test_row_level_failure_recorded_not_fatal(self):
        # a huge rate over a coarse grid breaks the CRR probabilities
        bad = contract(rate_r=3.0)
        rows = convergence_report(
            GbmParams(spot_M0=2.0, sigma=0.05), bad, [method(MethodKind.CRR)], [1, 2]
        )
        assert len(rows) == 2
        assert all(math.isnan(r.price) for r in rows)
        assert all(r.failure for r in rows)

    def test_unsorted_n_values_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            convergence_report(PARAMS, contract(), [method(MethodKind.CRR)], [100, 10])

    def test_empty_methods_rejected(self):
        with pytest.raises(ValueError, match="methods"):
            convergence_report(PARAMS, contract(), [], [10])
