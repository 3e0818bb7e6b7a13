import hashlib
import io
import math
import random
import re
import tracemalloc
from collections import deque
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from firstlook.contracts import GbmParams, OptionContract, SvParams
from firstlook.gbm_lattice import LatticeMethod, MethodKind, binomial_price_sum, closed_form_price
from firstlook.sv_lattice import (
    MAX_SV_STEPS,
    SvLattice,
    _backward_values,
    _step,
    build_censored_lattice,
    lattice_to_csv,
    nearest_grid_index,
    price_sv_option,
    vol_mean_path,
    walk_levels,
)
from mean_path_oracle import black_call, censoring_binds, mean_path_variance, mean_vol_path
from walk_oracle import censored_transition, exact_walk, oracle_levels

# empirical SSP-slot configuration: two-week option on a 0.7417 CPM slot
SSP_SV = SvParams(spot_M0=0.7417, sigma0=0.8723, kappa=96.4953, theta=0.2959, delta=14.9874)
SSP_CONTRACT = OptionContract(strike=0.0223, expiry_T=0.0384, rate_r=0.05, steps_n=14, ctr=0.03)
# criterion 6's setting
WIDE_SV = SvParams(spot_M0=20.0, sigma0=0.5, kappa=3.0, theta=0.75, delta=0.35)
WIDE_CONTRACT = OptionContract(strike=0.633, expiry_T=31 / 365, rate_r=0.05, steps_n=200, ctr=0.03)


class TestVolMeanPath:
    def test_initial_value(self):
        assert vol_mean_path(SSP_SV, 0.0) == pytest.approx(0.8723, rel=1e-15)

    def test_no_reversion_is_flat(self):
        sv = SvParams(spot_M0=1.0, sigma0=0.5, kappa=0.0, theta=0.9, delta=0.1)
        for t in (0.0, 0.1, 1.0, 10.0):
            assert vol_mean_path(sv, t) == 0.5

    def test_ssp_horizon_value(self):
        # mpmath 40-digit: 0.2959 + (0.8723-0.2959)*exp(-96.4953*0.0384)
        assert vol_mean_path(SSP_SV, 0.0384) == pytest.approx(0.31007361792708218, rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            vol_mean_path(SSP_SV, -0.1)


class TestNearestGridIndex:
    def test_on_grid_point(self):
        g = 0.25 * math.sqrt(0.01)
        assert nearest_grid_index(3 * g, g) == 3

    def test_tie_rounds_up(self):
        g = 0.4 * math.sqrt(0.04)
        assert nearest_grid_index(2.5 * g, g) == 3

    def test_negative_tie_rounds_toward_larger(self):
        g = 0.4 * math.sqrt(0.04)
        assert nearest_grid_index(-2.5 * g, g) == -2

    def test_ssp_spot_regression(self):
        # frozen: ln(0.7417) against the week-one grid of the SSP configuration
        dt = 0.0384 / 14
        sigma1 = vol_mean_path(SSP_SV, dt)
        assert nearest_grid_index(math.log(0.7417), sigma1 * math.sqrt(dt)) == -8


class TestCensoredTransition:
    def test_zero_displacement_splits_evenly(self):
        q_up, q_down = censored_transition(0.6, 0.0, 0.5 * math.sqrt(0.01))
        assert q_up == pytest.approx(0.3)
        assert q_down == pytest.approx(0.3)

    def test_upper_censoring(self):
        g = 0.5 * math.sqrt(0.01)
        q_up, q_down = censored_transition(0.6, 2 * g, g)
        assert q_up == 0.6
        assert q_down == 0.0

    def test_lower_censoring(self):
        g = 0.5 * math.sqrt(0.01)
        q_up, q_down = censored_transition(0.6, -2 * g, g)
        assert q_up == 0.0
        assert q_down == 0.6

    def test_mass_split_exact(self):
        for k_adj in np.linspace(-0.1, 0.1, 21):
            q_up, q_down = censored_transition(0.37, float(k_adj), 0.5 * math.sqrt(0.01))
            assert q_up + q_down == pytest.approx(0.37, abs=1e-15)
            assert 0.0 <= q_up <= 0.37


def level_mass_deviation(levels):
    return max(abs(math.fsum(q) - 1.0) for _, q, *_ in levels)


class TestBuild:
    def test_single_step(self):
        sv = SvParams(spot_M0=1.0, sigma0=0.5, kappa=3.0, theta=0.75, delta=0.35)
        c = OptionContract(strike=0.03, expiry_T=0.1, rate_r=0.05, steps_n=1, ctr=0.03)
        levels = list(walk_levels(sv, c))
        assert len(levels) == 2
        _, _, _, _, up, down = levels[0]
        assert up[0] + down[0] == pytest.approx(1.0, abs=1e-15)

    def test_ssp_lattice_levels_and_mass(self):
        levels = list(walk_levels(SSP_SV, SSP_CONTRACT))
        assert len(levels) == 15
        for k in range(15):
            assert levels[k][0].size == k + 1
        assert level_mass_deviation(levels) < 1e-12

    def test_recombination_step_two(self):
        for _, _, j, *_ in list(walk_levels(SSP_SV, SSP_CONTRACT))[:-1]:
            steps = np.diff(j)
            assert (steps == -2).all()

    def test_nodes_on_incoming_grid(self):
        levels = list(walk_levels(SSP_SV, SSP_CONTRACT))
        dt = SSP_CONTRACT.dt
        for k in range(1, 15):
            sigma_k = vol_mean_path(SSP_SV, k * dt)
            spacing = sigma_k * math.sqrt(dt)
            drift = (0.05 - 0.5 * sigma_k * sigma_k) * dt
            offsets = (levels[k][0] - drift) / spacing
            assert np.allclose(offsets, np.round(offsets), atol=1e-9)

    def test_censoring_bounds_everywhere(self):
        for _, q, _, _, up, down in list(walk_levels(SSP_SV, SSP_CONTRACT))[:-1]:
            assert (up >= -1e-15).all() and (up <= q + 1e-15).all()
            assert np.allclose(up + down, q, atol=1e-15)

    def test_uncensored_nodes_keep_conditional_drift(self):
        levels = list(walk_levels(SSP_SV, SSP_CONTRACT))
        dt = SSP_CONTRACT.dt
        checked = 0
        for k in range(14):
            sigma_next = vol_mean_path(SSP_SV, (k + 1) * dt)
            drift = (0.05 - 0.5 * sigma_next * sigma_next) * dt
            x, q, _, _, up, down = levels[k]
            x_next = levels[k + 1][0]
            for i in range(k + 1):
                if q[i] <= 0 or up[i] <= 0 or up[i] >= q[i]:
                    continue
                mean_inc = (up[i] * x_next[i] + down[i] * x_next[i + 1]) / q[i] - x[i]
                assert mean_inc == pytest.approx(drift, abs=1e-12)
                checked += 1
        assert checked > 0

    def test_constant_vol_spacing_is_constant(self):
        sv = SvParams(spot_M0=2.0, sigma0=0.5, kappa=0.0, theta=0.5, delta=0.0)
        c = OptionContract(strike=0.005, expiry_T=31 / 365, rate_r=0.05, steps_n=40, ctr=0.3)
        levels = list(walk_levels(sv, c))
        spacings = {round(float(levels[k][0][0] - levels[k][0][1]), 12) for k in range(1, 41)}
        assert len(spacings) == 1

    def test_random_parameter_sets_conserve_mass(self):
        rng = np.random.default_rng(20130208)
        for _ in range(25):
            sv = SvParams(
                spot_M0=float(rng.uniform(0.1, 30.0)),
                sigma0=float(rng.uniform(0.1, 1.5)),
                kappa=float(rng.uniform(0.0, 100.0)),
                theta=float(rng.uniform(0.0, 1.5)),
                delta=float(rng.uniform(0.0, 15.0)),
            )
            c = OptionContract(
                strike=float(rng.uniform(0.0, 0.1)),
                expiry_T=float(rng.uniform(0.01, 0.5)),
                rate_r=float(rng.uniform(0.0, 0.1)),
                steps_n=int(rng.integers(2, 80)),
                ctr=0.03,
            )
            assert level_mass_deviation(walk_levels(sv, c)) < 1e-12

    @pytest.mark.parametrize(
        "sv",
        [
            SvParams(spot_M0=1.0, sigma0=1e200, kappa=0.0, theta=0.0, delta=0.0),
            SvParams(spot_M0=5.0, sigma0=1e200, kappa=1.0, theta=1e200, delta=0.1),
        ],
    )
    def test_nonfinite_build_reports_location(self, sv):
        c = OptionContract(strike=0.03, expiry_T=1.0, rate_r=0.05, steps_n=2, ctr=0.03)
        with pytest.raises(ValueError, match="^non-finite x while building level 1, node 0$"):
            build_censored_lattice(sv, c)

    @pytest.mark.parametrize(
        "sigma0,kappa,theta,level",
        [(1e-300, 0.0, 0.0, 2), (1e150, 1.0, 1e150, 2), (5e-324, 0.0, 0.0, 1),
         (0.5, 1e6, 0.0, 1)],
    )
    def test_grid_index_beyond_int64_names_level_and_volatility(self, sigma0, kappa, theta, level):
        sv = SvParams(spot_M0=5.0, sigma0=sigma0, kappa=kappa, theta=theta, delta=0.1)
        c = OptionContract(strike=0.1, expiry_T=0.1, rate_r=0.05, steps_n=50, ctr=0.03)
        sigma = vol_mean_path(sv, level * c.dt)
        message = f"grid index does not fit in int64 while building level {level}, volatility {sigma!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_censored_lattice(sv, c)


def same_bits(a, b):
    if a is None or b is None:
        return a is b
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def walk_outcome(levels):
    """Levels yielded before the walk ended, and its ValueError message or None."""
    count = 0
    try:
        for _ in levels:
            count += 1
    except ValueError as exc:
        return count, str(exc)
    return count, None


class TestLevelWalk:
    """``walk_levels`` against the direct construction in ``walk_oracle``."""

    STEPS = [1, 2, 89, 90, 91, 145, 1000, 3000, MAX_SV_STEPS]

    @staticmethod
    def walk_against_oracle(sv, c):
        """Walk ``sv`` and ``c`` beside the oracle; the number of levels that censor a node."""
        # x and J are the oracle's bits; K comes from two scalars a level, not
        # from x - J * spacing, so it agrees to a few ulps of the level's
        # largest |x|, and the masses to the roundoff that carries
        walked = censored = 0
        for level, expected in zip(walk_levels(sv, c), oracle_levels(sv, c), strict=True):
            x, q, j, k_adj, q_up, q_down = level
            assert same_bits(x, expected[0]) and same_bits(j, expected[2]), walked
            if k_adj is not None:
                ulp = np.spacing(np.abs(x).max())
                assert np.abs(k_adj - expected[3]).max() <= 4 * ulp, walked
                censored += bool((((q_up == 0) | (q_down == 0)) & (q > 0)).any())
            for got, want in zip((q, q_up, q_down), (expected[1], *expected[4:])):
                assert (got is None) == (want is None)
                if got is not None:
                    assert np.abs(got - want).max() <= 1e-13, walked
            walked += 1
        assert walked == c.steps_n + 1
        return censored

    @pytest.mark.parametrize("n", STEPS)
    def test_every_level_bit_for_bit(self, n):
        rng = np.random.default_rng(20261019 + n)
        sv = SvParams(
            spot_M0=float(rng.uniform(0.1, 30.0)),
            sigma0=float(rng.uniform(0.1, 1.5)),
            kappa=float(rng.uniform(0.0, 100.0)),
            theta=float(rng.uniform(0.0, 1.5)),
            delta=float(rng.uniform(0.0, 15.0)),
        )
        c = OptionContract(strike=0.03, expiry_T=float(rng.uniform(0.01, 0.5)),
                           rate_r=float(rng.uniform(0.0, 0.1)), steps_n=n, ctr=0.03)
        self.walk_against_oracle(sv, c)

    def test_censored_walk(self):
        # volatility rises from 0.081 toward 1.269, so the bottom nodes' shares
        # leave [0, 1] on 52 of the 200 levels and the walk takes the clip
        sv = SvParams(spot_M0=1.0, sigma0=0.081, kappa=3.52, theta=1.269, delta=0.3)
        c = OptionContract(strike=1.0, expiry_T=0.1183, rate_r=0.05, steps_n=200, ctr=0.001)
        assert self.walk_against_oracle(sv, c) == 52

    def test_price_does_not_depend_on_terminal_alignment(self):
        # copies at each 8-byte offset of a 64-byte line price to the same bits
        lattice = build_censored_lattice(SSP_SV, replace(SSP_CONTRACT, steps_n=200))
        price = price_sv_option(lattice).price
        size = lattice.x.size
        for offset in range(8):
            buffer = np.empty(2 * size + 16)
            x, q = buffer[offset : offset + size], buffer[size + 8 + offset : 2 * size + 8 + offset]
            x[:], q[:] = lattice.x, lattice.q
            moved = SvLattice(lattice.params, lattice.contract, x, q)
            assert price_sv_option(moved).price.hex() == price.hex(), offset

    @pytest.mark.parametrize(
        "sv,contract,message",
        [
            # the spacing shrinks as exp(-90 t), so the top grid index outgrows int64
            (SvParams(spot_M0=5.0, sigma0=0.5, kappa=90.0, theta=0.0, delta=0.1),
             OptionContract(strike=0.1, expiry_T=1.0, rate_r=0.05, steps_n=200, ctr=0.03),
             "grid index does not fit in int64 while building level 95, "
             "volatility 1.3579410059460312e-19"),
            # the rate cancels the drift, and the grid walks 3e306 per level out of range
            (SvParams(spot_M0=5.0, sigma0=1e154, kappa=0.0, theta=0.0, delta=0.1),
             OptionContract(strike=0.1, expiry_T=4.4e306, rate_r=0.5 * 1e154 * 1e154,
                            steps_n=200, ctr=0.03),
             "non-finite x while building level 122, node 0"),
        ],
        ids=["int64", "non-finite"],
    )
    def test_fault_deep_in_the_walk(self, sv, contract, message):
        outcome = walk_outcome(walk_levels(sv, contract))
        assert outcome == walk_outcome(oracle_levels(sv, contract))
        assert outcome[1] == message and outcome[0] > 90


def clipped_step(q, a, b):
    """``_step`` with the censoring always applied, its flows placed as the walk places them."""
    q_up = np.minimum(np.maximum((b * np.arange(float(q.size)) + a) * q, 0.0), q)
    return q_up, np.concatenate([q_up, [0.0]]) + np.concatenate([[0.0], q - q_up])


STEP_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# masses in [0, 1], subnormals and +0.0 included; the walk never holds a -0.0 mass
masses = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=200).map(lambda m: np.abs(np.array(m)))


class TestStep:
    """``_step`` skips the censoring only where it would change no bit."""

    @STEP_SETTINGS
    @given(q=masses, a=st.floats(0.0, 1.0), top=st.floats(0.0, 1.0))
    def test_unclipped_step_is_the_clipped_step(self, q, a, top):
        k = q.size - 1
        b = (top - a) / k if k else top
        assume(0.0 <= a + b * k <= 1.0)
        q_up, q_next = _step(q, a, b, np.arange(float(q.size)))
        want_up, want_next = clipped_step(q, a, b)
        assert same_bits((b * np.arange(float(q.size)) + a) * q, want_up)
        assert same_bits(q_up, want_up) and same_bits(q_next, want_next)

    @STEP_SETTINGS
    @given(q=masses, a=st.floats(-1.0, 2.0), top=st.floats(-1.0, 2.0))
    def test_either_end_outside_censors(self, q, a, top):
        k = q.size - 1
        b = (top - a) / k if k else top
        q_up, q_next = _step(q, a, b, np.arange(float(q.size)))
        want_up, want_next = clipped_step(q, a, b)
        assert same_bits(q_up, want_up) and same_bits(q_next, want_next)


class TestExactWalk:
    """The float walk against the same grid walked in 40-digit arithmetic.

    The masses carry the walk's own roundoff, which these bounds hold near
    the 1.4e-17 to 2.6e-17 measured; a walk that formed each K as
    x - J * spacing read up to 1.4e-16. The price also carries the
    payoff's float log and exp, 2.8e-15 relative on SSP at n = 14.
    """

    @pytest.mark.parametrize("sv,contract", [(SSP_SV, SSP_CONTRACT), (WIDE_SV, WIDE_CONTRACT)],
                             ids=["SSP", "WIDE"])
    @pytest.mark.parametrize("n", [14, 200])
    def test_masses_and_price(self, sv, contract, n):
        c = replace(contract, steps_n=n)
        _, q, price = exact_walk(sv, c)
        lattice = build_censored_lattice(sv, c)
        assert max(abs(float(got - want)) for got, want in zip(lattice.q, q)) <= 4e-17
        assert abs(price_sv_option(lattice).price - price) <= 3e-15 * price


class TestPricing:
    def test_unreachable_strike_prices_zero(self):
        c = OptionContract(strike=1e6, expiry_T=0.0384, rate_r=0.05, steps_n=14, ctr=0.03)
        res = price_sv_option(build_censored_lattice(SSP_SV, c))
        assert res.price == 0.0

    def test_backward_induction_matches_terminal_sum(self):
        lat = build_censored_lattice(SSP_SV, SSP_CONTRACT)
        backward_price = float(_backward_values(lat, list(walk_levels(SSP_SV, SSP_CONTRACT)))[0][0])
        assert backward_price == pytest.approx(price_sv_option(lat).price, abs=1e-12)

    def test_sv_price_below_constant_vol_price(self):
        # falling volatility path carries less risk than its starting level
        sv_price = price_sv_option(build_censored_lattice(SSP_SV, SSP_CONTRACT)).price
        crr = binomial_price_sum(
            GbmParams(spot_M0=0.7417, sigma=0.8723),
            SSP_CONTRACT,
            LatticeMethod(MethodKind.CRR),
        )
        assert sv_price < crr

    def test_constant_vol_converges_to_closed_form(self):
        sv = SvParams(spot_M0=2.0, sigma0=0.5, kappa=0.0, theta=0.5, delta=0.0)
        c = OptionContract(strike=0.005, expiry_T=31 / 365, rate_r=0.05, steps_n=300, ctr=0.3)
        res = price_sv_option(build_censored_lattice(sv, c))
        benchmark = closed_form_price(GbmParams(spot_M0=2.0, sigma=0.5), c)
        assert res.price == pytest.approx(benchmark, rel=0.01)

    def test_monotone_in_strike_and_spot(self):
        def price(strike, spot):
            sv = SvParams(spot_M0=spot, sigma0=0.8723, kappa=96.4953, theta=0.2959, delta=14.9874)
            c = OptionContract(strike=strike, expiry_T=0.0384, rate_r=0.05, steps_n=14, ctr=0.03)
            return price_sv_option(build_censored_lattice(sv, c)).price

        assert price(0.01, 0.7417) >= price(0.0223, 0.7417) >= price(0.04, 0.7417)
        assert price(0.0223, 0.9) >= price(0.0223, 0.7417) >= price(0.0223, 0.5)

    def test_csv_dump_shape(self, tmp_path):
        lat = build_censored_lattice(SSP_SV, SSP_CONTRACT)
        out = tmp_path / "lattice.csv"
        with open(out, "w", newline="") as fh:
            lattice_to_csv(lat, fh)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "level,node,x,J,K,Q,q_up,q_down,option_value"
        assert len(lines) == 1 + sum(k + 1 for k in range(15))
        # terminal rows leave transition columns empty
        last = lines[-1].split(",")
        assert last[0] == "14" and last[3] == "" and last[6] == ""
        root = lines[1].split(",")
        # the dump carries the backward values, whose root is the price
        assert float(root[-1]) == pytest.approx(price_sv_option(lat).price, rel=1e-11)

    def test_step_cap(self):
        c = OptionContract(strike=0.0223, expiry_T=0.0384, rate_r=0.05,
                           steps_n=MAX_SV_STEPS + 1, ctr=0.03)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds"):
                build_censored_lattice(SSP_SV, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # refused before any level is allocated
        assert peak < 64 * 1024

    def test_node_views(self):
        levels = list(walk_levels(SSP_SV, SSP_CONTRACT))
        x, q, j, *_ = levels[0]
        assert q.tolist() == [1.0]
        assert x.tolist() == [0.0]
        assert j.size == 1
        assert levels[14][0].size == 15
        # the terminal level alone has no outgoing transitions
        assert levels[14][2:] == (None, None, None, None)
        assert all(level[2] is not None and level[4] is not None for level in levels[:14])
        assert len(levels) == 15

    def test_build_keeps_the_terminal_level(self):
        lat = build_censored_lattice(SSP_SV, SSP_CONTRACT)
        x, q, *_ = list(walk_levels(SSP_SV, SSP_CONTRACT))[-1]
        assert lat.x.tobytes() == x.tobytes() and lat.q.tobytes() == q.tobytes()
        assert [f.name for f in fields(lat)] == ["params", "contract", "x", "q"]

    def test_build_and_price_memory_is_linear(self):
        c = OptionContract(strike=0.0223, expiry_T=0.0384, rate_r=0.05,
                           steps_n=MAX_SV_STEPS, ctr=0.03)
        tracemalloc.start()
        try:
            price_sv_option(build_censored_lattice(SSP_SV, c))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every level kept would be about 0.6 GB at this n; one level is 40 kB an array
        assert peak < 8 * 2**20


class TestMeanPathOracle:
    """The lattice against Black-Scholes at its mean-path variance V.

    Wherever censoring cannot bind, the lattice error is O(1/n) on the
    option's price scale S sqrt(V), where S is the spot per click: the
    check is |lattice - oracle| <= 0.5 / n * S sqrt(V). Seeded sets range
    sigma0 and theta over 0.05-2.5, wide enough that censoring binds on
    some of them, and strikes over +-1.5 sqrt(V) of log-moneyness.
    """

    # (n, sets drawn); about four in five qualify
    SETS = [(50, 24), (200, 16), (1000, 6), (3000, 3)]

    @staticmethod
    def call(per_click, c, variance):
        sigma = math.sqrt(variance / c.expiry_T)
        return black_call(per_click, c.strike, c.rate_r, c.expiry_T, sigma)

    @pytest.mark.parametrize("n,count", SETS)
    def test_lattice_within_the_bound(self, n, count):
        rng = random.Random(n)
        checked = 0
        for _ in range(count):
            spot, ctr = rng.uniform(0.5, 20.0), rng.uniform(0.01, 0.3)
            expiry = rng.uniform(7.0, 90.0) / 365.0
            sigma0, theta = (math.exp(rng.uniform(math.log(0.05), math.log(2.5))) for _ in range(2))
            kappa, delta = 10 ** rng.uniform(-0.5, 1.5), rng.uniform(0.1, 0.7)
            vol = mean_vol_path(sigma0, kappa, theta, expiry, n)
            variance = mean_path_variance(vol, expiry)
            per_click = spot / (1000.0 * ctr)
            strike = per_click * math.exp(rng.uniform(-1.5, 1.5) * math.sqrt(variance))
            if censoring_binds(vol, 0.05, expiry):
                continue
            sv = SvParams(spot_M0=spot, sigma0=sigma0, kappa=kappa, theta=theta, delta=delta)
            c = OptionContract(strike=strike, expiry_T=expiry, rate_r=0.05, steps_n=n, ctr=ctr)
            lattice = price_sv_option(build_censored_lattice(sv, c)).price
            tolerance = 0.5 / n * per_click * math.sqrt(variance)
            assert abs(lattice - self.call(per_click, c, variance)) <= tolerance, (sv, c)
            if n == 3000:
                # the bound is tight enough to see a 1% error in the variance
                assert abs(lattice - self.call(per_click, c, 1.01 * variance)) > tolerance, (sv, c)
            checked += 1
        assert checked >= count // 2

    def test_censoring_filter_can_fire(self):
        # volatility rises from 0.081 toward 1.269: censoring binds, and the
        # lattice leaves the oracle far behind
        sv = SvParams(spot_M0=1.0, sigma0=0.081, kappa=3.52, theta=1.269, delta=0.3)
        c = OptionContract(strike=1.0, expiry_T=0.1183, rate_r=0.05, steps_n=200, ctr=0.001)
        vol = mean_vol_path(sv.sigma0, sv.kappa, sv.theta, c.expiry_T, c.steps_n)
        variance = mean_path_variance(vol, c.expiry_T)
        assert censoring_binds(vol, c.rate_r, c.expiry_T)
        lattice = price_sv_option(build_censored_lattice(sv, c)).price
        assert abs(lattice - self.call(1.0, c, variance)) > 10 * 0.5 / 200 * math.sqrt(variance)


class TestFrozenOutputs:
    """Bits of the SSP fixture's price and dump, and of the terminal masses and log
    prices of large SSP and WIDE lattices, frozen from numpy 2.4 on x86-64.

    The lattice is plain float arithmetic in a fixed order, so any change
    to that order moves these values. The prices were re-pinned, each by one
    ulp and each onto the correctly rounded sum times the discount, when
    the terminal sum left ``np.dot`` for ``contracts.expected_payoff``. The
    n = 200 and 1000 prices moved one and two ulps, each toward the 40-digit
    walk of the same grid, when the walk began to form each level's
    displacements from two scalars instead of as x - J * spacing.
    """

    PRICES = {14: "0x1.50538acb9fc59p-9", 200: "0x1.54e25832fcf8cp-9", 1000: "0x1.55399a9097479p-9"}
    DUMP_SHA256 = "b1b990ca05d1f0669289c2ffc1d3e79f39a0cd396a33304c610e015178505162"
    # SHA-256 of the terminal masses' and log prices' bytes
    LATTICE_SHA256 = {
        ("SSP", 3000): ("487adab722faba34ff4af6577d2da141de6dda7e395442664cb35f56ba276349",
                        "49a9087b40c0601a10ca337649421e96b728e1b33d076c578f6794c5b7897232"),
        ("SSP", 5000): ("3247b52f64a3575441d73ddbd1aa4324ea2e1fbcf5db72a8859f621344656e49",
                        "4492d215e21f9e87d4bdef74746e2158b428a5f9853e68449727093b4e7e8aee"),
        ("WIDE", 3000): ("2711681a22e6b7be9250c96ea58d7c88b092b50dcebf723c445a7ef0fe2ba4e5",
                         "2a6d99a00f9943065153529c0b4e453b6a8649747c3ef6fc001608d01390effe"),
    }

    @pytest.mark.parametrize("n", sorted(PRICES))
    def test_price_bits(self, n):
        c = replace(SSP_CONTRACT, steps_n=n)
        assert price_sv_option(build_censored_lattice(SSP_SV, c)).price.hex() == self.PRICES[n]

    @pytest.mark.parametrize("name,n", sorted(LATTICE_SHA256))
    def test_lattice_bits(self, name, n):
        sv, contract = {"SSP": (SSP_SV, SSP_CONTRACT), "WIDE": (WIDE_SV, WIDE_CONTRACT)}[name]
        lattice = build_censored_lattice(sv, replace(contract, steps_n=n))
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (lattice.q, lattice.x))
        assert digests == self.LATTICE_SHA256[name, n]

    def test_dump_digest(self):
        buf = io.StringIO()
        lattice_to_csv(build_censored_lattice(SSP_SV, SSP_CONTRACT), buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == self.DUMP_SHA256
