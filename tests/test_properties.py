"""Property tests over random contracts for the constant-volatility pricers.

Prices must respect the static no-arbitrage bounds, be monotone in strike
and spot, and the two binomial routes must agree. Examples are drawn
deterministically (``derandomize``) so the suite stays reproducible.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firstlook.contracts import GbmParams, OptionContract, discount, underlying_value
from firstlook.gbm_lattice import (
    LatticeMethod,
    MethodKind,
    binomial_price_sum,
    closed_form_price,
    complementary_binomial_price,
    lattice_price,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# the lattices are martingales only up to roundoff in their transition
# probabilities and terminal sums, measured at up to 1.1e-13 * S
ROUNDOFF = 1e-12

BINOMIAL_KINDS = [MethodKind.CRR, MethodKind.TIAN_BIN, MethodKind.HAAHTELA_BIN]

markets = st.fixed_dictionaries(
    {
        "spot": st.floats(0.1, 50.0),
        "ctr": st.floats(0.005, 1.0),
        "sigma": st.floats(0.05, 1.5),
        "expiry": st.floats(0.01, 2.0),
        "rate": st.floats(0.0, 0.1),
        "moneyness": st.floats(0.0, 3.0),
    }
)


def setup(m, steps, moneyness=None, spot=None):
    spot = m["spot"] if spot is None else spot
    moneyness = m["moneyness"] if moneyness is None else moneyness
    # strike quoted relative to the unshifted spot, so spot can move alone
    strike = moneyness * m["spot"] / (1000.0 * m["ctr"])
    contract = OptionContract(
        strike=strike, expiry_T=m["expiry"], rate_r=m["rate"], steps_n=steps, ctr=m["ctr"]
    )
    return GbmParams(spot_M0=spot, sigma=m["sigma"]), contract


def price(kind, params, contract):
    """Price with ``kind``, or None where its probabilities leave [0, 1]."""
    if kind is None:
        return closed_form_price(params, contract)
    try:
        return lattice_price(params, contract, LatticeMethod(kind))
    except ValueError as exc:
        assert "invalid parameterization" in str(exc)
        return None


@PROPERTY_SETTINGS
@given(m=markets, steps=st.integers(1, 200))
def test_no_arbitrage_bounds(m, steps):
    params, contract = setup(m, steps)
    spot = underlying_value(params.spot_M0, contract)
    floor = max(spot - contract.strike * math.exp(-contract.rate_r * contract.expiry_T), 0.0)
    for kind in [None, *MethodKind]:
        p = price(kind, params, contract)
        if p is None:
            continue
        assert p <= spot * (1 + ROUNDOFF), kind
        # Kamrad-Ritchken matches the moments of the log price, not of the
        # price: its forward is off by O(dt), so deep in-the-money calls
        # fall below the floor (bounded by the breach test below)
        if kind is not MethodKind.KR_TRIN:
            assert p >= floor - ROUNDOFF * spot, kind


@PROPERTY_SETTINGS
@given(
    log_sigma=st.floats(-3.0, 308.0),
    log_expiry=st.floats(-300.0, 300.0),
    rate=st.floats(0.0, 0.2),
    spot=st.floats(0.1, 50.0),
    moneyness=st.floats(0.0, 3.0),
)
def test_closed_form_bounded_at_extreme_spreads(log_sigma, log_expiry, rate, spot, moneyness):
    # sigma^2 T overflows over much of this range and sigma sqrt(T) at its top;
    # the price is still bounded, and at the limit it is the spot
    params = GbmParams(spot_M0=spot, sigma=10.0**log_sigma)
    contract = OptionContract(
        strike=moneyness * spot / 1000.0, expiry_T=10.0**log_expiry, rate_r=rate, steps_n=1, ctr=1.0
    )
    p = closed_form_price(params, contract)
    quoted = underlying_value(spot, contract)
    floor = max(quoted - discount(contract.strike, rate, contract.expiry_T), 0.0)
    assert math.isfinite(p)
    assert floor - ROUNDOFF * quoted <= p <= quoted
    if params.sigma * math.sqrt(contract.expiry_T) >= 1e160:
        assert p == quoted


@PROPERTY_SETTINGS
@given(m=markets, steps=st.integers(1, 200), other=st.floats(0.0, 3.0), scale=st.floats(0.5, 2.0))
def test_monotone_in_strike_and_spot(m, steps, other, scale):
    low_k, high_k = sorted((m["moneyness"], other))
    low_s, high_s = sorted((m["spot"], m["spot"] * scale))
    for kind in [None, *MethodKind]:
        by_strike = [price(kind, *setup(m, steps, moneyness=k)) for k in (low_k, high_k)]
        by_spot = [price(kind, *setup(m, steps, spot=s)) for s in (low_s, high_s)]
        if None not in by_strike:
            assert by_strike[0] >= by_strike[1], kind
        if None not in by_spot:
            assert by_spot[0] <= by_spot[1], kind


@PROPERTY_SETTINGS
@given(m=markets, steps=st.integers(1, 500), kind=st.sampled_from(BINOMIAL_KINDS))
def test_binomial_routes_agree(m, steps, kind):
    params, contract = setup(m, steps)
    try:
        direct = binomial_price_sum(params, contract, LatticeMethod(kind))
    except ValueError as exc:
        assert "invalid parameterization" in str(exc)
        return
    tail = complementary_binomial_price(params, contract, LatticeMethod(kind))
    assert tail == pytest.approx(direct, rel=1e-10)


def test_kamrad_ritchken_floor_breach_is_order_dt():
    # deep in the money the price sits 2.2e-4 * S below the floor at n = 10,
    # 2.2e-5 * S at 100 and 2.2e-6 * S at 1000: a bias of O(dt), not of roundoff
    m = dict(spot=12.8, ctr=0.72, sigma=0.5, expiry=1.0, rate=0.04, moneyness=0.1)
    breaches = []
    for steps in (10, 100, 1000):
        params, contract = setup(m, steps)
        spot = underlying_value(params.spot_M0, contract)
        floor = spot - contract.strike * math.exp(-contract.rate_r * contract.expiry_T)
        breaches.append(max(floor - price(MethodKind.KR_TRIN, params, contract), 0.0) / spot)
    assert breaches[1] <= breaches[0] / 5 and breaches[2] <= breaches[1] / 5, breaches
