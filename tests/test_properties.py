"""Property tests over random contracts for the constant-volatility pricers.

Prices must respect the static no-arbitrage bounds, be monotone in strike
and spot, and the two binomial routes must agree. Examples are drawn
deterministically (``derandomize``) so the suite stays reproducible.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firstlook.contracts import GbmParams, OptionContract, underlying_value
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
# probabilities; Tian's closed-form probabilities cancel down to O(sigma^2 dt)
ROUNDOFF = 1e-9

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
        # fall below the floor (pinned by the xfail test below)
        if kind is not MethodKind.KR_TRIN:
            assert p >= floor - ROUNDOFF * spot, kind


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


@pytest.mark.xfail(strict=True, reason="Kamrad-Ritchken is not a martingale for the price")
def test_kamrad_ritchken_lower_bound():
    # deep in the money: the price sits 2.2e-5 * S below the floor at n = 100
    m = dict(spot=12.8, ctr=0.72, sigma=0.5, expiry=1.0, rate=0.04, moneyness=0.1)
    params, contract = setup(m, 100)
    spot = underlying_value(params.spot_M0, contract)
    floor = spot - contract.strike * math.exp(-contract.rate_r * contract.expiry_T)
    assert price(MethodKind.KR_TRIN, params, contract) >= floor - ROUNDOFF * spot
