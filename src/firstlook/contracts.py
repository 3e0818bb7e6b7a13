"""Contract and unit model shared by every pricing method.

Monetary quantities are plain floats carrying an explicit quote basis
(per-click or per-mille) so CPM-quoted underlying prices and CPC-quoted
strikes are never compared on different scales.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

DAYS_PER_YEAR = 365.0
LOG_FLOAT_MAX = math.log(sys.float_info.max)


class StrikeBasis(Enum):
    """Quote basis of an option strike."""

    PER_CLICK = "per-click"
    PER_MILLE = "per-mille"


def require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class OptionContract:
    """European call on future ad inventory at a fixed strike.

    The underlying is the winning payment CPM of the targeted inventory;
    the click-through rate bridges it to a per-click strike.
    """

    strike: float
    expiry_T: float
    rate_r: float
    steps_n: int
    ctr: float
    strike_basis: StrikeBasis = StrikeBasis.PER_CLICK

    def __post_init__(self) -> None:
        require_finite("strike", self.strike)
        require_finite("expiry_T", self.expiry_T)
        require_finite("rate_r", self.rate_r)
        require_finite("ctr", self.ctr)
        if self.strike < 0:
            raise ValueError(f"strike must be >= 0, got {self.strike}")
        if not 0 < self.ctr <= 1:
            raise ValueError(f"ctr must be in (0, 1], got {self.ctr}")
        if self.expiry_T <= 0:
            raise ValueError(f"expiry_T must be > 0, got {self.expiry_T}")
        if isinstance(self.steps_n, bool) or not isinstance(self.steps_n, int) or self.steps_n < 1:
            raise ValueError(f"steps_n must be an integer >= 1, got {self.steps_n!r}")

    def check_steps(self, limit: int) -> None:
        """Refuse step counts above a pricer's supported maximum."""
        if self.steps_n > limit:
            raise ValueError(f"steps_n = {self.steps_n} exceeds supported maximum {limit}")

    @property
    def dt(self) -> float:
        """Length of one lattice step in years."""
        return self.expiry_T / self.steps_n


@dataclass(frozen=True)
class GbmParams:
    """Constant-volatility underlying: spot CPM, annual volatility, drift.

    The drift is kept for estimation and real-world simulation only;
    risk-neutral pricing replaces it with the risk-free rate.
    """

    spot_M0: float
    sigma: float
    mu: float = 0.0

    def __post_init__(self) -> None:
        require_finite("spot_M0", self.spot_M0)
        require_finite("sigma", self.sigma)
        require_finite("mu", self.mu)
        if self.spot_M0 <= 0:
            raise ValueError(f"spot_M0 must be > 0, got {self.spot_M0}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

    def as_sv(self) -> SvParams:
        """The SV model whose volatility stays at sigma: kappa = delta = 0."""
        sigma0 = max(self.sigma, 1e-12)  # SvParams needs sigma0 > 0
        return SvParams(self.spot_M0, sigma0=sigma0, kappa=0.0, theta=self.sigma, delta=0.0)


@dataclass(frozen=True)
class SvParams:
    """Mean-reverting stochastic-volatility underlying.

    Volatility reverts from sigma0 toward theta at speed kappa, with
    square-root noise scaled by delta.
    """

    spot_M0: float
    sigma0: float
    kappa: float
    theta: float
    delta: float

    def __post_init__(self) -> None:
        for f in fields(self):
            require_finite(f.name, getattr(self, f.name))
        if self.spot_M0 <= 0:
            raise ValueError(f"spot_M0 must be > 0, got {self.spot_M0}")
        if self.sigma0 <= 0:
            raise ValueError(f"sigma0 must be > 0, got {self.sigma0}")
        if self.kappa < 0 or self.theta < 0 or self.delta < 0:
            raise ValueError("kappa, theta and delta must all be >= 0")


# the SV model's parameters after the spot, in declaration order
SV_PARAMS = tuple(f.name for f in fields(SvParams))[1:]


def per_click_value(cpm: float, ctr: float):
    """Value of a CPM-quoted price per single click: M / (1000 * CTR).

    Accepts numpy arrays for ``cpm`` as well as scalars.
    """
    if ctr <= 0:
        raise ValueError(f"ctr must be > 0, got {ctr}")
    return cpm / (1000.0 * ctr)


def underlying_value(cpm: float, contract: OptionContract):
    """CPM price converted onto the strike's quote basis."""
    if contract.strike_basis is StrikeBasis.PER_CLICK:
        return per_click_value(cpm, contract.ctr)
    return cpm


def payoff(value, contract: OptionContract):
    """Exercise value at expiry: (value - strike)^+, ``value`` on the strike's basis.

    Accepts numpy arrays as well as scalars.
    """
    return np.maximum(value - contract.strike, 0.0)


def terminal_payoff(log_values: np.ndarray, top: float, contract: OptionContract) -> np.ndarray:
    """Payoffs at a lattice's log terminal values, which are on the strike's basis;
    ``top`` is the lattice's highest log terminal value. Raises OverflowError
    if exp(top) overflows a float."""
    # np.exp would turn an overflow into inf and a RuntimeWarning, where math.exp raises
    if top > LOG_FLOAT_MAX:
        raise OverflowError(f"terminal value exp({top:.6g}) overflows a float")
    return payoff(np.exp(log_values), contract)


def expected_payoff(
    weights: np.ndarray, log_values: np.ndarray, top: float, contract: OptionContract
) -> float:
    """A lattice's price: ``terminal_payoff`` weighted by the node probabilities
    ``weights``, summed over the in-the-money nodes and discounted once over the
    whole horizon. Raises as ``terminal_payoff``, and ValueError if it is not finite."""
    intrinsic = terminal_payoff(log_values, top, contract)
    in_money = intrinsic > 0.0
    total = float(np.sum(weights[in_money] * intrinsic[in_money]))
    price = discount(total, contract.rate_r, contract.expiry_T)
    require_finite("the lattice price", price)
    return price


def discount(value, rate_r: float, horizon: float):
    """Present value of ``value`` received after ``horizon`` years."""
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    return value * math.exp(-rate_r * horizon)
