"""Pricing engine for first-look ad options.

Lattice and Monte Carlo pricers for options on ad inventory under
constant-volatility and mean-reverting stochastic-volatility price
models, plus diagnostics for the constant-vol assumption and an
ad-market delivery/revenue simulator.
"""

from .contracts import GbmParams, OptionContract, SvParams
from .gbm_lattice import LatticeMethod, MethodKind, binomial_price_sum, closed_form_price
from .sv_lattice import build_censored_lattice, price_sv_option

__all__ = [
    "GbmParams",
    "LatticeMethod",
    "MethodKind",
    "OptionContract",
    "SvParams",
    "binomial_price_sum",
    "build_censored_lattice",
    "closed_form_price",
    "price_sv_option",
]
