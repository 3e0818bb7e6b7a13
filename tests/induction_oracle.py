"""Plain backward induction on the recombining trinomial grid.

The oracle for ``gbm_lattice.trinomial_price``, which sums over the
terminal distribution instead. It shares only the step's moves and
probabilities (``movement_params``) and the terminal log grid with the
pricer. Every level is a fresh array, no node is skipped, and each step
discounts by exp(-r dt), so it costs O(n^2): about 1 s at n = 20,000.
"""

import math

import numpy as np

from firstlook.contracts import GbmParams, OptionContract, payoff, underlying_value
from firstlook.gbm_lattice import LatticeMethod, movement_params


def induction_price(params: GbmParams, contract: OptionContract, method: LatticeMethod) -> float:
    n = contract.steps_n
    move = movement_params(method, params.sigma, contract.rate_r, contract.dt)
    spot = underlying_value(params.spot_M0, contract)
    j = np.arange(-n, n + 1)
    values = payoff(np.exp(math.log(spot) + n * math.log(move.m) + j * math.log(move.u / move.m)),
                    contract)
    disc = math.exp(-contract.rate_r * contract.dt)
    up, middle, down = disc * move.q1, disc * move.q2, disc * move.q3
    for _ in range(n):
        values = up * values[2:] + middle * values[1:-1] + down * values[:-2]
    return float(values[0])
