"""Black-Scholes at the SV lattice's mean-path variance: its price oracle.

The censored SV lattice steps its log price with the conditional-mean
volatility sigma_bar(t_k) = theta + (sigma0 - theta) e^(-kappa t_k), so
wherever no transition is censored it converges, at O(1/n), to the
Black-Scholes call at the integrated variance V = sum sigma_bar(t_k)^2 dt,
k = 1..n. Everything here is written out with ``math`` alone and shares
no code with ``firstlook``.
"""

import math

# the oracle is checked where censored transitions carry at most this mass
CENSOR_EPS = 1e-9


def black_call(spot: float, strike: float, rate: float, expiry: float, sigma: float) -> float:
    """Black-Scholes call on a spot already on the strike's basis."""
    if sigma <= 0.0:
        return max(spot - strike * math.exp(-rate * expiry), 0.0)
    srt = sigma * math.sqrt(expiry)
    d1 = (math.log(spot / strike) + (rate + 0.5 * sigma * sigma) * expiry) / srt
    d2 = d1 - srt

    def cdf(x: float) -> float:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    return spot * cdf(d1) - strike * math.exp(-rate * expiry) * cdf(d2)


def mean_vol_path(sigma0: float, kappa: float, theta: float, expiry: float, n: int) -> list[float]:
    """sigma_bar(t_k) for k = 0..n."""
    dt = expiry / n
    return [theta + (sigma0 - theta) * math.exp(-kappa * k * dt) for k in range(n + 1)]


def mean_path_variance(vol: list[float], expiry: float) -> float:
    """V = sum over k = 1..n of sigma_bar(t_k)^2 dt, for the path ``vol``."""
    dt = expiry / (len(vol) - 1)
    return dt * math.fsum(sigma * sigma for sigma in vol[1:])


def censoring_binds(vol: list[float], rate: float, expiry: float) -> bool:
    """Whether a censored transition along the mean path ``vol`` can carry mass.

    An uncensored step moves the log price by the drift on average and by
    at most 2 s_k (s_k = sigma_bar(t_k) sqrt(dt)) off it, so by Azuma's
    inequality all but CENSOR_EPS of the mass stays within
    sqrt(8 V ln(2 / CENSOR_EPS)) of the summed drift. This repeats the
    lattice's grid geometry (top node snapped to the nearest grid point,
    ties up, the rest at twice the old spacing below it) and asks whether
    a node in that band has a displacement |K| > s_k, where the lattice
    censors.
    """
    n = len(vol) - 1
    dt = expiry / n
    band = math.sqrt(8.0 * math.log(2.0 / CENSOR_EPS) * mean_path_variance(vol, expiry))
    x_top, old_spacing, mean = 0.0, 1.0, 0.0
    for k in range(n):
        spacing = vol[k + 1] * math.sqrt(dt)
        j_top = math.floor(x_top / spacing + 0.5)
        if k:
            # K is linear in the node's x: K(x) = x - (j_top - 2 i) s, i = (x_top - x) / (2 s_old)
            x_bottom = x_top - 2 * k * old_spacing
            for x in (max(x_bottom, mean - band), min(x_top, mean + band)):
                i = (x_top - x) / (2 * old_spacing)
                if abs(x - (j_top - 2 * i) * spacing) > spacing * (1.0 + 1e-9):
                    return True
        drift = (rate - 0.5 * vol[k + 1] ** 2) * dt
        x_top, old_spacing, mean = (j_top + 1) * spacing + drift, spacing, mean + drift
    return False
