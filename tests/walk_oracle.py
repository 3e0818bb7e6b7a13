"""The SV lattice built directly, node by node, as the oracle for ``sv_lattice.walk_levels``.

``oracle_levels`` forms each node's log price and grid index, and its
displacement as x - J * spacing. It shares only the volatility path and
the grid rounding (``vol_mean_path``, ``nearest_grid_index``) with the
walk, which steps each level's masses from two scalars instead. The two
agree bit for bit on x and J, within a few ulps of the level's largest
|x| on K, and within 1e-13 on the masses and flows.

``exact_walk`` walks the same grid in 40-digit arithmetic, so it measures
the float walk's own roundoff.
"""

import math

import mpmath
import numpy as np

from firstlook.contracts import OptionContract, SvParams, underlying_value
from firstlook.sv_lattice import MAX_SV_STEPS, nearest_grid_index, vol_mean_path

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def censored_transition(q_mass, k_adjust, spacing: float):
    """Split node probability mass between the two successors.

    The raw up-flow (q_mass/2) * (1 + K / spacing), where ``spacing`` is
    the next level's, keeps the expected log-price increment on its drift;
    it is censored into [0, q_mass] when the grid displacement K is too
    large. ``q_mass`` and ``k_adjust`` may be arrays covering a whole level.
    """
    raw = 0.5 * q_mass * (1.0 + k_adjust / spacing)
    q_up = np.minimum(np.maximum(raw, 0.0), q_mass)
    return q_up, q_mass - q_up


def oracle_levels(params: SvParams, contract: OptionContract):
    """Yield level k as ``(x, q, j, k_adj, q_up, q_down)``, raising as ``walk_levels``."""
    contract.check_steps(MAX_SV_STEPS)
    dt = contract.dt
    sqrt_dt = math.sqrt(dt)
    evens = 2 * np.arange(contract.steps_n + 1)
    x = np.array([0.0])
    q = np.array([1.0])

    for k in range(contract.steps_n):
        sigma_next = vol_mean_path(params, (k + 1) * dt)
        spacing = sigma_next * sqrt_dt
        drift = (contract.rate_r - 0.5 * sigma_next * sigma_next) * dt

        x_top = float(x[0])
        if not (spacing > 0 and _INT64_MIN + 2 * k + 1 <= x_top / spacing + 0.5 < _INT64_MAX):
            raise ValueError(
                f"grid index does not fit in int64 while building level {k + 1}, "
                f"volatility {sigma_next!r}"
            )
        j_top = nearest_grid_index(x_top, spacing)
        j = j_top - evens[: k + 1]
        # a fault shows as a non-finite value, reported below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            k_adj = x - j * spacing
            q_up, q_down = censored_transition(q, k_adj, spacing)
            x_next = ((j_top + 1) - evens[: k + 2]) * spacing + drift
        q_next = np.empty(k + 2)
        q_next[0] = q_up[0]
        np.add(q_down[:-1], q_up[1:], out=q_next[1 : k + 1])
        q_next[k + 1] = q_down[-1]

        for name, arr in (("x", x_next), ("Q", q_next), ("K", k_adj)):
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise ValueError(f"non-finite {name} while building level {k + 1}, node {bad[0]}")

        yield x, q, j, k_adj, q_up, q_down
        x, q = x_next, q_next

    yield x, q, None, None, None, None


def exact_walk(params: SvParams, contract: OptionContract):
    """Terminal log prices and masses, as lists of 40-digit mpf, of the walk's own grid.

    Each level's top grid index, spacing and drift are the float walk's;
    the log prices, displacements and masses on that grid are exact to 40
    digits, as is the price, the discounted sum of their payoffs.
    """
    dt = contract.dt
    with mpmath.workdps(40):
        x, q = [mpmath.mpf(0)], [mpmath.mpf(1)]
        for k, (*_, j, _, _, _) in enumerate(oracle_levels(params, contract)):
            if j is None:
                break
            sigma_next = vol_mean_path(params, (k + 1) * dt)
            spacing = mpmath.mpf(sigma_next * math.sqrt(dt))
            drift = mpmath.mpf((contract.rate_r - 0.5 * sigma_next * sigma_next) * dt)
            j_top = int(j[0])
            q_next = [mpmath.mpf(0)] * (k + 2)
            for i in range(k + 1):
                k_adj = x[i] - (j_top - 2 * i) * spacing
                up = min(max(q[i] / 2 * (1 + k_adj / spacing), 0), q[i])
                q_next[i] += up
                q_next[i + 1] += q[i] - up
            x = [(j_top + 1 - 2 * i) * spacing + drift for i in range(k + 2)]
            q = q_next
        log_spot = mpmath.log(underlying_value(params.spot_M0, contract))
        total = sum(m * max(mpmath.exp(log_spot + v) - contract.strike, 0) for v, m in zip(x, q))
        price = total * mpmath.exp(-mpmath.mpf(contract.rate_r) * contract.expiry_T)
    return x, q, price
