"""The SV lattice walked one level at a time, with fresh arrays for every level.

The oracle for ``sv_lattice.walk_levels``, which works a chunk of levels
at a time. It shares only the volatility path and the grid rounding
(``vol_mean_path``, ``nearest_grid_index``) with the walk, and runs each
level's ufuncs in the order the walk must keep, so the two agree bit for
bit, sign of zero included.
"""

import math

import numpy as np

from firstlook.contracts import OptionContract, SvParams
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
