"""Censored binomial lattice for the stochastic-volatility underlying.

The log price, measured relative to the spot, lives on a per-level grid
whose spacing follows the mean-reverting volatility path. The top node
of each level is snapped to the nearest grid point; the rest keep the
recombining pattern and the resulting displacement is absorbed into
censored transition probabilities, so node probability mass is conserved
exactly.

Anchoring the grid at the spot keeps grid indices small; anchored at
absolute zero instead, a large log spot scrambles the node displacements
whenever the spacing changes and the lattice loses terminal variance at
a rate that does not vanish with the step count.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import IO, Iterator

import numpy as np

from .contracts import OptionContract, SvParams, discount, payoff, underlying_value
from .output import write_table

# the build holds one level at a time, so memory is O(n) while time stays
# O(n^2): at n = 5000 build and price take about 0.18 s and 0.6 MB (2-vCPU Xeon)
MAX_SV_STEPS = 5_000
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def vol_mean_path(params: SvParams, t: float) -> float:
    """Conditional mean of the volatility process at time t.

    The reversion drift is linear in sigma, so the conditional mean
    follows theta + (sigma0 - theta) * exp(-kappa * t) regardless of the
    noise scale.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return params.theta + (params.sigma0 - params.theta) * math.exp(-params.kappa * t)


def nearest_grid_index(x: float, spacing: float) -> int:
    """Integer J minimizing |J * spacing - x|, for a spacing > 0.

    Exact ties round toward the larger index.
    """
    return int(math.floor(x / spacing + 0.5))


def censored_transition(q_mass, k_adjust, spacing: float):
    """Split node probability mass between the two successors.

    The raw up-flow (q_mass/2) * (1 + K / spacing), where ``spacing`` is
    the next level's, keeps the expected log-price increment on its drift;
    it is censored into [0, q_mass] when the grid displacement K is too
    large. Censoring is defined behavior, not an error. ``q_mass`` and
    ``k_adjust`` may be arrays covering a whole level.
    """
    raw = 0.5 * q_mass * (1.0 + k_adjust / spacing)
    # np.clip's values, NaN included, at a fraction of its call overhead
    q_up = np.minimum(np.maximum(raw, 0.0), q_mass)
    return q_up, q_mass - q_up


def walk_levels(params: SvParams, contract: OptionContract) -> Iterator[tuple]:
    """Yield level k as ``(x, q, j, k_adj, q_up, q_down)`` over k+1 nodes.

    ``x`` are spot-relative log prices and ``q`` node probabilities; the
    rest describe the outgoing transitions (K is the node's signed
    displacement above its grid point, x - J * spacing) and are None at
    the terminal level. Raises ValueError naming the level and node if any
    value turns non-finite, naming the level and volatility if the spacing
    is not positive or a grid index does not fit in int64, and for step
    counts above MAX_SV_STEPS.
    """
    contract.check_steps(MAX_SV_STEPS)
    dt = contract.dt
    sqrt_dt = math.sqrt(dt)
    # level k's grid indices are j_top - evens[:k+1], the next level's j_top + 1 - evens[:k+2]
    evens = 2 * np.arange(contract.steps_n + 1)
    x = np.array([0.0])
    q = np.array([1.0])

    for k in range(contract.steps_n):
        sigma_next = vol_mean_path(params, (k + 1) * dt)
        spacing = sigma_next * sqrt_dt
        drift = (contract.rate_r - 0.5 * sigma_next * sigma_next) * dt

        # the spacing must be positive, and j_top = floor(x_top / spacing + 0.5)
        # must keep j_top + 1 and j_top - 2k - 1 in int64
        x_top = float(x[0])
        if not (spacing > 0 and _INT64_MIN + 2 * k + 1 <= x_top / spacing + 0.5 < _INT64_MAX):
            raise ValueError(
                f"grid index does not fit in int64 while building level {k + 1}, "
                f"volatility {sigma_next!r}"
            )
        j_top = nearest_grid_index(x_top, spacing)
        j = j_top - evens[: k + 1]
        k_adj = x - j * spacing
        q_up, q_down = censored_transition(q, k_adj, spacing)

        x_next = ((j_top + 1) - evens[: k + 2]) * spacing + drift
        q_next = np.empty(k + 2)
        q_next[0] = q_up[0]
        np.add(q_down[:-1], q_up[1:], out=q_next[1 : k + 1])
        q_next[k + 1] = q_down[-1]

        # any non-finite value makes the sum non-finite, so the scan runs only on a
        # fault (or on finite values whose sum overflowed, where it finds nothing)
        if not math.isfinite(x_next.sum() + q_next.sum() + k_adj.sum()):
            for name, arr in (("x", x_next), ("Q", q_next), ("K", k_adj)):
                bad = np.flatnonzero(~np.isfinite(arr))
                if bad.size:
                    raise ValueError(
                        f"non-finite {name} while building level {k + 1}, node {bad[0]}"
                    )

        yield x, q, j, k_adj, q_up, q_down
        x, q = x_next, q_next

    yield x, q, None, None, None, None


@dataclass(frozen=True, eq=False)
class SvLattice:
    """The terminal level of ``walk_levels``: log prices ``x``, masses ``q``."""

    params: SvParams
    contract: OptionContract
    x: np.ndarray
    q: np.ndarray


def build_censored_lattice(params: SvParams, contract: OptionContract) -> SvLattice:
    """Walk the lattice to its terminal level; raises as ``walk_levels``."""
    x, q, *_ = deque(walk_levels(params, contract), maxlen=1).pop()
    return SvLattice(params, contract, x, q)


def _terminal_payoff(lattice: SvLattice) -> np.ndarray:
    terminal_cpm = lattice.params.spot_M0 * np.exp(lattice.x)
    return payoff(underlying_value(terminal_cpm, lattice.contract), lattice.contract)


@dataclass(frozen=True)
class SvPriceResult:
    """``price`` is the discounted expected terminal payoff."""

    price: float


def price_sv_option(lattice: SvLattice) -> SvPriceResult:
    """Discounted expected terminal payoff over the terminal node mass."""
    contract = lattice.contract
    expected = float(np.dot(lattice.q, _terminal_payoff(lattice)))
    return SvPriceResult(price=discount(expected, contract.rate_r, contract.expiry_T))


def _backward_values(lattice: SvLattice, levels: list[tuple]) -> list[np.ndarray]:
    """Per-node option values by backward induction over the lattice's ``levels``.

    The root value re-derives the terminal-sum price up to accumulation
    roundoff.
    """
    n = lattice.contract.steps_n
    values = [np.empty(0)] * (n + 1)
    values[n] = _terminal_payoff(lattice)
    step_disc = discount(1.0, lattice.contract.rate_r, lattice.contract.dt)
    for k in range(n - 1, -1, -1):
        _, q, _, _, q_up, _ = levels[k]
        # conditional up-probability; zero-mass nodes split evenly
        cond_up = np.divide(q_up, q, out=np.full_like(q, 0.5), where=q > 0)
        nxt = values[k + 1]
        values[k] = step_disc * (cond_up * nxt[:-1] + (1.0 - cond_up) * nxt[1:])
    return values


def lattice_to_csv(lattice: SvLattice, stream: IO[str]) -> None:
    """Dump every node with header level,node,x,J,K,Q,q_up,q_down,option_value."""
    levels = list(walk_levels(lattice.params, lattice.contract))
    values = _backward_values(lattice, levels)

    def rows():
        for k, (x, q, *transitions) in enumerate(levels):
            # column-wise lists: indexing numpy per cell is slower
            j, k_adj, q_up, q_down = (
                repeat(None) if a is None else a.tolist() for a in transitions
            )
            yield from zip(
                repeat(k), range(k + 1), x.tolist(), j, k_adj, q.tolist(), q_up, q_down,
                values[k].tolist(),
            )

    write_table(
        stream, ["level", "node", "x", "J", "K", "Q", "q_up", "q_down", "option_value"], rows()
    )
