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

from .contracts import (OptionContract, SvParams, discount, expected_payoff, terminal_payoff,
                        underlying_value)
from .output import row_format, write_table

# the build holds one level at a time, so memory is O(n) and time O(n^2): at n = 5000
# build and price take about 0.08 s and 0.25 MB (2-vCPU Intel Xeon, Python 3.11, numpy 2.4)
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


def _log_prices(grid: tuple, nodes):
    """Log prices of a level's ``nodes`` (an index or an int array) on its ``grid``,
    (j_in, spacing_in, drift_in): the previous level's top grid index and this level's."""
    j_in, spacing_in, drift_in = grid
    return ((j_in + 1) - 2 * nodes) * spacing_in + drift_in


def _displacements(grid: tuple, step: tuple, nodes):
    """K = x - J * spacing of a level's ``nodes``, linear in the node index."""
    _, k_top, spacing = step
    return k_top + 2 * (spacing - grid[1]) * nodes


def _step(q: np.ndarray, a: float, b: float, index: np.ndarray) -> tuple:
    """A level's up-flows, node i's half up-share a + b i of q_i censored into [0, q_i],
    and the next level's masses; ``index`` is 0.0, 1.0, ... over at least q's nodes."""
    k = q.size - 1
    q_up = np.multiply(b, index[: k + 1])
    np.add(q_up, a, q_up)
    np.multiply(q_up, q, q_up)
    # rounding keeps the shares monotone in i, so with both ends in [0, 1] each fl(share * q)
    # lies in [0, q] already; otherwise np.clip's values, NaN included, at less call overhead
    if not (0.0 <= a <= 1.0 and 0.0 <= a + b * k <= 1.0):
        np.maximum(q_up, 0.0, out=q_up)
        np.minimum(q_up, q, out=q_up)
    # node i gets node i - 1's down-flow and its own up-flow; 0.0 + q_up[0] is q_up[0] as q_up >= +0
    q_next = np.empty(k + 2)
    np.subtract(q, q_up, q_next[1:])
    q_next[0] = 0.0
    np.add(q_next[: k + 1], q_up, q_next[: k + 1])
    return q_up, q_next


def _walk(params: SvParams, contract: OptionContract) -> Iterator[tuple]:
    """Yield level k as ``(q, q_up, grid, step)``, fresh arrays each level; raises as
    ``walk_levels``. ``step`` is (j_top, k_top, spacing), the top node's grid index and
    displacement on the next level's grid; the terminal level has no step and no up-flows."""
    contract.check_steps(MAX_SV_STEPS)
    dt = contract.dt
    sqrt_dt = math.sqrt(dt)
    index = np.arange(float(contract.steps_n))
    grid, q = (-1, 0.0, 0.0), np.array([1.0])  # level 0 is the one node x = 0
    for k in range(contract.steps_n):
        j_in, spacing_in, drift_in = grid
        sigma_next = vol_mean_path(params, (k + 1) * dt)
        spacing = sigma_next * sqrt_dt
        drift = (contract.rate_r - 0.5 * sigma_next * sigma_next) * dt
        x_top = _log_prices(grid, 0)
        # the spacing must be positive, and j_top = floor(x_top / spacing + 0.5)
        # must keep j_top + 1 and j_top - 2k - 1 in int64
        if not (spacing > 0 and _INT64_MIN + 2 * k + 1 <= x_top / spacing + 0.5 < _INT64_MAX):
            raise ValueError(f"grid index does not fit in int64 while building level {k + 1}, "
                             f"volatility {sigma_next!r}")
        j_top = nearest_grid_index(x_top, spacing)
        # x_top - j_top * spacing, from terms the size of the spacing: the
        # difference itself cancels down to about |x_top| eps at every node
        k_top = (j_in + 1) * (spacing_in - spacing) + drift_in - (j_top - j_in - 1) * spacing
        step, next_grid = (j_top, k_top, spacing), (j_top, spacing, drift)
        # node i's half up-share (1 + K_i / spacing) / 2 is a + b i
        a, b = 0.5 + 0.5 * k_top / spacing, (spacing - spacing_in) / spacing
        # log prices fall with the node index and K and the shares are linear in it, so
        # the end nodes bound them all, and finite shares keep every mass in [0, q]; only
        # a fault (or an overflowed sum of finite ends) silences numpy and runs the scan
        if math.isfinite(_log_prices(next_grid, 0) + _log_prices(next_grid, k + 1) + k_top
                         + _displacements(grid, step, k) + a + (a + b * k)):
            q_up, q_next = _step(q, a, b, index)
        else:
            with np.errstate(all="ignore"):
                q_up, q_next = _step(q, a, b, index)
                nodes = np.arange(k + 2)
                for name, arr in (("x", _log_prices(next_grid, nodes)), ("Q", q_next),
                                  ("K", _displacements(grid, step, nodes[:-1]))):
                    bad = np.flatnonzero(~np.isfinite(arr))
                    if bad.size:
                        raise ValueError(f"non-finite {name} while building level {k + 1}, "
                                         f"node {bad[0]}")
        yield q, q_up, grid, step
        grid, q = next_grid, q_next
    yield q, None, grid, None


def walk_levels(params: SvParams, contract: OptionContract) -> Iterator[tuple]:
    """Yield level k as ``(x, q, j, k_adj, q_up, q_down)`` over k+1 nodes.

    ``x`` are spot-relative log prices and ``q`` node probabilities; the
    rest describe the outgoing transitions (K is the node's signed
    displacement above its grid point, x - J * spacing) and are None at
    the terminal level. A node's mass q splits into the raw up-flow
    (q/2) * (1 + K / spacing), with the next level's spacing, which keeps
    the expected log-price increment on its drift, censored into [0, q]
    when the displacement is too large; censoring is defined behavior,
    not an error. Raises ValueError naming the level and node if any
    value turns non-finite, naming the level and volatility if the
    spacing is not positive or a grid index does not fit in int64, and
    for step counts above MAX_SV_STEPS.

    A level's nodes sit on one evenly spaced grid, so K and the up-share are linear in the node
    index, and the walk steps the masses from two scalars; ``q_down`` is q - q_up, formed here.
    """
    for q, q_up, grid, step in _walk(params, contract):
        nodes = np.arange(q.size)
        x = _log_prices(grid, nodes)
        if step is None:
            yield x, q, None, None, None, None
        else:
            yield x, q, step[0] - 2 * nodes, _displacements(grid, step, nodes), q_up, q - q_up


@dataclass(frozen=True, eq=False)
class SvLattice:
    """The terminal level of ``walk_levels``: log prices ``x``, masses ``q``."""

    params: SvParams
    contract: OptionContract
    x: np.ndarray
    q: np.ndarray


def build_censored_lattice(params: SvParams, contract: OptionContract) -> SvLattice:
    """Walk the lattice to its terminal level; raises as ``walk_levels``."""
    q, _, grid, _ = deque(_walk(params, contract), maxlen=1).pop()
    return SvLattice(params, contract, _log_prices(grid, np.arange(q.size)), q)


@dataclass(frozen=True)
class SvPriceResult:
    """``price`` is the discounted expected terminal payoff."""

    price: float


def price_sv_option(lattice: SvLattice) -> SvPriceResult:
    """``expected_payoff`` over the terminal node mass; raises as it does."""
    contract = lattice.contract
    log_values = math.log(underlying_value(lattice.params.spot_M0, contract)) + lattice.x
    return SvPriceResult(expected_payoff(lattice.q, log_values, log_values[0], contract))


def _backward_values(lattice: SvLattice, levels: list[tuple]) -> list[np.ndarray]:
    """Per-node option values by backward induction over the lattice's ``levels``.

    The root value re-derives the terminal-sum price up to accumulation
    roundoff.
    """
    n = lattice.contract.steps_n
    values = [np.empty(0)] * (n + 1)
    log_values = math.log(underlying_value(lattice.params.spot_M0, lattice.contract)) + lattice.x
    values[n] = terminal_payoff(log_values, log_values[0], lattice.contract)
    step_disc = discount(1.0, lattice.contract.rate_r, lattice.contract.dt)
    for k in range(n - 1, -1, -1):
        _, q, _, _, q_up, _ = levels[k]
        # conditional up-probability; zero-mass nodes split evenly
        cond_up = np.divide(q_up, q, out=np.full_like(q, 0.5), where=q > 0)
        nxt = values[k + 1]
        values[k] = step_disc * (cond_up * nxt[:-1] + (1.0 - cond_up) * nxt[1:])
    return values


_DUMP_HEADER = ["level", "node", "x", "J", "K", "Q", "q_up", "q_down", "option_value"]
_DUMP_ROW = row_format([int, int, float, int, float, float, float, float, float])
# the terminal level has no outgoing transitions
_DUMP_TERMINAL_ROW = row_format([int, int, float, None, None, float, None, None, float])


def lattice_to_csv(lattice: SvLattice, stream: IO[str]) -> None:
    """Dump every node with header level,node,x,J,K,Q,q_up,q_down,option_value."""
    levels = list(walk_levels(lattice.params, lattice.contract))
    values = _backward_values(lattice, levels)
    write_table(stream, _DUMP_HEADER, ())
    for k, ((x, q, j, k_adj, q_up, q_down), v) in enumerate(zip(levels, values)):
        if j is None:
            row, columns = _DUMP_TERMINAL_ROW, (x, q, v)
        else:
            row, columns = _DUMP_ROW, (x, j, k_adj, q, q_up, q_down, v)
        # one % per row over column-wise lists: indexing numpy per cell is slower
        rows = zip(repeat(k), range(k + 1), *(a.tolist() for a in columns))
        stream.write("".join(map(row.__mod__, rows)))
