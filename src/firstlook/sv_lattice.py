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

# the build holds one chunk of levels at a time, so memory is O(n) while time
# stays O(n^2): at n = 5000 build and price take about 0.23 s and 1.0 MB
# (2-vCPU Intel Xeon, Python 3.11, numpy 2.4)
MAX_SV_STEPS = 5_000
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# every array of a chunk holds at most this many 8-byte values (64 KB), under
# glibc's 128 KB mmap threshold: a larger array comes from fresh pages each chunk
_CHUNK_VALUES = 8192


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


def _chunk_levels(k0: int, n: int) -> int:
    """Levels from k0 that one chunk walks: the most L with L * (k0 + L + 1) <= _CHUNK_VALUES."""
    b = k0 + 1
    return max(1, min(n - k0, (math.isqrt(b * b + 4 * _CHUNK_VALUES) - b) // 2))


def _walk_chunk(k0: int, steps: list[tuple], evens: np.ndarray, x: np.ndarray, q: np.ndarray):
    """Levels k0, k0 + 1, ... through the transitions ``steps``, from level k0's ``x`` and ``q``.

    ``steps`` holds each transition's (j_top, spacing, drift). Returns the
    levels as ``walk_levels`` yields them, the log prices and masses of the
    level after them, and False if a sum over the new values is not finite.
    A non-finite K or x shows in K's sum, or in the next level's x, and a
    non-finite mass carries on to the level after the chunk.
    """
    rows = len(steps)
    width = k0 + rows + 1  # nodes of the level after the chunk
    j_top, spacing, drift = (np.array(column)[:, None] for column in zip(*steps))
    # a fault shows as a non-finite value, which walk_levels reports
    with np.errstate(all="ignore"):
        j = j_top - evens[:width]
        # a contiguous operand: numpy broadcasts a column at a fraction of its speed
        spacing = spacing.repeat(width, axis=1)
        # each level's successor: x_next[r] = ((j_top + 1) - evens) * spacing + drift
        x_next = np.multiply(j + 1, spacing)
        np.add(x_next, drift, out=x_next)
        k_adj = np.multiply(j, spacing)
        np.subtract(x, k_adj[0, : k0 + 1], out=k_adj[0, : k0 + 1])
        np.subtract(x_next[:-1], k_adj[1:], out=k_adj[1:])
        up_share = np.divide(k_adj, spacing, out=spacing)
        np.add(1.0, up_share, out=up_share)
        q_up = np.empty((rows, width - 1))
        q_down = np.empty((rows, width - 1))
        q_next = np.empty((rows, width))
        levels = []
        for r in range(rows):
            m = k0 + r + 1
            up, down = q_up[r, :m], q_down[r, :m]
            np.multiply(0.5, q, out=up)
            np.multiply(up, up_share[r, :m], out=up)
            # np.clip's values, NaN included, at a fraction of its call overhead
            np.maximum(up, 0.0, out=up)
            np.minimum(up, q, out=up)
            np.subtract(q, up, out=down)
            levels.append((x, q, j[r, :m], k_adj[r, :m], up, down))
            x, q = x_next[r, : m + 1], q_next[r, : m + 1]
            q[0] = up[0]
            np.add(down[:-1], up[1:], out=q[1:m])
            q[m] = down[-1]
        finite = math.isfinite(k_adj.sum() + x.sum() + q.sum())
    return levels, x, q, finite


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

    A level's grid follows from its top index, spacing and drift alone,
    so those recur in Python and a chunk of levels gets its grid in a few
    2-D numpy calls; only the mass runs level by level, in the ufunc order
    of a walk that builds each level on its own, whose bits it keeps. The
    yielded arrays, the terminal level's included, are views into the chunk's.
    """
    contract.check_steps(MAX_SV_STEPS)
    n = contract.steps_n
    dt = contract.dt
    sqrt_dt = math.sqrt(dt)
    # level k's grid indices are j_top - evens[:k+1], the next level's log
    # prices ((j_top + 1) - evens[:k+2]) * spacing + drift
    evens = 2 * np.arange(n + 1)
    x_top = 0.0
    x, q = np.array([0.0]), np.array([1.0])
    k0 = 0
    while k0 < n:
        steps = []
        fault = None
        for k in range(k0, k0 + _chunk_levels(k0, n)):
            sigma_next = vol_mean_path(params, (k + 1) * dt)
            spacing = sigma_next * sqrt_dt
            drift = (contract.rate_r - 0.5 * sigma_next * sigma_next) * dt
            # the spacing must be positive, and j_top = floor(x_top / spacing + 0.5)
            # must keep j_top + 1 and j_top - 2k - 1 in int64
            if not (spacing > 0 and _INT64_MIN + 2 * k + 1 <= x_top / spacing + 0.5 < _INT64_MAX):
                fault = ValueError(
                    f"grid index does not fit in int64 while building level {k + 1}, "
                    f"volatility {sigma_next!r}"
                )
                break
            j_top = nearest_grid_index(x_top, spacing)
            steps.append((j_top, spacing, drift))
            x_top = (j_top + 1) * spacing + drift

        if steps:
            levels, x, q, finite = _walk_chunk(k0, steps, evens, x, q)
            for r, level in enumerate(levels):
                # a sum turns non-finite with any value, so the scan runs only on a
                # fault (or on finite values whose sum overflowed, where it finds nothing)
                if not finite:
                    x_next, q_next = levels[r + 1][:2] if r + 1 < len(levels) else (x, q)
                    for name, arr in (("x", x_next), ("Q", q_next), ("K", level[3])):
                        bad = np.flatnonzero(~np.isfinite(arr))
                        if bad.size:
                            raise ValueError(
                                f"non-finite {name} while building level {k0 + r + 1}, "
                                f"node {bad[0]}"
                            )
                yield level
            k0 += len(levels)
        if fault is not None:
            raise fault

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
