"""Sequential Monte Carlo pricing and lattice validation for the SV model.

Paths discretise the price and volatility dynamics with either the Euler
or the Milstein scheme; the price update is exponential, so prices stay
positive, and the volatility is floored at zero after every step.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .contracts import SV_PARAMS, OptionContract, SvParams, discount, payoff, underlying_value
from .output import write_table
from .sv_lattice import build_censored_lattice, price_sv_option

# cost bounds checked before any path array exists. A run at the path cap
# holds three 80 MB arrays: the price and volatility state and one step's
# two normals for half the paths, which the other half walks negated. The
# path-step cap is about a minute of Euler steps; a sweep may cost ten of
# those, over at most MAX_SWEEP_POINTS points.
MAX_MC_PATHS = 10**7
MIN_MC_PATHS = 4
MAX_PATH_STEPS = 10**9
MAX_SWEEP_PATH_STEPS = 10 * MAX_PATH_STEPS
MAX_SWEEP_POINTS = 10**4
# a sweep walks its points in groups of at most this many paths in all (8 MB
# of price and volatility state), or one point if it has more: criterion 6's
# five points of 100k paths share each step's normals in one group
SWEEP_GROUP_PATHS = 2**19
# paths per block of the step kernel: a block's normals, state and scratch
# (about 1.75 MB) stay in a 2 MB L2 cache while every point steps through it
PATH_BLOCK = 2**15


class Scheme(Enum):
    EULER = "euler"
    MILSTEIN = "milstein"


class PathCountError(ValueError):
    """A path count that cannot be split into antithetic pairs."""


@dataclass(frozen=True)
class McConfig:
    scheme: Scheme
    n_paths: int
    steps: int
    seed: int

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.n_paths > MAX_MC_PATHS:
            raise ValueError(f"n_paths = {self.n_paths} exceeds supported maximum {MAX_MC_PATHS}")
        cost = self.n_paths * self.steps
        if cost > MAX_PATH_STEPS:
            raise ValueError(f"n_paths * steps = {cost} exceeds supported maximum {MAX_PATH_STEPS}")
        # paths run in antithetic pairs, and one pair has no spread
        if self.n_paths < MIN_MC_PATHS or self.n_paths % 2:
            raise PathCountError(f"n_paths must be even and >= {MIN_MC_PATHS}, got {self.n_paths}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class McResult:
    price: float
    std_error: float
    ci_low: float
    ci_high: float


def advance(
    m: np.ndarray,
    sigma: np.ndarray,
    dt: float,
    drift: float,
    sv: SvParams,
    eps_price: np.ndarray,
    eps_vol: np.ndarray,
    scheme: Scheme,
    scratch: np.ndarray,
    antithetic: bool,
) -> None:
    """One step of (price, volatility) for every path, in place.

    The ufuncs run in the order of
    m * exp((drift - 0.5 * sigma * sigma) * dt + sigma * sqrt(dt) * eps_price) and
    sigma + kappa * (theta - sigma) * dt + delta * sqrt(sigma * dt) * eps_vol,
    so a path's numbers do not depend on the array it sits in. Antithetic,
    the step subtracts the two shock terms instead of adding them: IEEE
    negation is exact, x * -e is -(x * e) and b + -c is b - c, so this is
    bit for bit the step on the negated normals, and (-e)^2 is e^2. Milstein
    adds the second-order volatility correction to the Euler step; the
    volatility is floored at zero afterwards. ``scratch`` holds three
    arrays shaped like ``m``, so that no ufunc but the last price update
    writes over its own input: numpy's overlap check on such a call costs
    more than the arithmetic of a few paths.
    """
    a, b, c = scratch
    shock = np.subtract if antithetic else np.add
    np.multiply(0.5, sigma, out=a)
    np.multiply(a, sigma, out=b)
    np.subtract(drift, b, out=a)
    np.multiply(a, dt, out=b)
    np.multiply(sigma, math.sqrt(dt), out=a)
    np.multiply(a, eps_price, out=c)
    shock(b, c, out=a)
    np.exp(a, out=b)
    np.multiply(m, b, out=m)
    np.subtract(sv.theta, sigma, out=a)
    np.multiply(sv.kappa, a, out=b)
    np.multiply(b, dt, out=a)
    np.add(sigma, a, out=b)
    np.multiply(sigma, dt, out=a)
    np.sqrt(a, out=c)
    np.multiply(sv.delta, c, out=a)
    np.multiply(a, eps_vol, out=c)
    shock(b, c, out=a)
    if scheme is Scheme.MILSTEIN:
        np.multiply(eps_vol, eps_vol, out=b)
        np.subtract(b, 1.0, out=c)
        np.multiply(0.25 * sv.delta * sv.delta * dt, c, out=b)
        np.add(a, b, out=c)
        a = c
    np.maximum(a, 0.0, out=sigma)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _generator(seed: int) -> np.random.Generator:
    _check_seed(seed)
    # counter-based bit generator: seed-stable regardless of draw layout
    return np.random.Generator(np.random.Philox(seed))


def _walk_paths(
    points: Sequence[SvParams],
    drift: float,
    dt: float,
    steps: int,
    n_paths: int,
    scheme: Scheme,
    seed: int,
    paired: bool,
) -> Iterator[np.ndarray]:
    """Yield the (points, n_paths) prices at the spot and after each step.

    The yielded array is the walk's state, updated in place by the next
    step. Every point walks the same normals: per step ``eps_price`` then
    ``eps_vol`` from one Philox stream, drawn a block of steps at a time
    while a step has fewer than ``PATH_BLOCK`` paths. Paired, normals are
    drawn for the first ``n_paths // 2`` paths only, and path
    ``i + n_paths // 2`` walks path ``i``'s normals negated (antithetic
    pairs; ``advance`` subtracts their shocks, so no negated copy is made),
    so the first half is the unpaired walk of ``n_paths // 2`` paths.
    """
    rng = _generator(seed)
    m = np.empty((len(points), n_paths))
    sigma = np.empty_like(m)
    for p, sv in enumerate(points):
        m[p] = sv.spot_M0
        sigma[p] = sv.sigma0
    drawn_paths = n_paths // 2 if paired else n_paths
    per_draw = max(1, min(steps, PATH_BLOCK // drawn_paths))
    eps = np.empty((per_draw, 2, drawn_paths))
    scratch = np.empty((3, min(drawn_paths, PATH_BLOCK)))
    # (first path, antithetic sign) of each half; a block's antithetic half
    # steps right after it, while its normals are in cache
    halves = [(0, False), (drawn_paths, True)] if paired else [(0, False)]
    blocks = []
    for j in range(0, drawn_paths, PATH_BLOCK):
        width = min(PATH_BLOCK, drawn_paths - j)
        for offset, antithetic in halves:
            state = slice(offset + j, offset + j + width)
            states = [(m[p, state], sigma[p, state], sv) for p, sv in enumerate(points)]
            blocks.append((slice(j, j + width), antithetic, scratch[:, :width], states))
    yield m
    for done in range(0, steps, per_draw):
        drawn = eps[: min(per_draw, steps - done)]
        rng.standard_normal(out=drawn)
        for step_eps in drawn:
            for block, antithetic, block_scratch, states in blocks:
                block_price, block_vol = step_eps[:, block]
                for m_block, sigma_block, sv in states:
                    advance(m_block, sigma_block, dt, drift, sv, block_price, block_vol,
                            scheme, block_scratch, antithetic)
            yield m


def sample_paths(
    sv: SvParams,
    drift: float,
    dt: float,
    steps: int,
    n_paths: int,
    scheme: Scheme,
    seed: int,
) -> np.ndarray:
    """Full price paths, shape (n_paths, steps + 1), column 0 at the spot.

    The paths are independent: they are not drawn in antithetic pairs.
    """
    out = np.empty((n_paths, steps + 1))
    for i, m in enumerate(_walk_paths((sv,), drift, dt, steps, n_paths, scheme, seed, False)):
        out[:, i] = m[0]
    return out


def mc_price(
    sv: SvParams | Sequence[SvParams], contract: OptionContract, cfg: McConfig
) -> McResult | list[McResult]:
    """Average of discounted terminal payoffs with its 95% interval.

    The paths run in ``n_paths // 2`` antithetic pairs, and the standard
    error is that of the mean of the pairs' average payoffs: a pair's two
    payoffs are correlated, so the spread over all paths would misstate it.
    Given a sequence of SV points, every point walks the same normals in
    one state of ``len(sv) * n_paths`` paths, at most ``MAX_MC_PATHS``,
    and the list of results holds each point's single-point result.
    """
    points = (sv,) if isinstance(sv, SvParams) else tuple(sv)
    if len(points) * cfg.n_paths > MAX_MC_PATHS:
        raise ValueError(
            f"{len(points)} points x {cfg.n_paths} paths exceeds supported maximum {MAX_MC_PATHS}"
        )
    dt = contract.expiry_T / cfg.steps
    walk = _walk_paths(points, contract.rate_r, dt, cfg.steps, cfg.n_paths, cfg.scheme, cfg.seed,
                       paired=True)
    pairs = cfg.n_paths // 2
    results = []
    # an overflow shows as a non-finite price or standard error, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for terminal in deque(walk, maxlen=1).pop():
            payoffs = payoff(underlying_value(terminal, contract), contract)
            pair_means = 0.5 * (payoffs[:pairs] + payoffs[pairs:])
            price = discount(float(np.mean(pair_means)), contract.rate_r, contract.expiry_T)
            spread = discount(float(np.std(pair_means, ddof=1)), contract.rate_r, contract.expiry_T)
            std_error = spread / math.sqrt(pairs)
            if not (math.isfinite(price) and math.isfinite(std_error)):
                raise ValueError(
                    f"the Monte Carlo price {price!r} or its standard error {std_error!r} "
                    "is not finite"
                )
            half = 1.96 * std_error
            results.append(
                McResult(price=price, std_error=std_error, ci_low=price - half, ci_high=price + half)
            )
    return results[0] if isinstance(sv, SvParams) else results


class Containment(Enum):
    CONTAINED = "contained"
    BELOW = "below"
    ABOVE = "above"


def validate_lattice(lattice_price: float, mc: McResult) -> Containment:
    """Locate the lattice price relative to the Monte Carlo 95% interval.

    Raises ValueError if the price or a bound is NaN, which no interval contains.
    """
    if math.isnan(lattice_price) or math.isnan(mc.ci_low) or math.isnan(mc.ci_high):
        raise ValueError(
            f"cannot place lattice price {lattice_price!r} against the Monte Carlo interval "
            f"[{mc.ci_low!r}, {mc.ci_high!r}]"
        )
    if lattice_price < mc.ci_low:
        return Containment.BELOW
    if lattice_price > mc.ci_high:
        return Containment.ABOVE
    return Containment.CONTAINED


@dataclass(frozen=True)
class SweepRow:
    param: str
    value: float
    lattice_price: float
    mc_price: float
    ci_low: float
    ci_high: float
    verdict: Containment


def check_sweep(cfg: McConfig, points: int) -> None:
    """Refuse a sweep of ``points`` runs of ``cfg`` before it allocates anything."""
    if points > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep of {points} points exceeds supported maximum {MAX_SWEEP_POINTS}")
    cost = points * cfg.n_paths * cfg.steps
    if cost > MAX_SWEEP_PATH_STEPS:
        raise ValueError(
            f"points * n_paths * steps = {cost} exceeds supported maximum {MAX_SWEEP_PATH_STEPS}"
        )


def containment_sweep(
    sv: SvParams,
    contract: OptionContract,
    cfg: McConfig,
    param: str,
    values: Sequence[float],
) -> list[SweepRow]:
    """Re-price lattice and Monte Carlo while one SV parameter sweeps.

    The Monte Carlo prices come from one walk per group of at most
    ``SWEEP_GROUP_PATHS // n_paths`` points (one if that is zero), each
    equal to its own ``mc_price``.
    """
    if param not in SV_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r}")
    if not values:
        raise ValueError("sweep values must not be empty")
    check_sweep(cfg, len(values))
    points = [replace(sv, **{param: float(value)}) for value in values]
    lattices = [price_sv_option(build_censored_lattice(point, contract)).price for point in points]
    group = max(1, SWEEP_GROUP_PATHS // cfg.n_paths)
    results = [
        mc
        for start in range(0, len(points), group)
        for mc in mc_price(points[start : start + group], contract, cfg)
    ]
    return [
        SweepRow(
            param=param,
            value=float(value),
            lattice_price=lattice,
            mc_price=mc.price,
            ci_low=mc.ci_low,
            ci_high=mc.ci_high,
            verdict=validate_lattice(lattice, mc),
        )
        for value, lattice, mc in zip(values, lattices, results)
    ]


def sweep_to_csv(rows: Iterable[SweepRow], stream: IO[str]) -> None:
    write_table(
        stream,
        ["param", "value", "lattice_price", "mc_price", "ci_low", "ci_high", "verdict"],
        (
            (r.param, r.value, r.lattice_price, r.mc_price, r.ci_low, r.ci_high, r.verdict.value)
            for r in rows
        ),
    )
