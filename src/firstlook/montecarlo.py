"""Sequential Monte Carlo pricing and lattice validation for the SV model.

Paths discretise the price and volatility dynamics with either the Euler
or the Milstein scheme; the price update is exponential, so prices stay
positive, and the volatility is floored at zero after every step.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .contracts import OptionContract, SvParams, discount, payoff
from .sv_lattice import build_censored_lattice, price_sv_option

# cost bounds checked before any path array exists: a path array is 80 MB
# at the path cap, and the path-step cap is about a minute of Euler steps
MAX_MC_PATHS = 10**7
MAX_PATH_STEPS = 10**9


class Scheme(Enum):
    EULER = "euler"
    MILSTEIN = "milstein"


@dataclass(frozen=True)
class McConfig:
    scheme: Scheme
    n_paths: int
    steps: int
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_paths < 2:
            raise ValueError(f"n_paths must be >= 2, got {self.n_paths}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.n_paths > MAX_MC_PATHS:
            raise ValueError(f"n_paths = {self.n_paths} exceeds supported maximum {MAX_MC_PATHS}")
        cost = self.n_paths * self.steps
        if cost > MAX_PATH_STEPS:
            raise ValueError(f"n_paths * steps = {cost} exceeds supported maximum {MAX_PATH_STEPS}")


@dataclass(frozen=True)
class McResult:
    price: float
    std_error: float
    ci_low: float
    ci_high: float
    n_paths: int
    scheme: Scheme


def advance(
    m: np.ndarray,
    sigma: np.ndarray,
    dt: float,
    drift: float,
    sv: SvParams,
    eps_price: np.ndarray,
    eps_vol: np.ndarray,
    scheme: Scheme,
) -> tuple[np.ndarray, np.ndarray]:
    """One step of (price, volatility) for every path; scalars work too.

    Milstein adds the second-order volatility correction to the Euler
    step; the volatility is floored at zero afterwards.
    """
    m_next = m * np.exp((drift - 0.5 * sigma * sigma) * dt + sigma * math.sqrt(dt) * eps_price)
    sigma_next = sigma + sv.kappa * (sv.theta - sigma) * dt + sv.delta * np.sqrt(sigma * dt) * eps_vol
    if scheme is Scheme.MILSTEIN:
        sigma_next = sigma_next + 0.25 * sv.delta * sv.delta * dt * (eps_vol * eps_vol - 1.0)
    return m_next, np.maximum(sigma_next, 0.0)


def _generator(seed: int) -> np.random.Generator:
    # counter-based bit generator: seed-stable regardless of draw layout
    return np.random.Generator(np.random.Philox(seed))


def _walk_paths(
    sv: SvParams,
    drift: float,
    dt: float,
    steps: int,
    n_paths: int,
    scheme: Scheme,
    seed: int,
) -> Iterator[np.ndarray]:
    """Yield the prices of ``n_paths`` paths at the spot and after each step."""
    rng = _generator(seed)
    m = np.full(n_paths, sv.spot_M0)
    sigma = np.full(n_paths, sv.sigma0)
    yield m
    for _ in range(steps):
        eps_price = rng.standard_normal(n_paths)
        eps_vol = rng.standard_normal(n_paths)
        m, sigma = advance(m, sigma, dt, drift, sv, eps_price, eps_vol, scheme)
        yield m


def simulate_terminal(
    sv: SvParams,
    drift: float,
    dt: float,
    steps: int,
    n_paths: int,
    scheme: Scheme,
    seed: int,
) -> np.ndarray:
    """Terminal prices of ``n_paths`` independent paths."""
    return deque(_walk_paths(sv, drift, dt, steps, n_paths, scheme, seed), maxlen=1).pop()


def sample_paths(
    sv: SvParams,
    drift: float,
    dt: float,
    steps: int,
    n_paths: int,
    scheme: Scheme,
    seed: int,
) -> np.ndarray:
    """Full price paths, shape (n_paths, steps + 1), column 0 at the spot."""
    out = np.empty((n_paths, steps + 1))
    for i, m in enumerate(_walk_paths(sv, drift, dt, steps, n_paths, scheme, seed)):
        out[:, i] = m
    return out


def mc_price(sv: SvParams, contract: OptionContract, cfg: McConfig) -> McResult:
    """Average of discounted terminal payoffs with its 95% interval."""
    dt = contract.expiry_T / cfg.steps
    terminal = simulate_terminal(
        sv, contract.rate_r, dt, cfg.steps, cfg.n_paths, cfg.scheme, cfg.seed
    )
    payoffs = payoff(terminal, contract)
    price = discount(float(np.mean(payoffs)), contract.rate_r, contract.expiry_T)
    spread = discount(float(np.std(payoffs, ddof=1)), contract.rate_r, contract.expiry_T)
    std_error = spread / math.sqrt(cfg.n_paths)
    half = 1.96 * std_error
    return McResult(
        price=price,
        std_error=std_error,
        ci_low=price - half,
        ci_high=price + half,
        n_paths=cfg.n_paths,
        scheme=cfg.scheme,
    )


class Containment(Enum):
    CONTAINED = "contained"
    BELOW = "below"
    ABOVE = "above"


def validate_lattice(lattice_price: float, mc: McResult) -> Containment:
    """Locate the lattice price relative to the Monte Carlo 95% interval."""
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


def containment_sweep(
    sv: SvParams,
    contract: OptionContract,
    cfg: McConfig,
    param: str,
    values: Sequence[float],
) -> list[SweepRow]:
    """Re-price lattice and Monte Carlo while one SV parameter sweeps."""
    if param not in ("sigma0", "kappa", "theta", "delta"):
        raise ValueError(f"unknown sweep parameter {param!r}")
    if not values:
        raise ValueError("sweep values must not be empty")
    rows = []
    for value in values:
        point = replace(sv, **{param: float(value)})
        lattice = price_sv_option(build_censored_lattice(point, contract)).price
        mc = mc_price(point, contract, cfg)
        rows.append(
            SweepRow(
                param=param,
                value=float(value),
                lattice_price=lattice,
                mc_price=mc.price,
                ci_low=mc.ci_low,
                ci_high=mc.ci_high,
                verdict=validate_lattice(lattice, mc),
            )
        )
    return rows


def sweep_to_csv(rows: Iterable[SweepRow], stream: IO[str]) -> None:
    writer = csv.writer(stream)
    writer.writerow(["param", "value", "lattice_price", "mc_price", "ci_low", "ci_high", "verdict"])
    for row in rows:
        writer.writerow(
            [
                row.param,
                f"{row.value:.12g}",
                f"{row.lattice_price:.12g}",
                f"{row.mc_price:.12g}",
                f"{row.ci_low:.12g}",
                f"{row.ci_high:.12g}",
                row.verdict.value,
            ]
        )
