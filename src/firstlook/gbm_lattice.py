"""Lattice and closed-form pricers for the constant-volatility underlying.

Six one-factor parameterizations (three binomial, three trinomial) price
the same contract; the closed form is the convergence benchmark for all
of them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from typing import IO, Iterable, Sequence

import numpy as np
from scipy.special import betainc, gammaln

from .contracts import GbmParams, OptionContract, discount, underlying_value
from .output import write_table

DEFAULT_STRETCH = math.sqrt(1.5)
LOG_FLOAT_MAX = math.log(sys.float_info.max)


class MethodKind(Enum):
    CRR = "crr"
    TIAN_BIN = "tian-bin"
    HAAHTELA_BIN = "haahtela"
    BOYLE_TRIN = "boyle-trin"
    KR_TRIN = "kr-trin"
    TIAN_TRIN = "tian-trin"


@dataclass(frozen=True)
class LatticeMethod:
    """A lattice parameterization plus its grid-stretch (trinomial only).

    ``stretch_lambda`` widens the up/down moves of the Boyle and
    Kamrad-Ritchken trinomial grids; the other methods ignore it.
    """

    kind: MethodKind
    stretch_lambda: float = DEFAULT_STRETCH

    def __post_init__(self) -> None:
        if self.kind in (MethodKind.BOYLE_TRIN, MethodKind.KR_TRIN):
            if not math.isfinite(self.stretch_lambda) or self.stretch_lambda < 1.0:
                raise ValueError(
                    f"stretch_lambda must be >= 1 for {self.kind.value}, "
                    f"got {self.stretch_lambda}"
                )

    @property
    def is_binomial(self) -> bool:
        return self.kind in (MethodKind.CRR, MethodKind.TIAN_BIN, MethodKind.HAAHTELA_BIN)


@dataclass(frozen=True)
class MoveSpec:
    """Per-step movement scales and risk-neutral transition probabilities.

    Binomial specs leave ``m`` and ``q3`` as None; probabilities are
    labelled from the top branch down.
    """

    u: float
    d: float
    q1: float
    q2: float
    m: float | None = None
    q3: float | None = None


def _check_probs(kind: MethodKind, **probs: float) -> None:
    for name, q in probs.items():
        if not (0.0 <= q <= 1.0):
            raise ValueError(
                f"invalid parameterization for {kind.value}: "
                f"{name} = {q!r} lies outside [0, 1]"
            )


def _check_spread(kind: MethodKind, *moves: float) -> None:
    # the probabilities divide by the gaps between the moves, top down
    if not all(a > b for a, b in zip(moves, moves[1:])):
        raise ValueError(f"invalid parameterization for {kind.value}: the moves {moves} "
                         "do not spread apart (sigma * sqrt(dt) too small)")


def movement_params(
    method: LatticeMethod, sigma: float, rate_r: float, dt: float
) -> MoveSpec:
    """Movement scales and transition probabilities for one time step.

    Raises ValueError when the requested parameterization's moves do not
    spread apart or give a transition probability outside [0, 1];
    probabilities are never clamped.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")

    kind = method.kind
    g = math.exp(rate_r * dt)
    z = math.exp(sigma * sigma * dt)

    if kind is MethodKind.CRR:
        u = math.exp(sigma * math.sqrt(dt))
        d = 1.0 / u
    elif kind is MethodKind.TIAN_BIN:
        root = math.sqrt(z * z + 2.0 * z - 3.0)
        u = 0.5 * g * z * (z + 1.0 + root)
        d = 0.5 * g * z * (z + 1.0 - root)
    elif kind is MethodKind.HAAHTELA_BIN:
        half_width = math.sqrt(z - 1.0)
        u = math.exp(half_width + rate_r * dt)
        d = math.exp(-half_width + rate_r * dt)

    if method.is_binomial:
        _check_spread(kind, u, d)
        q1 = (g - d) / (u - d)
        _check_probs(kind, q1=q1)
        return MoveSpec(u=u, d=d, q1=q1, q2=1.0 - q1)

    lam = method.stretch_lambda

    if kind is MethodKind.BOYLE_TRIN:
        u = math.exp(lam * sigma * math.sqrt(dt))
        d = 1.0 / u
        _check_spread(kind, u, 1.0)
        v = math.exp(2.0 * rate_r * dt) * (z - 1.0)
        denom = (u - 1.0) * (u * u - 1.0)
        q1 = ((v + g * g - g) * u - (g - 1.0)) / denom
        q3 = ((v + g * g - g) * u * u - (g - 1.0) * u**3) / denom
        q2 = 1.0 - q1 - q3
        _check_probs(kind, q1=q1, q2=q2, q3=q3)
        return MoveSpec(u=u, d=d, q1=q1, q2=q2, m=1.0, q3=q3)

    if kind is MethodKind.KR_TRIN:
        u = math.exp(lam * sigma * math.sqrt(dt))
        d = 1.0 / u
        tilt = (rate_r - 0.5 * sigma * sigma) * math.sqrt(dt) / (2.0 * lam * sigma)
        q1 = 1.0 / (2.0 * lam * lam) + tilt
        q2 = 1.0 - 1.0 / (lam * lam)
        q3 = 1.0 / (2.0 * lam * lam) - tilt
        _check_probs(kind, q1=q1, q2=q2, q3=q3)
        return MoveSpec(u=u, d=d, q1=q1, q2=q2, m=1.0, q3=q3)

    if kind is MethodKind.TIAN_TRIN:
        m = g * z * z
        w = 0.5 * g * (z**4 + z**3)
        root = math.sqrt(w * w - m * m)
        u = w + root
        d = w - root
        _check_spread(kind, u, m, d)
        q1 = (m * d - g * (m + d) + g * g * z) / ((u - d) * (u - m))
        q3 = (u * m - g * (u + m) + g * g * z) / ((u - d) * (m - d))
        # q2 by normalization: the explicit form cancels badly at small dt
        q2 = 1.0 - q1 - q3
        _check_probs(kind, q1=q1, q2=q2, q3=q3)
        return MoveSpec(u=u, d=d, q1=q1, q2=q2, m=m, q3=q3)

    raise ValueError(f"unknown lattice method {kind!r}")


MAX_BINOMIAL_STEPS = 100_000
# the trinomial backward induction costs O(n^2): at n = 20k about 0.6 s with
# no out-of-the-money node and 0.5 s at the money, in 1.8 MB (2-vCPU Xeon)
MAX_TRINOMIAL_STEPS = 20_000


def _binomial_grid(
    params: GbmParams, contract: OptionContract, method: LatticeMethod
) -> tuple[MoveSpec, float, np.ndarray]:
    """The step's moves, the spot on the strike's basis, and the log terminal
    underlying values at nodes j = 0..n (ascending) of a binomial lattice."""
    if not method.is_binomial:
        raise ValueError(f"{method.kind.value} is not a binomial method")
    contract.check_steps(MAX_BINOMIAL_STEPS)
    n = contract.steps_n
    move = movement_params(method, params.sigma, contract.rate_r, contract.dt)
    spot = underlying_value(params.spot_M0, contract)
    j = np.arange(n + 1)
    return move, spot, math.log(spot) + j * math.log(move.u) + (n - j) * math.log(move.d)


def _check_overflow(log_values: np.ndarray) -> None:
    # np.exp would turn an overflow into inf and a RuntimeWarning, where math.exp raises
    top = float(log_values.max())
    if top > LOG_FLOAT_MAX:
        raise OverflowError(f"terminal value exp({top:.6g}) overflows a float")


def _exercise_boundary(log_values: np.ndarray, strike: float) -> int:
    """Smallest node index whose terminal value reaches the strike.

    ``log_values`` ascend with the node index; returns len(log_values)
    when no node is in the money.
    """
    if strike <= 0:
        return 0
    return int(np.searchsorted(log_values, math.log(strike)))


def _upper_tail(j: int, n: int, p: float) -> float:
    """P(X >= j) for X ~ Binomial(n, p), 0 <= j <= n.

    The regularized incomplete beta I_p(j, n - j + 1) is what SciPy's
    ``binom.sf(j - 1, n, p)`` evaluates, bit for bit, without the slow
    import of the stats package. ``bdtrc`` is a different routine and
    drifts from it in the far tail.
    """
    return 1.0 if j == 0 else float(betainc(j, n - j + 1, p))


def binomial_price_sum(
    params: GbmParams, contract: OptionContract, method: LatticeMethod
) -> float:
    """Price by direct summation over the terminal binomial distribution.

    Binomial weights are accumulated in log space so step counts up to
    100k stay finite.
    """
    move, _, log_values = _binomial_grid(params, contract, method)
    _check_overflow(log_values)
    n, q = contract.steps_n, move.q1
    intrinsic = np.maximum(np.exp(log_values) - contract.strike, 0.0)

    if q == 0.0 or q == 1.0:
        # degenerate walk: all mass on one terminal node
        idx = n if q == 1.0 else 0
        return discount(float(intrinsic[idx]), contract.rate_r, contract.expiry_T)

    j = np.arange(n + 1)
    log_weight = (
        gammaln(n + 1)
        - gammaln(j + 1)
        - gammaln(n - j + 1)
        + j * math.log(q)
        + (n - j) * math.log1p(-q)
    )
    in_money = intrinsic > 0.0
    total = float(np.sum(np.exp(log_weight[in_money]) * intrinsic[in_money]))
    return discount(total, contract.rate_r, contract.expiry_T)


def complementary_binomial_price(
    params: GbmParams, contract: OptionContract, method: LatticeMethod
) -> float:
    """Price via complementary binomial tail sums from the exercise boundary.

    Splits the discounted expectation into an underlying leg under the
    u-shifted measure and a strike leg under the pricing measure; returns
    0 when no terminal node is in the money.
    """
    move, spot, log_values = _binomial_grid(params, contract, method)
    n, q = contract.steps_n, move.q1
    j_star = _exercise_boundary(log_values, contract.strike)
    if j_star > n:
        return 0.0
    growth = math.exp(contract.rate_r * contract.dt)
    q_shift = min(max(q * move.u / growth, 0.0), 1.0)
    psi_shift = _upper_tail(j_star, n, q_shift)
    psi = _upper_tail(j_star, n, q)
    return spot * psi_shift - discount(contract.strike, contract.rate_r, contract.expiry_T) * psi


def trinomial_price(
    params: GbmParams, contract: OptionContract, method: LatticeMethod
) -> float:
    """Price on a recombining trinomial grid by backward induction.

    All three parameterizations satisfy u*d = m^2, so terminal nodes sit
    on the geometric grid spot * m^n * (u/m)^j, j = -n..n.
    """
    if method.is_binomial:
        raise ValueError(f"{method.kind.value} is not a trinomial method")
    contract.check_steps(MAX_TRINOMIAL_STEPS)
    n = contract.steps_n
    move = movement_params(method, params.sigma, contract.rate_r, contract.dt)
    assert move.m is not None and move.q3 is not None
    spot = underlying_value(params.spot_M0, contract)
    j = np.arange(-n, n + 1)
    log_terminal = math.log(spot) + n * math.log(move.m) + j * math.log(move.u / move.m)
    _check_overflow(log_terminal)
    values = np.maximum(np.exp(log_terminal) - contract.strike, 0.0)
    disc = discount(1.0, contract.rate_r, contract.dt)
    q1, q2, q3 = move.q1, move.q2, move.q3
    # A node whose three successors are +0.0 is +0.0 (disc is finite: math.exp
    # raises rather than overflow), so the block of exact zeros at the bottom of
    # the grid, the out-of-the-money terminal nodes, loses its top two nodes a step
    # and the rest is skipped. The induction runs in place; values[:size] is the level.
    in_money = np.flatnonzero(values)
    zeros = int(in_money[0]) if in_money.size else values.size
    up, down = np.empty(2 * n - 1), np.empty(2 * n - 1)
    for size in range(2 * n - 1, 0, -2):
        zeros = max(zeros - 2, 0)
        acc, term = up[: size - zeros], down[: size - zeros]
        np.multiply(values[zeros + 2 : size + 2], q1, out=acc)
        np.multiply(values[zeros + 1 : size + 1], q2, out=term)
        np.add(acc, term, out=acc)
        np.multiply(values[zeros:size], q3, out=term)
        np.add(acc, term, out=acc)
        np.multiply(acc, disc, out=values[zeros:size])
    return float(values[0])


def lattice_price(
    params: GbmParams, contract: OptionContract, method: LatticeMethod
) -> float:
    """Dispatch to the binomial sum or the trinomial backward induction."""
    if method.is_binomial:
        return binomial_price_sum(params, contract, method)
    return trinomial_price(params, contract, method)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def closed_form_price(params: GbmParams, contract: OptionContract) -> float:
    """Continuous-time limit price of the call on the quoted underlying."""
    spot = underlying_value(params.spot_M0, contract)
    strike = contract.strike
    r, T, sigma = contract.rate_r, contract.expiry_T, params.sigma
    if strike <= 0:
        return spot
    if sigma == 0.0:
        return max(spot - discount(strike, r, T), 0.0)
    srt = sigma * math.sqrt(T)
    d1 = (math.log(spot / strike) + (r + 0.5 * sigma * sigma) * T) / srt
    d2 = d1 - srt
    return spot * _norm_cdf(d1) - discount(strike, r, T) * _norm_cdf(d2)


@dataclass(frozen=True)
class ConvergenceRow:
    """One (method, step count) evaluation against the closed form."""

    method: str
    n: int
    price: float
    abs_error: float
    failure: str | None = None


def convergence_report(
    params: GbmParams,
    contract: OptionContract,
    methods: Sequence[LatticeMethod],
    n_values: Sequence[int],
) -> list[ConvergenceRow]:
    """Price every (method, n) pair and record the closed-form error.

    A row whose parameterization fails carries NaNs and the failure
    message instead of aborting the report.
    """
    if not methods:
        raise ValueError("methods must not be empty")
    if list(n_values) != sorted(n_values):
        raise ValueError("n_values must be ascending")
    benchmark = closed_form_price(params, contract)
    rows: list[ConvergenceRow] = []
    for method in methods:
        for n in n_values:
            c = replace(contract, steps_n=int(n))
            try:
                price = lattice_price(params, c, method)
            except (ValueError, OverflowError) as exc:
                rows.append(
                    ConvergenceRow(method.kind.value, int(n), math.nan, math.nan, str(exc))
                )
                continue
            rows.append(
                ConvergenceRow(method.kind.value, int(n), price, abs(price - benchmark))
            )
    return rows


def report_to_csv(rows: Iterable[ConvergenceRow], stream: IO[str]) -> None:
    """Serialize a convergence report with header method,n,price,abs_error."""
    write_table(
        stream, ["method", "n", "price", "abs_error"],
        ((row.method, row.n, row.price, row.abs_error) for row in rows),
    )
