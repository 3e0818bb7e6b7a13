"""Lattice and closed-form pricers for the constant-volatility underlying.

Six one-factor parameterizations (three binomial, three trinomial) price
the same contract; the closed form is the convergence benchmark for all
of them.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from typing import IO, Iterable, Sequence

import numpy as np

from .contracts import GbmParams, OptionContract, discount, expected_payoff, underlying_value
from .output import write_table

DEFAULT_STRETCH = math.sqrt(1.5)


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
    """One time step: the moves and their risk-neutral transition
    probabilities, top branch first; two of each for a binomial step,
    three for a trinomial step."""

    moves: tuple[float, ...]
    probs: tuple[float, ...]

    @property
    def u(self) -> float:
        return self.moves[0]

    @property
    def d(self) -> float:
        return self.moves[-1]


def _check_probs(kind: MethodKind, probs: tuple[float, ...]) -> None:
    for i, q in enumerate(probs, 1):
        if not (0.0 <= q <= 1.0):
            raise ValueError(
                f"invalid parameterization for {kind.value}: "
                f"q{i} = {q!r} lies outside [0, 1]"
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

    Kamrad-Ritchken's probabilities match the moments of the log price,
    not of the price, so its forward is off by O(dt) over the horizon and
    deep in-the-money calls price below max(S - K e^-rT, 0) by O(dt).
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")

    kind = method.kind
    lam = method.stretch_lambda
    g = math.exp(rate_r * dt)
    z = math.exp(sigma * sigma * dt)
    a = math.expm1(sigma * sigma * dt)  # z - 1, the step variance, without cancellation

    if kind is MethodKind.CRR:
        u = math.exp(sigma * math.sqrt(dt))
        d = 1.0 / u
    elif kind is MethodKind.TIAN_BIN:
        root = math.sqrt(a * (a + 4.0))  # sqrt(z^2 + 2z - 3)
        u = 0.5 * g * z * (z + 1.0 + root)
        d = 0.5 * g * z * (z + 1.0 - root)
    elif kind is MethodKind.HAAHTELA_BIN:
        half_width = math.sqrt(a)
        u = math.exp(half_width + rate_r * dt)
        d = math.exp(-half_width + rate_r * dt)

    if method.is_binomial:
        _check_spread(kind, u, d)
        q1 = (g - d) / (u - d)
        moves, probs = (u, d), (q1, 1.0 - q1)
    elif kind is MethodKind.BOYLE_TRIN:
        u = math.exp(lam * sigma * math.sqrt(dt))
        _check_spread(kind, u, 1.0)
        # the moment equations less the normalization, q1 (u - 1) + q3 (d - 1) = g - 1
        # and q1 (u^2 - 1) + q3 (d^2 - 1) = g^2 z - 1, solved in b = u - 1,
        # c = g - 1 and e = g^2 z - 1, so no O(1) terms cancel
        b = math.expm1(lam * sigma * math.sqrt(dt))
        c = math.expm1(rate_r * dt)
        e = math.expm1((2.0 * rate_r + sigma * sigma) * dt)
        q3 = u * u * (e - c * (u + 1.0)) / (b * b * (u + 1.0))
        q1 = c / b + q3 / u
        moves, probs = (u, 1.0, 1.0 / u), (q1, 1.0 - q1 - q3, q3)
    elif kind is MethodKind.KR_TRIN:
        u = math.exp(lam * sigma * math.sqrt(dt))
        tilt = (rate_r - 0.5 * sigma * sigma) * math.sqrt(dt) / (2.0 * lam * sigma)
        q1 = 1.0 / (2.0 * lam * lam) + tilt
        q3 = 1.0 / (2.0 * lam * lam) - tilt
        moves, probs = (u, 1.0, 1.0 / u), (q1, 1.0 - 1.0 / (lam * lam), q3)
    elif kind is MethodKind.TIAN_TRIN:
        # u, d = w +- sqrt(w^2 - m^2) with w = g (z^4 + z^3) / 2. The gaps between
        # u, m, d and g come from a = z - 1 directly, so no O(1) terms cancel
        m = g * z * z
        m_g = g * a * (z + 1.0)  # m - g
        w_m = 0.5 * g * z * z * a * (z + 2.0)  # w - m
        root = math.sqrt(w_m * (w_m + 2.0 * m))
        u_m = w_m + root
        m_d = root - w_m
        u = m + u_m
        d = m - m_d
        _check_spread(kind, u, m, d)
        # the numerators are (m - g)(d - g) + g^2 a and (u - g)(m - g) + g^2 a
        q1 = (g * g * a - m_g * (m_d - m_g)) / (2.0 * root * u_m)
        q3 = (g * g * a + (u_m + m_g) * m_g) / (2.0 * root * m_d)
        # q2 by normalization: the explicit form cancels badly at small dt
        moves, probs = (u, m, d), (q1, 1.0 - q1 - q3, q3)
    else:
        raise ValueError(f"unknown lattice method {kind!r}")
    _check_probs(kind, probs)
    return MoveSpec(moves, probs)


MAX_BINOMIAL_STEPS = 100_000
# the trinomial terminal sum costs O(n), a Python loop over the 2n + 1 nodes:
# at n = 20k about 10-15 ms in 4 MB (2-vCPU Xeon)
MAX_TRINOMIAL_STEPS = 20_000


def _binomial_step(
    params: GbmParams, contract: OptionContract, method: LatticeMethod
) -> tuple[MoveSpec, float]:
    """The step's moves and the spot on the strike's basis, for a binomial lattice."""
    if not method.is_binomial:
        raise ValueError(f"{method.kind.value} is not a binomial method")
    contract.check_steps(MAX_BINOMIAL_STEPS)
    move = movement_params(method, params.sigma, contract.rate_r, contract.dt)
    return move, underlying_value(params.spot_M0, contract)


def _binomial_log_values(spot: float, move: MoveSpec, n: int, j: int | np.ndarray):
    """Log terminal underlying values at binomial nodes ``j``; they ascend with j."""
    return math.log(spot) + j * math.log(move.u) + (n - j) * math.log(move.d)


def _exercise_boundary(spot: float, move: MoveSpec, n: int, strike: float) -> int:
    """Smallest node index whose terminal value reaches the strike; n + 1 when
    no node is in the money. A bisection on the node values, which ascend."""
    if strike <= 0:
        return 0
    return bisect.bisect_left(
        range(n + 1), math.log(strike), key=lambda j: _binomial_log_values(spot, move, n, j)
    )


# Stirling's remainder log m! - log(sqrt(2 pi m) (m/e)^m) at m = 0..15, taking 0 at m = 0
_STIRLERR_SMALL = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


def _stirlerr(m: np.ndarray) -> np.ndarray:
    """Stirling's remainder at whole numbers m >= 1 (a float array): the table
    below 16, the first five terms of Stirling's series from there."""
    x = 1.0 / m
    x2 = x * x
    remainder = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - x2 / 1188) * x2) * x2) * x2) * x
    small = m < 16
    remainder[small] = _STIRLERR_SMALL[m[small].astype(np.intp)]
    return remainder


def _binomial_log_weights(n: int, q: float, j: np.ndarray) -> np.ndarray:
    """log P(X = j) for X ~ Binomial(n, q) at the nodes ``j`` (an int array,
    values in 0..n); -inf off the support.

    Loader's saddle-point form (2000, "Fast and Accurate Computation of
    Binomial Probabilities"): stirlerr(n) - stirlerr(j) - stirlerr(n - j)
    - bd0(j, nq) - bd0(n - j, n(1 - q)) + log(n / (2 pi j (n - j))) / 2,
    with bd0(x, M) = x log1p((x - M) / M) - (x - M). The linear parts of
    the two bd0 cancel, so they are left out. Each term stays small near
    the mode, where log-gamma differences lose digits to cancellation.
    Nodes 0 and n are n log(1 - q) and n log q.
    """
    if q == 0.0 or q == 1.0:
        # degenerate walk: all mass on one terminal node
        return np.where(j == (n if q == 1.0 else 0), 0.0, -np.inf)
    # nodes 0 and n first; the saddle-point form then fills in the inner nodes
    log_weight = np.where(j == 0, n * math.log1p(-q), n * math.log(q))
    inner = (j > 0) & (j < n)
    i = j[inner].astype(np.float64)
    k = n - i
    dev = i - n * q
    log_weight[inner] = (
        (_stirlerr(np.array([float(n)]))[0] + 0.5 * math.log(n / (2.0 * math.pi)))
        - (_stirlerr(i) + _stirlerr(k))
        - 0.5 * (np.log(i) + np.log(k))
        - i * np.log1p(dev / (n * q))
        - k * np.log1p(-dev / (n * (1.0 - q)))
    )
    return log_weight


# cap on the continued fraction's terms; it needs the most when p sits near
# the mean of the tail: at most 202 at n = 100k
MAX_FRACTION_TERMS = 1_000


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction F in I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) F,
    the regularized incomplete beta, by the modified Lentz method (Numerical
    Recipes, 3rd ed., 6.4). It converges fast for x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300  # stands in for a zero denominator
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0) or tiny)
    fraction, a2m = d, a
    for m in range(1, MAX_FRACTION_TERMS + 1):
        a2m += 2.0  # a + 2m; each pass applies the even, then the odd coefficient
        coef = m * (b - m) * x / ((a2m - 1.0) * a2m)
        d = 1.0 / (1.0 + coef * d or tiny)
        c = 1.0 + coef / c or tiny
        fraction *= d * c
        coef = -(a + m) * (a + b + m) * x / (a2m * (a2m + 1.0))
        d = 1.0 / (1.0 + coef * d or tiny)
        c = 1.0 + coef / c or tiny
        step = d * c
        fraction *= step
        if abs(step - 1.0) <= sys.float_info.epsilon:
            return fraction
    raise ValueError(f"incomplete beta fraction at a = {a:g}, b = {b:g}, x = {x!r} "
                     f"did not converge in {MAX_FRACTION_TERMS} terms")


def _upper_tail(j: int, n: int, p: float) -> float:
    """P(X >= j) for X ~ Binomial(n, p), 0 <= j <= n.

    This is the regularized incomplete beta I_p(a, b), a = j, b = n - j + 1,
    by its continued fraction. Below p = (a + 1) / (a + b + 2) the fraction
    converges fast as it is; from there on the tail is one minus the lower
    tail, 1 - I_{1-p}(b, a). Since 1 / (a B(a, b)) = C(n, j), the front
    factor p^a (1 - p)^b / (a B(a, b)) is pmf(j) (1 - p), and that of the
    lower tail is pmf(j - 1) p; both come from the saddle-point log weights.
    """
    if j == 0 or p == 1.0:
        return 1.0
    if p == 0.0:
        return 0.0
    a, b = float(j), float(n - j + 1)
    if p < (a + 1.0) / (a + b + 2.0):
        front = _binomial_log_weights(n, p, np.array([j]))[0] + math.log1p(-p)
        return math.exp(front) * _beta_fraction(a, b, p)
    front = _binomial_log_weights(n, p, np.array([j - 1]))[0] + math.log(p)
    return 1.0 - math.exp(front) * _beta_fraction(b, a, 1.0 - p)


def _binomial_window(n: int, q: float) -> tuple[int, int]:
    """First and last node within sqrt(373 n) of the mean n q, clipped to 0..n.

    By Hoeffding's bound P(X = j) <= exp(-2 (j - n q)^2 / n) for
    X ~ Binomial(n, q), so every node further out weighs less than e^-746,
    which exp rounds to 0.
    """
    reach = math.sqrt(373.0 * n)
    return max(math.ceil(n * q - reach), 0), min(math.floor(n * q + reach), n)


def binomial_price_sum(
    params: GbmParams, contract: OptionContract, method: LatticeMethod
) -> float:
    """Price by direct summation over the terminal binomial distribution.

    Only the in-the-money nodes of ``_binomial_window`` are summed. Weights
    are accumulated in log space so step counts up to 100k stay finite.
    """
    move, spot = _binomial_step(params, contract, method)
    n, q = contract.steps_n, move.probs[0]
    first, last = _binomial_window(n, q)
    j = np.arange(max(first, _exercise_boundary(spot, move, n, contract.strike)), last + 1)
    weights = np.exp(_binomial_log_weights(n, q, j))
    top = _binomial_log_values(spot, move, n, n)
    return expected_payoff(weights, _binomial_log_values(spot, move, n, j), top, contract)


def complementary_binomial_price(
    params: GbmParams, contract: OptionContract, method: LatticeMethod
) -> float:
    """Price via complementary binomial tail sums from the exercise boundary.

    Splits the discounted expectation into an underlying leg under the
    u-shifted measure and a strike leg under the pricing measure; returns
    0 when no terminal node is in the money.
    """
    move, spot = _binomial_step(params, contract, method)
    n, q = contract.steps_n, move.probs[0]
    j_star = _exercise_boundary(spot, move, n, contract.strike)
    if j_star > n:
        return 0.0
    growth = math.exp(contract.rate_r * contract.dt)
    q_shift = min(max(q * move.u / growth, 0.0), 1.0)
    psi_shift = _upper_tail(j_star, n, q_shift)
    psi = _upper_tail(j_star, n, q)
    return spot * psi_shift - discount(contract.strike, contract.rate_r, contract.expiry_T) * psi


def _half_log_weights(n: int, lead: float, mid: float, far: float) -> np.ndarray:
    """log C_k, k = 0..n, where C_k is the x^k coefficient of (lead + mid x + far x^2)^n.

    J.C.P. Miller's recurrence for the power of a series (Knuth, TAOCP
    vol. 2, 4.7), (k+1) lead C_{k+1} = (n-k) mid C_k + (2n-k+1) far C_{k-1},
    adds only non-negative terms up to the middle coefficient k = n, so no
    digit cancels there. It runs on E_k = C_k (lead/mid)^k / lead^n from
    E_0 = 1, whose coefficients stay near 1 however small lead is, in
    linear space under a running power-of-two scale, so nothing overflows
    or underflows. Needs lead > 0 and mid > 0.
    """
    k = np.arange(n)
    near = ((n - k) / (k + 1)).tolist()
    across = ((2 * n + 1 - k) / (k + 1) * (far * lead / (mid * mid))).tolist()
    values, shifts = [1.0], [0]
    prev, cur, shift = 0.0, 1.0, 0
    for a, b in zip(near, across):
        prev, cur = cur, a * cur + b * prev
        if not 2.0**-256 < cur < 2.0**256:
            e = math.frexp(cur)[1]
            prev, cur, shift = math.ldexp(prev, -e), math.ldexp(cur, -e), shift + e
        values.append(cur)
        shifts.append(shift)
    return (n * math.log(lead) + np.arange(n + 1) * math.log(mid / lead)
            + np.log(values) + np.multiply(shifts, math.log(2.0)))


def _trinomial_log_weights(n: int, q1: float, q2: float, q3: float) -> np.ndarray:
    """log of the terminal weights at nodes -n..n (ascending): the coefficients
    of (q3 + q2 x + q1 x^2)^n; -inf where a node carries no mass, or on a
    binomial walk less than e^-746."""
    if q2 == 0.0 or q1 == 0.0 or q3 == 0.0:
        # two moves are left, so the walk is a binomial on every other node
        # (q2 = 0), on the lower half (q1 = 0) or on the upper half (q3 = 0)
        lo, hi = (0, 2) if q2 == 0.0 else (0, 1) if q1 == 0.0 else (1, 2)
        probs = (q3, q2, q1)
        p = probs[hi] / (probs[lo] + probs[hi])
        first, last = _binomial_window(n, p)
        j = np.arange(first, last + 1)
        log_weight = np.full(2 * n + 1, -np.inf)
        log_weight[lo * n + (hi - lo) * j] = _binomial_log_weights(n, p, j)
        return log_weight
    # past the middle the recurrence's (n - k) turns negative, so the upper
    # half runs top-down from C_2n = q1^n, with q1 and q3 swapped
    lower = _half_log_weights(n, q3, q2, q1)
    upper = _half_log_weights(n, q1, q2, q3)
    return np.concatenate((lower, upper[-2::-1]))


def trinomial_price(
    params: GbmParams, contract: OptionContract, method: LatticeMethod
) -> float:
    """Price by direct summation over the terminal trinomial distribution.

    All three parameterizations satisfy u*d = m^2, so terminal nodes sit
    on the geometric grid spot * m^n * (u/m)^j, j = -n..n, and their
    weights are the coefficients of (q3 + q2 x + q1 x^2)^n, which Miller's
    recurrence gives in O(n).
    """
    if method.is_binomial:
        raise ValueError(f"{method.kind.value} is not a trinomial method")
    contract.check_steps(MAX_TRINOMIAL_STEPS)
    n = contract.steps_n
    move = movement_params(method, params.sigma, contract.rate_r, contract.dt)
    u, m, _ = move.moves
    spot = underlying_value(params.spot_M0, contract)
    j = np.arange(-n, n + 1)
    log_terminal = math.log(spot) + n * math.log(m) + j * math.log(u / m)
    weights = np.exp(_trinomial_log_weights(n, *move.probs))
    return expected_payoff(weights, log_terminal, log_terminal[-1], contract)


def lattice_price(
    params: GbmParams, contract: OptionContract, method: LatticeMethod
) -> float:
    """Dispatch to the binomial or the trinomial terminal sum."""
    if method.is_binomial:
        return binomial_price_sum(params, contract, method)
    return trinomial_price(params, contract, method)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def closed_form_price(params: GbmParams, contract: OptionContract) -> float:
    """Continuous-time limit price of the call on the quoted underlying."""
    spot = underlying_value(params.spot_M0, contract)
    if math.isinf(spot):
        raise OverflowError(f"spot {params.spot_M0!r} on the strike's basis overflows a float")
    # d1 from the discounted strike K' = K e^(-rT) has no (r + sigma^2 / 2) T to overflow
    strike = discount(contract.strike, contract.rate_r, contract.expiry_T)
    srt = params.sigma * math.sqrt(contract.expiry_T)
    if srt == 0.0 or strike == 0.0:
        return max(spot - strike, 0.0)
    if math.isinf(srt):
        return spot
    d1 = math.log(spot / strike) / srt + 0.5 * srt
    return spot * _norm_cdf(d1) - strike * _norm_cdf(d1 - srt)


@dataclass(frozen=True)
class ConvergenceRow:
    """One (method, step count) evaluation against the closed form."""

    method: str
    n: int
    price: float
    abs_error: float
    failure: str | None


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
                ConvergenceRow(method.kind.value, int(n), price, abs(price - benchmark), None)
            )
    return rows


def report_to_csv(rows: Iterable[ConvergenceRow], stream: IO[str]) -> None:
    """Serialize a convergence report with header method,n,price,abs_error."""
    write_table(
        stream, ["method", "n", "price", "abs_error"],
        ((row.method, row.n, row.price, row.abs_error) for row in rows),
    )
