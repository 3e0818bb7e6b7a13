"""Tests of the constant-volatility assumption, parameter estimation, and
path-fitness comparison between the constant-vol and stochastic-vol models.

The assumption holds empirically when daily log price ratios are normal
(Shapiro-Wilk) and serially independent (Ljung-Box, autocorrelations).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from datetime import date, timedelta
from pathlib import Path
from statistics import NormalDist
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import montecarlo
from .contracts import DAYS_PER_YEAR, GbmParams, SvParams
from .montecarlo import Scheme

# moving-average width of the smoothed path distance in ``l2_fitness``
SMOOTH_WINDOW = 5
# narrowest realized-volatility window ``estimate_sv`` regresses on
MIN_SV_WINDOW = 5

# Royston's AS R94 polynomials, constant term first: the two extreme
# Shapiro-Wilk coefficients in 1/sqrt(n); the cut-off, mean and log-sd of
# the transformed log(1 - W) in n for 4 <= n <= 11; its mean and log-sd in
# log(n) for n >= 12
_SW_EXTREME = (
    (0.0, 0.221157, -0.147981, -2.07119, 4.434685, -2.706056),
    (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633),
)
_SW_GAMMA = (-2.273, 0.459)
_SW_MEAN_SMALL = (0.544, -0.39978, 0.025054, -6.714e-4)
_SW_LOG_SD_SMALL = (1.3822, -0.77857, 0.062767, -0.0020322)
_SW_MEAN = (-1.5861, -0.31082, -0.083751, 0.0038915)
_SW_LOG_SD = (-0.4803, -0.082676, 0.0030302)


@dataclass(frozen=True)
class PriceSeries:
    """Dated sequence of strictly positive prices on a uniform daily-ish grid."""

    dates: tuple[date, ...]
    prices: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.prices) < 2:
            raise ValueError("need >= 2 observations")
        if len(self.dates) != len(self.prices):
            raise ValueError("dates and prices must have equal length")
        if any(p <= 0 or not math.isfinite(p) for p in self.prices):
            raise ValueError("prices must be positive and finite")
        gaps = [
            (self.dates[i + 1] - self.dates[i]).days for i in range(len(self.dates) - 1)
        ]
        if any(g <= 0 for g in gaps):
            raise ValueError("dates must be strictly increasing")
        if max(gaps) - min(gaps) > 1:
            raise ValueError("dates must be uniformly spaced within one day")

    @property
    def dt(self) -> float:
        """Implied uniform spacing in years."""
        return ((self.dates[-1] - self.dates[0]).days / (len(self.dates) - 1)) / DAYS_PER_YEAR

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self.prices)

    def __len__(self) -> int:
        return len(self.prices)

    @classmethod
    def from_prices(cls, prices: Sequence[float]) -> "PriceSeries":
        """Daily prices dated from 2013-01-08."""
        dates = tuple(date(2013, 1, 8) + timedelta(days=i) for i in range(len(prices)))
        return cls(dates=dates, prices=tuple(float(p) for p in prices))

    @classmethod
    def from_csv(cls, path: str | Path) -> "PriceSeries":
        """Read a `date,price` CSV with ISO-8601 dates."""
        dates: list[date] = []
        prices: list[float] = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header[:2]] != ["date", "price"]:
                raise ValueError(f"{path}: line 1: expected header 'date,price'")
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                try:
                    dates.append(date.fromisoformat(row[0].strip()))
                    prices.append(float(row[1]))
                except (ValueError, IndexError) as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from None
        return cls(dates=tuple(dates), prices=tuple(prices))


def log_ratios(series: PriceSeries) -> np.ndarray:
    """Log ratios of consecutive prices, length len(series) - 1.

    Taken as log1p of the relative change, each ratio is good to a few of
    its own ulps. A difference of log prices would carry the rounding of
    the log prices instead: a doubling series to 2^39 got ratios 32 ulps
    apart, which the tests read as a strong serial correlation.
    """
    prices = series.values
    return np.log1p(np.diff(prices) / prices[:-1])


def normal_quantile(p: Sequence[float]) -> np.ndarray:
    """Standard normal quantiles of probabilities in (0, 1) (Wichura 1988, AS 241)."""
    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf(float(v)) for v in p])


def chi2_upper(df: int, x: float) -> float:
    """P(X > x) for X chi-square with integer ``df`` >= 1.

    With y = x/2 the tail has a closed form: e^-y * sum of y^a / a! for
    a = 0 .. df/2 - 1 when df is even, and erfc(sqrt(y)) plus the same sum
    over a = 1/2 .. df/2 - 1, with a! = Gamma(a + 1), when df is odd. The
    terms are added relative to the largest in log space, so that e^-y may
    underflow on its own without taking the sum with it. Left of the mean,
    where that sum nears 1, the tail is one minus the lower tail: the same
    terms continued from a = df/2 on, which fall off geometrically.
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if x <= 0.0:
        return 1.0
    y = 0.5 * x
    log_y = math.log(y)

    def log_term(a: float) -> float:
        return a * log_y - y - math.lgamma(a + 1.0)

    if df > 2 and y < df / 2:
        lower = [log_term(df / 2)]
        while lower[-1] > lower[0] - 40.0:
            lower.append(log_term(df / 2 + len(lower)))
        return 1.0 - math.fsum(math.exp(v) for v in lower)
    logs = [log_term(df % 2 / 2 + i) for i in range(df // 2)]
    tail = 0.0
    if logs:
        top = max(logs)
        tail = math.exp(top + math.log(math.fsum(math.exp(v - top) for v in logs)))
    return tail + math.erfc(math.sqrt(y)) if df % 2 else tail


def _poly(coefs: Sequence[float], x: float) -> float:
    """``coefs[0] + coefs[1] * x + ...`` by Horner's rule."""
    total = 0.0
    for c in reversed(coefs):
        total = total * x + c
    return total


def _check_not_constant(x: np.ndarray) -> None:
    """Refuse a sample whose spread is at most 16 ulps of its largest
    magnitude: a spread of a few ulps is rounding, not data."""
    if np.ptp(x) <= 16 * np.spacing(np.max(np.abs(x))):
        raise ValueError("degenerate input: sample is constant")


def shapiro_wilk(sample: Sequence[float]) -> tuple[float, float]:
    """Shapiro-Wilk normality test, 3 <= n <= 5000 (Royston 1995, AS R94).

    The coefficients are the normal scores of (i - 3/8) / (n + 1/4),
    with the extreme one (two for n > 5) replaced by Royston's polynomial
    in 1/sqrt(n); W is their squared correlation with the ordered sample.
    The p-value is exact for n = 3 and otherwise comes from Royston's
    normalizing transform of log(1 - W).
    """
    x = np.asarray(sample, dtype=float)
    n = x.size
    if not 3 <= n <= 5000:
        raise ValueError(f"sample size must be in [3, 5000], got {n}")
    if not np.isfinite(x).all():
        raise ValueError("sample must be finite")
    _check_not_constant(x)
    half = n // 2
    m = normal_quantile((np.arange(1, half + 1) - 0.375) / (n + 0.25))
    summ2 = 2.0 * float(np.dot(m, m))
    rsn = 1.0 / math.sqrt(n)
    ext = 2 if n > 5 else 1
    top = np.array([_poly(c, rsn) for c in _SW_EXTREME[:ext]]) - m[:ext] / math.sqrt(summ2)
    # the other scores are rescaled so that all n coefficients square-sum to 1
    fac = math.sqrt(
        (summ2 - 2.0 * float(np.dot(m[:ext], m[:ext]))) / (1.0 - 2.0 * float(np.dot(top, top)))
    )
    upper = np.concatenate([top, -m[ext:] / fac])
    coefs = np.concatenate([-upper, np.zeros(n % 2), upper[::-1]])

    # shifting by a middle value first keeps a large common offset from
    # swamping the centring below
    y = np.sort(x) - x[half]
    y /= y[-1] - y[0]
    y -= y.mean()
    a = coefs - coefs.mean()
    saa, syy, say = float(a @ a), float(y @ y), float(a @ y)
    root = math.sqrt(saa * syy)
    w1 = max((root - say) * (root + say) / (saa * syy), 0.0)  # 1 - W, without cancellation
    w = 1.0 - w1

    if n == 3:
        p = 6.0 / math.pi * (math.asin(math.sqrt(w)) - math.pi / 3.0)
        return w, max(p, 0.0)
    z = math.log(w1) if w1 > 0.0 else -math.inf
    if n <= 11:
        gamma = _poly(_SW_GAMMA, n)
        if z >= gamma:
            return w, 1e-99  # past the transform's range
        z = -math.log(gamma - z)
        mean, log_sd = _poly(_SW_MEAN_SMALL, n), _poly(_SW_LOG_SD_SMALL, n)
    else:
        mean, log_sd = _poly(_SW_MEAN, math.log(n)), _poly(_SW_LOG_SD, math.log(n))
    return w, 0.5 * math.erfc((z - mean) / math.exp(log_sd) / math.sqrt(2.0))


@dataclass(frozen=True)
class AcfResult:
    """Sample autocorrelations for lags 0..max_lag with the 95% noise band."""

    lags: np.ndarray
    values: np.ndarray
    band: float

    def rows(self) -> list[tuple[int, float, float]]:
        return [(int(l), float(v), self.band) for l, v in zip(self.lags, self.values)]


def acf(sample: Sequence[float], max_lag: int) -> AcfResult:
    """Biased-normalization sample ACF; the band is +-1.96/sqrt(n)."""
    x = np.asarray(sample, dtype=float)
    n = x.size
    if not 0 <= max_lag < n:
        raise ValueError(f"max_lag must be in [0, {n - 1}], got {max_lag}")
    _check_not_constant(x)
    centered = x - x.mean()
    c0 = float(np.dot(centered, centered))
    values = np.empty(max_lag + 1)
    values[0] = 1.0
    for k in range(1, max_lag + 1):
        values[k] = float(np.dot(centered[k:], centered[:-k])) / c0
    return AcfResult(lags=np.arange(max_lag + 1), values=values, band=1.96 / math.sqrt(n))


def ljung_box(sample: Sequence[float], lags: int) -> tuple[float, float]:
    """Ljung-Box portmanteau test for serial correlation up to ``lags``."""
    x = np.asarray(sample, dtype=float)
    n = x.size
    if lags < 1:
        raise ValueError(f"lags must be >= 1, got {lags}")
    if lags >= n / 2:
        raise ValueError(f"lags must be < n/2 = {n / 2}, got {lags}")
    rho = acf(x, lags).values[1:]
    k = np.arange(1, lags + 1)
    q = n * (n + 2.0) * float(np.sum(rho * rho / (n - k)))
    return q, chi2_upper(lags, q)


@dataclass(frozen=True)
class GbmVerdict:
    """Joint outcome of the normality and independence tests."""

    shapiro_w: float
    shapiro_p: float
    ljung_q: float
    ljung_p: float
    acf: AcfResult
    is_gbm: bool


def gbm_test(series: PriceSeries, alpha: float = 0.05, lags: int | None = None) -> GbmVerdict:
    """Accept the constant-vol assumption when neither test rejects at alpha."""
    if not 0 < alpha <= 0.5:
        raise ValueError(f"alpha must be in (0, 0.5], got {alpha}")
    ratios = log_ratios(series)
    n = ratios.size
    if lags is None:
        lags = min(10, n // 5)
        if lags < 1:
            raise ValueError(f"series too short for the independence test (n = {n})")
    w, p_w = shapiro_wilk(ratios)
    q, p_q = ljung_box(ratios, lags)
    acf_res = acf(ratios, lags)
    return GbmVerdict(
        shapiro_w=w,
        shapiro_p=p_w,
        ljung_q=q,
        ljung_p=p_q,
        acf=acf_res,
        is_gbm=bool(p_w >= alpha and p_q >= alpha),
    )


def estimate_gbm(series: PriceSeries) -> GbmParams:
    """Moment estimates of annual volatility and drift from log ratios."""
    if len(series) < 10:
        raise ValueError(f"need >= 10 observations, got {len(series)}")
    ratios = log_ratios(series)
    dt = series.dt
    sigma = float(np.std(ratios, ddof=1)) / math.sqrt(dt)
    mu = float(np.mean(ratios)) / dt + 0.5 * sigma * sigma
    return GbmParams(spot_M0=series.prices[-1], sigma=sigma, mu=mu)


def realized_vol(series: PriceSeries, window: int) -> np.ndarray:
    """Annualized rolling-window standard deviation of log ratios."""
    ratios = log_ratios(series)
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    if ratios.size < window:
        raise ValueError("series shorter than the rolling window")
    scale = 1.0 / math.sqrt(series.dt)
    return sliding_window_view(ratios, window).std(axis=1, ddof=1) * scale


def _long_run_variance(u: np.ndarray, max_lag: int) -> float:
    """Truncated-sum long-run variance; stationary serial noise cancels."""
    centered = u - u.mean()
    total = float(np.mean(centered * centered))
    for k in range(1, max_lag + 1):
        total += 2.0 * float(np.mean(centered[:-k] * centered[k:]))
    return max(total, 0.0)


def estimate_sv(series: PriceSeries, window: int = 7) -> SvParams:
    """Two-stage estimate: realized-vol proxy, then mean-reversion regression.

    The volatility increments are regressed on the level to recover the
    reversion speed and long-run mean, by centred closed-form least squares
    (slope = sum((x - mean x)(y - mean y)) / sum((x - mean x)^2)), which
    needs no LAPACK; the level's spread is checked first, so the
    denominator is not zero. The noise coefficient comes from
    the long-run variance of the increments, normalized by the mean level
    and the step: the rolling-window proxy adds serially-dependent
    measurement noise (windows overlap), and a plain residual scale would
    absorb it wholesale, while the long-run variance cancels any
    stationary noise and keeps the genuine random-walk scale delta^2 *
    sigma * dt (the reversion drift only contributes at order dt^2).
    Estimates are floored at zero; the proxy is noisy, so expect wide
    error bars.
    """
    if window < MIN_SV_WINDOW:
        raise ValueError(f"window must be >= {MIN_SV_WINDOW}, got {window}")
    if len(series) < 3 * window:
        raise ValueError(f"need >= {3 * window} observations, got {len(series)}")
    vol = realized_vol(series, window)
    dt = series.dt
    level = vol[:-1]
    dvol = np.diff(vol)
    if np.ptp(level) < 1e-12:
        raise ValueError("degenerate regression: realized volatility is constant")
    level_mean = float(np.mean(level))
    dvol_mean = float(np.mean(dvol))
    centred = level - level_mean
    slope = float(centred @ (dvol - dvol_mean)) / float(centred @ centred)
    intercept = dvol_mean - slope * level_mean
    kappa = -slope / dt
    # positive: the level's spread, checked above, needs some volatility above zero
    mean_level = float(np.mean(vol))
    if kappa > 0:
        theta = max(intercept / (kappa * dt), 0.0)
    else:
        kappa = 0.0
        theta = mean_level
    max_lag = min(2 * window, max(dvol.size // 3, 1))
    delta = math.sqrt(_long_run_variance(dvol, max_lag) / (mean_level * dt))
    sigma0 = float(vol[0])
    if sigma0 <= 0:
        raise ValueError("degenerate input: first realized-volatility window is zero")
    return SvParams(
        spot_M0=series.prices[-1], sigma0=sigma0, kappa=kappa, theta=theta, delta=delta
    )


def _median(values: Sequence[float]) -> float:
    """Median by a full sort, bit for bit ``np.median`` without its
    ``numpy.ma`` import: NaN if any value is NaN (the sort puts NaN last),
    else the mean of the middle value or two as ``np.mean`` forms it, a
    sum from +0.0 (so a -0.0 sum reads +0.0) over the count."""
    ordered = np.sort(np.asarray(values, dtype=float))
    if math.isnan(ordered[-1]):
        return math.nan
    half = ordered.size // 2
    if ordered.size % 2:
        return 0.0 + float(ordered[half])
    return (0.0 + float(ordered[half - 1]) + float(ordered[half])) / 2


def l2_fitness(actual: np.ndarray, simulated: np.ndarray) -> tuple[float, float]:
    """Euclidean distance between two equal-length paths, raw and smoothed."""
    if actual.size != simulated.size:
        raise ValueError(f"length mismatch: {actual.size} vs {simulated.size}")
    if SMOOTH_WINDOW > actual.size:
        raise ValueError("SMOOTH_WINDOW larger than the series")
    raw = float(np.linalg.norm(actual - simulated))
    kernel = np.full(SMOOTH_WINDOW, 1.0 / SMOOTH_WINDOW)
    smoothed = np.convolve(actual, kernel, mode="valid") - np.convolve(simulated, kernel, mode="valid")
    return raw, float(np.linalg.norm(smoothed))


@dataclass(frozen=True)
class FitnessComparison:
    """Median path distances of both fitted models against an actual series."""

    gbm_raw: float
    gbm_smoothed: float
    sv_raw: float
    sv_smoothed: float


def fitness_comparison(actual: PriceSeries, n_instances: int, seed: int) -> FitnessComparison:
    """Fit both models to ``actual`` and compare simulated-path distances.

    Each model is fitted on the whole series, re-simulated from the first
    price ``n_instances`` times under the estimated real-world drift, and
    scored by the median distance to the actual path. One model's paths
    are scored before the other's are drawn, so one path matrix is alive
    at a time.
    """
    if n_instances < 1:
        raise ValueError(f"n_instances must be >= 1, got {n_instances}")
    gbm = estimate_gbm(actual)
    sv = estimate_sv(actual)
    steps = len(actual) - 1
    dt = actual.dt
    spot = actual.prices[0]
    target = actual.values

    def median_l2(params: SvParams, path_seed: int) -> tuple[float, float]:
        paths = montecarlo.sample_paths(
            params, gbm.mu, dt, steps, n_instances, Scheme.EULER, path_seed
        )
        raws, smooths = zip(*(l2_fitness(target, row) for row in paths))
        return _median(raws), _median(smooths)

    gbm_raw, gbm_smoothed = median_l2(replace(gbm, spot_M0=spot).as_sv(), seed)
    sv_raw, sv_smoothed = median_l2(replace(sv, spot_M0=spot), seed + 1)
    return FitnessComparison(
        gbm_raw=gbm_raw, gbm_smoothed=gbm_smoothed, sv_raw=sv_raw, sv_smoothed=sv_smoothed
    )
