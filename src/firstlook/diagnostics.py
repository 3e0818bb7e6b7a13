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
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import chdtrc

from . import montecarlo
from .contracts import DAYS_PER_YEAR, GbmParams, SvParams
from .montecarlo import Scheme

# moving-average width of the smoothed path distance in ``l2_fitness``
SMOOTH_WINDOW = 5
# narrowest realized-volatility window ``estimate_sv`` regresses on
MIN_SV_WINDOW = 5


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
    """Log ratios of consecutive prices, length len(series) - 1."""
    return np.diff(np.log(series.values))


def shapiro_wilk(sample: Sequence[float]) -> tuple[float, float]:
    """Shapiro-Wilk normality test (Royston's algorithm), 3 <= n <= 5000."""
    x = np.asarray(sample, dtype=float)
    if not 3 <= x.size <= 5000:
        raise ValueError(f"sample size must be in [3, 5000], got {x.size}")
    if np.ptp(x) == 0:
        raise ValueError("degenerate input: sample is constant")
    from scipy.stats import shapiro  # scipy.stats alone costs ~0.8 s of import

    w, p = shapiro(x)
    return float(w), float(p)


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
    centered = x - x.mean()
    c0 = float(np.dot(centered, centered))
    if c0 == 0:
        raise ValueError("degenerate input: sample is constant")
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
    p = float(chdtrc(lags, q))
    return q, p


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
    reversion speed and long-run mean. The noise coefficient comes from
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
    slope, intercept = np.polyfit(level, dvol, 1)
    kappa = -float(slope) / dt
    if kappa > 0:
        theta = max(float(intercept) / (kappa * dt), 0.0)
    else:
        kappa = 0.0
        theta = float(np.mean(vol))
    mean_level = float(np.mean(vol))
    if mean_level <= 0:
        raise ValueError("degenerate regression: zero realized volatility")
    max_lag = min(2 * window, max(dvol.size // 3, 1))
    delta = math.sqrt(_long_run_variance(dvol, max_lag) / (mean_level * dt))
    sigma0 = float(vol[0])
    if sigma0 <= 0:
        raise ValueError("degenerate input: first realized-volatility window is zero")
    return SvParams(
        spot_M0=series.prices[-1], sigma0=sigma0, kappa=kappa, theta=theta, delta=delta
    )


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
    scored by the median distance to the actual path.
    """
    if n_instances < 1:
        raise ValueError(f"n_instances must be >= 1, got {n_instances}")
    gbm = estimate_gbm(actual)
    sv = estimate_sv(actual)
    steps = len(actual) - 1
    dt = actual.dt
    spot = actual.prices[0]
    gbm_paths = montecarlo.sample_paths(
        replace(gbm, spot_M0=spot).as_sv(), gbm.mu, dt, steps, n_instances, Scheme.EULER, seed
    )
    sv_paths = montecarlo.sample_paths(
        replace(sv, spot_M0=spot), gbm.mu, dt, steps, n_instances, Scheme.EULER, seed + 1
    )
    target = actual.values

    def median_l2(paths: np.ndarray) -> tuple[float, float]:
        raws, smooths = zip(*(l2_fitness(target, row) for row in paths))
        return float(np.median(raws)), float(np.median(smooths))

    gbm_raw, gbm_smoothed = median_l2(gbm_paths)
    sv_raw, sv_smoothed = median_l2(sv_paths)
    return FitnessComparison(
        gbm_raw=gbm_raw, gbm_smoothed=gbm_smoothed, sv_raw=sv_raw, sv_smoothed=sv_smoothed
    )
