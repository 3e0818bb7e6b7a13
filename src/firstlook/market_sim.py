"""Advertiser delivery and publisher revenue under option-based selling.

Days are abstracted to an average winning CPM and an impression supply;
clicks follow deterministically from a constant CTR. The option strategy
pre-pays a premium per covered click out of each delivery day's budget
and exercises only on days where the spot per-click value exceeds the
strike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import date, timedelta
from operator import attrgetter
from typing import IO, Sequence

import numpy as np

from . import montecarlo
from .contracts import DAYS_PER_YEAR, SvParams, per_click_value, require_finite
from .montecarlo import Scheme
from .output import write_table


@dataclass(frozen=True)
class MarketDay:
    """One trading day: average winning payment CPM and available supply."""

    day: date
    avg_cpm: float
    supply: int

    def __post_init__(self) -> None:
        if self.avg_cpm <= 0 or not math.isfinite(self.avg_cpm):
            raise ValueError(f"avg_cpm must be > 0, got {self.avg_cpm}")
        if self.supply < 0:
            raise ValueError(f"supply must be >= 0, got {self.supply}")


@dataclass(frozen=True)
class LedgerRow:
    """Advertiser-side record of one delivery day."""

    day: date
    avg_cpm: float
    supply: int
    budget: float
    premium_paid: float
    options_held: int
    options_exercised: int
    impressions: int
    clicks: int
    spend: float


@dataclass(frozen=True)
class SimulationLedger:
    """Day-by-day delivery record with exact totals."""

    rows: tuple[LedgerRow, ...]

    @property
    def total_spend(self) -> float:
        """Premium plus delivery-day spend."""
        return sum(r.premium_paid + r.spend for r in self.rows)

    @property
    def total_clicks(self) -> int:
        return sum(r.clicks for r in self.rows)

    @property
    def cost_per_click(self) -> float:
        clicks = self.total_clicks
        return self.total_spend / clicks if clicks else math.inf


def _rtb_fill(budget: float, cpm: float, supply: int, ctr: float) -> tuple[int, int, float]:
    """Impressions, clicks and spend when a budget meets the spot market."""
    price_per_impression = cpm / 1000.0
    # a budget that buys the whole supply fills it, at a price that rounds to 0 too
    affordable = budget / price_per_impression if price_per_impression > 0 else math.inf
    impressions = 0 if budget <= 0 else supply if affordable >= supply else int(affordable)
    spend = impressions * price_per_impression
    clicks = int(math.floor(impressions * ctr))
    return impressions, clicks, spend


def _deliver(
    budget: float,
    days: Sequence[MarketDay],
    ctr: float,
    held: int,
    option_price: float,
    strike_cpc: float,
) -> tuple[LedgerRow, ...]:
    """Ledger rows of ``held`` options bought out of each day's budget.

    Options are exercised when the spot per-click value strictly exceeds
    the strike; the leftover budget goes to the spot market.
    """
    premium = held * option_price
    rows = []
    for day in days:
        remaining = budget - premium
        exercised = impressions_opt = 0
        strike_spend = 0.0
        if held and per_click_value(day.avg_cpm, ctr) > strike_cpc:
            by_supply = int(math.floor(day.supply * ctr))
            by_budget = int(math.floor(remaining / strike_cpc)) if strike_cpc > 0 else held
            exercised = min(held, by_supply, by_budget)
            impressions_opt = int(math.floor(exercised / ctr))
            strike_spend = exercised * strike_cpc
            remaining -= strike_spend
        impressions, clicks, spend = _rtb_fill(
            remaining, day.avg_cpm, day.supply - impressions_opt, ctr
        )
        rows.append(
            LedgerRow(
                day=day.day,
                avg_cpm=day.avg_cpm,
                supply=day.supply,
                budget=budget,
                premium_paid=premium,
                options_held=held,
                options_exercised=exercised,
                impressions=impressions_opt + impressions,
                clicks=exercised + clicks,
                spend=strike_spend + spend,
            )
        )
    return tuple(rows)


def _check_terms(ctr: float, option_price: float, strike_cpc: float) -> None:
    """Refuse a click-through rate, premium or per-click strike that no option can carry."""
    require_finite("option_price", option_price)
    require_finite("strike_cpc", strike_cpc)
    if not 0 < ctr <= 1:
        raise ValueError(f"ctr must be in (0, 1], got {ctr}")
    if option_price < 0 or strike_cpc < 0:
        raise ValueError("option_price and strike_cpc must be >= 0")


def simulate_rtb(
    budget_per_day: float, days: Sequence[MarketDay], ctr: float
) -> SimulationLedger:
    """Spot-market-only delivery with a fixed daily budget."""
    require_finite("budget_per_day", budget_per_day)
    if budget_per_day < 0:
        raise ValueError(f"budget_per_day must be >= 0, got {budget_per_day}")
    _check_terms(ctr, 0.0, 0.0)
    return SimulationLedger(rows=_deliver(budget_per_day, days, ctr, 0, 0.0, 0.0))


def simulate_options(
    budget_per_day: float,
    days: Sequence[MarketDay],
    ctr: float,
    option_price: float,
    strike_cpc: float,
) -> SimulationLedger:
    """Delivery when each day's budget first buys per-click options.

    The advertiser buys as many options as the day's budget can both pay
    for upfront and exercise later, then on the delivery day exercises
    them whenever the spot per-click value strictly exceeds the strike;
    leftover budget goes to the spot market either way.
    """
    require_finite("budget_per_day", budget_per_day)
    if budget_per_day <= 0:
        raise ValueError(f"budget_per_day must be > 0, got {budget_per_day}")
    _check_terms(ctr, option_price, strike_cpc)

    # a premium at or above the budget buys nothing: spot-only delivery
    degenerate = option_price >= budget_per_day
    cost_per_option = option_price + strike_cpc
    held = 0 if degenerate or cost_per_option <= 0 else math.floor(budget_per_day / cost_per_option)
    return SimulationLedger(rows=_deliver(budget_per_day, days, ctr, held, option_price, strike_cpc))


@dataclass(frozen=True)
class RevenueDay:
    """Publisher-side revenue decomposition of one day."""

    day: date
    premium_income: float
    strike_income: float
    rtb_income: float

    @property
    def total(self) -> float:
        return self.premium_income + self.strike_income + self.rtb_income


@dataclass(frozen=True)
class RevenueReport:
    mean_revenue: float
    std_revenue: float
    series: tuple[RevenueDay, ...]


def revenue_analysis(
    days: Sequence[MarketDay],
    ctr: float,
    sell_ratio: float,
    option_price: float,
    strike_cpc: float,
) -> RevenueReport:
    """Publisher revenue when a fraction of daily supply is pre-sold.

    Each day's pre-sold impressions back per-click options; exercised
    options earn the strike while the rest of the supply clears at the
    spot CPM. Premium income is attributed to the day it covers.
    """
    _check_terms(ctr, option_price, strike_cpc)
    if not 0 <= sell_ratio <= 1:
        raise ValueError(f"sell_ratio must be in [0, 1], got {sell_ratio}")
    series = []
    for day in days:
        sold_impressions = int(math.floor(day.supply * sell_ratio))
        options_sold = int(math.floor(sold_impressions * ctr))
        premium_income = options_sold * option_price
        exercised = per_click_value(day.avg_cpm, ctr) > strike_cpc
        if exercised and options_sold > 0:
            strike_income = options_sold * strike_cpc
            rtb_income = (day.supply - sold_impressions) * day.avg_cpm / 1000.0
        else:
            strike_income = 0.0
            rtb_income = day.supply * day.avg_cpm / 1000.0
        series.append(
            RevenueDay(
                day=day.day,
                premium_income=premium_income,
                strike_income=strike_income,
                rtb_income=rtb_income,
            )
        )
        require_finite(f"the revenue of {day.day}", series[-1].total)
    totals = np.array([d.total for d in series])
    # finite days can still sum past the largest float
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(totals.mean()) if series else 0.0
        std = float(totals.std(ddof=1)) if len(series) > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise ValueError(f"the mean revenue {mean!r} or its spread {std!r} is not finite")
    return RevenueReport(mean_revenue=mean, std_revenue=std, series=tuple(series))


def is_bull(days: Sequence[MarketDay], spot_cpm: float) -> bool:
    """A test period is bull when its average price exceeds the pricing-date spot."""
    if not days:
        return False
    return float(np.mean([d.avg_cpm for d in days])) > spot_cpm


# 100 years of daily prices; checked before the path is allocated
MAX_SIM_DAYS = 36_500


def synthetic_market(
    sv: SvParams,
    mu: float,
    n_days: int,
    base_supply: int,
    seed: int,
) -> list[MarketDay]:
    """Seeded synthetic daily market from the SV path sampler.

    Constant-vol scenarios use kappa = delta = 0. Supply jitters +-10%
    around the base level, deterministically for a given seed. Raises
    ValueError above MAX_SIM_DAYS and when the path overflows or
    underflows to zero.
    """
    if n_days < 1:
        raise ValueError(f"n_days must be >= 1, got {n_days}")
    if n_days > MAX_SIM_DAYS:
        raise ValueError(f"n_days = {n_days} exceeds supported maximum {MAX_SIM_DAYS}")
    if base_supply < 1:
        raise ValueError(f"base_supply must be >= 1, got {base_supply}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 after an overflow
        path = montecarlo.sample_paths(
            sv, mu, 1.0 / DAYS_PER_YEAR, n_days, 1, Scheme.EULER, seed
        )[0]
    bad = np.flatnonzero(~(np.isfinite(path) & (path > 0)))
    if bad.size:
        what = "not finite" if not np.isfinite(path[bad[0]]) else "zero"
        raise ValueError(
            f"price path is {what} from day {bad[0]} of {n_days}; lower the drift or volatility"
        )
    rng = np.random.default_rng(seed + 1)
    jitter = rng.integers(-base_supply // 10, base_supply // 10 + 1, size=n_days)
    days = []
    for i in range(n_days):
        days.append(
            MarketDay(
                day=date(2013, 2, 8) + timedelta(days=i),
                avg_cpm=float(path[i + 1]),
                supply=int(base_supply + jitter[i]),
            )
        )
    return days


def ledger_to_csv(ledger: SimulationLedger, stream: IO[str]) -> None:
    names = [f.name for f in fields(LedgerRow)]
    rows = [*map(attrgetter(*names), ledger.rows)]
    # the total row sums every column after the date and the CPM
    rows.append(("total", None, *(sum(getattr(r, n) for r in ledger.rows) for n in names[2:])))
    write_table(stream, ["date", *names[1:]], rows)


def revenue_to_csv(report: RevenueReport, stream: IO[str]) -> None:
    rows = [(d.day, d.premium_income, d.strike_income, d.rtb_income, d.total) for d in report.series]
    rows.append(("summary", report.mean_revenue, report.std_revenue, None, None))
    write_table(stream, ["date", "premium_income", "strike_income", "rtb_income", "total"], rows)
