"""The workloads (quote, validate): inputs, op, checks.

Each workload is built from a seed alone, so the same seed gives the
same inputs; the program under test only ever sees those inputs. An op
returns its raw results and ``check`` turns them into a list of failure
messages (empty when the op is correct). Checks are independent of the
timed work, so a test can perturb a result and watch the check fire.

Only public API that the planned refactors keep is used: no lattice
level arrays, no backward price, no scalar step/payoff/discount helpers
and no CLI method tables.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass

from firstlook import contracts, diagnostics, gbm_lattice, market_sim, montecarlo, sv_lattice
from firstlook.contracts import GbmParams, OptionContract, SvParams

BINOMIAL_KINDS = ("crr", "tian-bin", "haahtela")
TRINOMIAL_KINDS = ("boyle-trin", "kr-trin", "tian-trin")

# GBM lattices against the closed form: |p - cf| <= GBM_REL * cf + GBM_ABS * S
GBM_REL = 2e-3
GBM_ABS = 1e-7
# acceptance criterion 3's gate for the two binomial routes, stated at
# n <= 500; the complementary route's tail sums lose accuracy linearly in
# n (1.1-1.3e-10 relative off a 40-digit sum at n = 40000, where the direct
# sum is off 1.3e-11), so beyond n = 10000 the gate grows with n
ROUTE_REL = 1e-10
ROUTE_REL_PER_STEP = 1e-14
# SV lattice against the closed form at the mean-path variance: the
# lattice error is O(1/n) on the option's price scale S * sqrt(variance),
# |p - oracle| <= SV_TOL / n * S * sqrt(variance)
SV_TOL = 0.5
# the oracle is checked where censored transitions carry at most this mass
CENSOR_EPS = 1e-9
# no-arbitrage bounds hold to roundoff for every GBM price; the SV
# lattice matches the drift of the log price, not of the price, so it
# holds them to its own O(1/n) tolerance above
BOUND_EPS = 1e-12
# the MC estimate may sit this many standard errors outside the bounds; a
# correct estimator does so about 3e-7 of the time (its 95% interval
# misses the lower bound of a deep in-the-money call about 2.5% of the time)
MC_Z = 5.0


def black_call(spot: float, strike: float, rate: float, expiry: float, sigma: float) -> float:
    """Black-Scholes call, written out here so the SV oracle is independent."""
    if sigma <= 0.0:
        return max(spot - strike * math.exp(-rate * expiry), 0.0)
    srt = sigma * math.sqrt(expiry)
    d1 = (math.log(spot / strike) + (rate + 0.5 * sigma * sigma) * expiry) / srt
    d2 = d1 - srt
    cdf = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))  # noqa: E731
    return spot * cdf(d1) - strike * math.exp(-rate * expiry) * cdf(d2)


def mean_path_variance(sv: SvParams, contract: OptionContract) -> float:
    """Integrated variance of the censored lattice's volatility path.

    The lattice steps with the conditional-mean volatility
    sigma_bar(t_k) = theta + (sigma0 - theta) e^(-kappa t_k), k = 1..n,
    so it converges to the closed form at variance sum sigma_bar(t_k)^2 dt.
    """
    return contract.dt * math.fsum(sigma * sigma for sigma in mean_vol_path(sv, contract)[1:])


def mean_vol_path(sv: SvParams, contract: OptionContract) -> list[float]:
    """sigma_bar(t_k) for k = 0..n."""
    n, dt = contract.steps_n, contract.dt
    return [sv.theta + (sv.sigma0 - sv.theta) * math.exp(-sv.kappa * k * dt) for k in range(n + 1)]


def censoring_binds(sv: SvParams, contract: OptionContract) -> bool:
    """Whether a censored transition of the SV lattice can carry mass.

    The mean-path oracle holds only while no transition is censored:
    each uncensored step moves the log price by the drift on average and
    by at most 2 s_k (s_k = sigma_bar(t_k) sqrt(dt)) off it, so by
    Azuma's inequality all but CENSOR_EPS of the mass stays within
    sqrt(8 V ln(2 / CENSOR_EPS)) of the summed drift. This repeats the
    lattice's grid geometry (top node snapped to the nearest grid point,
    the rest at twice the old spacing below it) and asks whether a node
    in that band has a displacement |K| > s_k, where the lattice censors.
    Censoring is the lattice's defined behaviour; where it binds, the
    lattice converges to something other than the oracle.
    """
    n, dt, r = contract.steps_n, contract.dt, contract.rate_r
    vol = mean_vol_path(sv, contract)
    band = math.sqrt(8.0 * math.log(2.0 / CENSOR_EPS) * mean_path_variance(sv, contract))
    x_top, old_spacing, mean = 0.0, 1.0, 0.0
    for k in range(n):
        spacing = vol[k + 1] * math.sqrt(dt)
        j_top = math.floor(x_top / spacing + 0.5)
        if k:
            # K is linear in the node's x: K(x) = x - (j_top - 2 i) s, i = (x_top - x) / (2 s_old)
            x_bottom = x_top - 2 * k * old_spacing
            for x in (max(x_bottom, mean - band), min(x_top, mean + band)):
                i = (x_top - x) / (2 * old_spacing)
                if abs(x - (j_top - 2 * i) * spacing) > spacing * (1.0 + 1e-9):
                    return True
        drift = (r - 0.5 * vol[k + 1] ** 2) * dt
        x_top, old_spacing, mean = (j_top + 1) * spacing + drift, spacing, mean + drift
    return False


# ---------------------------------------------------------------- quote


@dataclass(frozen=True)
class QuoteSizes:
    binomial_n: tuple[int, ...] = (10_000, 20_000, 40_000)
    trinomial_n: tuple[int, ...] = (1_000, 1_250)
    sv_regular_n: tuple[int, int] = (100, 600)
    sv_large_n: tuple[int, int] = (2_900, 3_000)
    sv_dump_n: int = 150
    mc_paths: int = 20_000
    mc_steps: int = 50
    blocks: int = 6


QUOTE_FULL = QuoteSizes()
QUOTE_TINY = QuoteSizes(
    binomial_n=(500,), trinomial_n=(300,), sv_regular_n=(10, 30), sv_large_n=(60, 60),
    sv_dump_n=8, mc_paths=2_000, mc_steps=10, blocks=1,
)
# per block of 20 contracts: 2 dump a small SV lattice, 3 carry an SV
# lattice near n = 3000, so those sit above the 90th latency percentile
BLOCK, DUMPS_PER_BLOCK, LARGE_PER_BLOCK = 20, 2, 3


@dataclass(frozen=True)
class Quote:
    gbm: GbmParams
    sv: SvParams
    binomial: OptionContract
    trinomial: OptionContract
    sv_contract: OptionContract
    mc: montecarlo.McConfig
    dump: bool


class QuoteWorkload:
    """A seeded book of contracts; one op prices one contract every way."""

    name = "quote"

    def __init__(self, seed: int, sizes: QuoteSizes = QUOTE_FULL) -> None:
        rng = random.Random(seed)
        self.book: list[Quote] = []
        for _ in range(sizes.blocks):
            roles = (["dump"] * DUMPS_PER_BLOCK + ["large"] * LARGE_PER_BLOCK
                     + ["regular"] * (BLOCK - DUMPS_PER_BLOCK - LARGE_PER_BLOCK))
            rng.shuffle(roles)
            for role in roles:
                self.book.append(self._contract(rng, role, sizes))

    @staticmethod
    def _contract(rng: random.Random, role: str, sizes: QuoteSizes) -> Quote:
        spot = rng.uniform(0.5, 20.0)
        ctr = rng.uniform(0.01, 0.3)
        sigma = rng.uniform(0.2, 0.9)
        expiry = rng.uniform(7.0, 90.0) / 365.0
        rate = 0.05
        # strike from a band of log-moneyness around the money, in units of sigma*sqrt(T)
        moneyness = rng.uniform(-1.5, 1.5)
        strike = contracts.per_click_value(spot, ctr) * math.exp(moneyness * sigma * math.sqrt(expiry))
        sv = SvParams(spot_M0=spot, sigma0=rng.uniform(0.2, 0.9), kappa=rng.uniform(0.5, 6.0),
                      theta=rng.uniform(0.2, 1.1), delta=rng.uniform(0.1, 0.7))
        if role == "dump":
            sv_n = sizes.sv_dump_n
        elif role == "large":
            sv_n = rng.randint(*sizes.sv_large_n)
        else:
            sv_n = rng.randint(*sizes.sv_regular_n)

        def contract(n: int) -> OptionContract:
            return OptionContract(strike=strike, expiry_T=expiry, rate_r=rate, steps_n=n, ctr=ctr)

        return Quote(
            gbm=GbmParams(spot_M0=spot, sigma=sigma),
            sv=sv,
            binomial=contract(rng.choice(sizes.binomial_n)),
            trinomial=contract(rng.choice(sizes.trinomial_n)),
            sv_contract=contract(sv_n),
            mc=montecarlo.McConfig(scheme=montecarlo.Scheme.EULER, n_paths=sizes.mc_paths,
                                   steps=sizes.mc_steps, seed=rng.randrange(2**31)),
            dump=role == "dump",
        )

    def __len__(self) -> int:
        return len(self.book)

    def op(self, i: int) -> dict:
        q = self.book[i % len(self.book)]
        prices = {"closed": gbm_lattice.closed_form_price(q.gbm, q.binomial)}
        for kind in BINOMIAL_KINDS:
            method = gbm_lattice.LatticeMethod(gbm_lattice.MethodKind(kind))
            prices[kind] = gbm_lattice.binomial_price_sum(q.gbm, q.binomial, method)
        crr = gbm_lattice.LatticeMethod(gbm_lattice.MethodKind("crr"))
        prices["crr-complementary"] = gbm_lattice.complementary_binomial_price(q.gbm, q.binomial, crr)
        for kind in TRINOMIAL_KINDS:
            method = gbm_lattice.LatticeMethod(gbm_lattice.MethodKind(kind))
            prices[kind] = gbm_lattice.trinomial_price(q.gbm, q.trinomial, method)
        lattice = sv_lattice.build_censored_lattice(q.sv, q.sv_contract)
        prices["sv-lattice"] = sv_lattice.price_sv_option(lattice).price
        mc = montecarlo.mc_price(q.sv, q.sv_contract, q.mc)
        result = {"prices": prices, "mc": (mc.price, mc.std_error, mc.ci_low, mc.ci_high),
                  "dump_bytes": None}
        if q.dump:
            buf = io.StringIO()
            sv_lattice.lattice_to_csv(lattice, buf)
            result["dump_bytes"] = buf.tell()
        return result

    @staticmethod
    def _sv_oracle(q: Quote) -> tuple[float, float]:
        """The SV lattice's mean-path oracle price and its tolerance."""
        c = q.sv_contract
        spot = contracts.per_click_value(q.sv.spot_M0, c.ctr)
        variance = mean_path_variance(q.sv, c)
        oracle = black_call(spot, c.strike, c.rate_r, c.expiry_T, math.sqrt(variance / c.expiry_T))
        return oracle, SV_TOL / c.steps_n * spot * math.sqrt(variance)

    def health(self, i: int, result: dict) -> dict[str, float]:
        """Gauges a traced run reports as their worst case over its ops."""
        prices = result["prices"]
        q = self.book[i % len(self.book)]
        gauges = {"gbm_lattice.route_gap_max": route_gap(prices["crr"], prices["crr-complementary"])}
        if not censoring_binds(q.sv, q.sv_contract):
            oracle, tolerance = self._sv_oracle(q)
            gauges["sv_lattice.oracle_gap_max"] = abs(prices["sv-lattice"] - oracle) / tolerance
        return gauges

    def check(self, i: int, result: dict) -> list[str]:
        q = self.book[i % len(self.book)]
        prices = result["prices"]
        spot = contracts.per_click_value(q.gbm.spot_M0, q.binomial.ctr)
        strike, rate, expiry = q.binomial.strike, q.binomial.rate_r, q.binomial.expiry_T
        failures = []
        closed = prices["closed"]
        for kind in BINOMIAL_KINDS + TRINOMIAL_KINDS:
            if not abs(prices[kind] - closed) <= GBM_REL * closed + GBM_ABS * spot:
                failures.append(f"{kind} {prices[kind]!r} vs closed form {closed!r}")
        direct, tail = prices["crr"], prices["crr-complementary"]
        if route_gap(direct, tail) >= max(ROUTE_REL, ROUTE_REL_PER_STEP * q.binomial.steps_n):
            failures.append(f"binomial routes differ: {direct!r} vs {tail!r}")
        oracle, tolerance = self._sv_oracle(q)
        if not censoring_binds(q.sv, q.sv_contract) and not abs(prices["sv-lattice"] - oracle) <= tolerance:
            failures.append(f"sv-lattice {prices['sv-lattice']!r} vs mean-path oracle {oracle!r}")
        lo = max(spot - strike * math.exp(-rate * expiry), 0.0)
        for name, p in prices.items():
            slack = tolerance if name == "sv-lattice" else BOUND_EPS * spot
            if not lo - slack <= p <= spot + slack:
                failures.append(f"{name} {p!r} outside no-arbitrage bounds [{lo!r}, {spot!r}]")
        mc_price, std_error, ci_low, ci_high = result["mc"]
        if not ci_low <= mc_price <= ci_high:
            failures.append(f"mc price {mc_price!r} outside its interval [{ci_low!r}, {ci_high!r}]")
        if not lo - MC_Z * std_error <= mc_price <= spot + MC_Z * std_error:
            failures.append(f"mc price {mc_price!r} (se {std_error!r}) outside bounds [{lo!r}, {spot!r}]")
        if q.dump and not result["dump_bytes"]:
            failures.append("lattice dump is empty")
        return failures


def route_gap(direct: float, tail: float) -> float:
    scale = max(abs(direct), abs(tail))
    return abs(tail - direct) / scale if scale > 0 else 0.0


# ---------------------------------------------------------------- validate

# acceptance criterion 6's setting
WIDE_SV = SvParams(spot_M0=20.0, sigma0=0.5, kappa=3.0, theta=0.75, delta=0.35)
WIDE_CONTRACT = OptionContract(strike=0.633, expiry_T=31 / 365, rate_r=0.05, steps_n=200, ctr=0.03)
SWEEP_RANGES = {"sigma0": (0.3, 0.7), "kappa": (1.0, 6.0), "theta": (0.4, 1.1), "delta": (0.1, 0.7)}
MC_SEED = 42
SELL_RATIOS = (0.0, 0.2, 0.5, 0.8)


@dataclass(frozen=True)
class ValidateSizes:
    paths: int = 100_000
    mc_steps: int = 200
    points_per_param: int = 3
    days: int = 365
    fitness_instances: int = 300
    scenarios: int = 40


VALIDATE_FULL = ValidateSizes()
VALIDATE_TINY = ValidateSizes(paths=2_000, mc_steps=20, points_per_param=1, days=40,
                              fitness_instances=10, scenarios=3)


@dataclass(frozen=True)
class Scenario:
    sv: SvParams
    mu: float
    supply: int
    seed: int
    ctr: float
    budget: float
    strike_cpc: float


class ValidateWorkload:
    """Containment sweep points on criterion 6's setting, each with a market replay.

    One op is one sweep point followed by one seeded market scenario: a
    year of synthetic market, the diagnostics on its series, a
    closed-form premium and the delivery and revenue replays. The sweep
    does about 95% of the work; the scenario keeps ``diagnostics`` and
    ``market_sim`` measured and drives ``montecarlo.sample_paths`` with
    few, fully recorded paths, the opposite shape to the sweep.

    The parameters rotate so every prefix of the run covers all four,
    and every third point uses Milstein, so Euler holds the median.
    """

    name = "validate"

    def __init__(self, seed: int, sizes: ValidateSizes = VALIDATE_FULL) -> None:
        rng = random.Random(seed)
        self.sizes = sizes
        params = list(SWEEP_RANGES)
        self.points: list[tuple[montecarlo.McConfig, str, float]] = []
        for j in range(len(params) * sizes.points_per_param):
            param = params[j % len(params)]
            scheme = montecarlo.Scheme.MILSTEIN if j % 3 == 2 else montecarlo.Scheme.EULER
            cfg = montecarlo.McConfig(scheme=scheme, n_paths=sizes.paths, steps=sizes.mc_steps,
                                      seed=MC_SEED)
            self.points.append((cfg, param, rng.uniform(*SWEEP_RANGES[param])))
        self.scenarios = []
        for _ in range(sizes.scenarios):
            spot = rng.uniform(0.5, 3.0)
            ctr = rng.uniform(0.01, 0.05)
            self.scenarios.append(Scenario(
                sv=SvParams(spot_M0=spot, sigma0=rng.uniform(0.3, 0.9), kappa=rng.uniform(1.0, 6.0),
                            theta=rng.uniform(0.3, 1.0), delta=rng.uniform(0.1, 0.6)),
                mu=rng.uniform(-1.0, 1.0),
                supply=rng.randint(5_000, 12_000),
                seed=rng.randrange(2**31),
                ctr=ctr,
                budget=rng.uniform(2.0, 10.0),
                strike_cpc=contracts.per_click_value(spot, ctr) * rng.uniform(0.8, 1.2),
            ))

    def __len__(self) -> int:
        return len(self.points)

    def op(self, i: int) -> dict:
        cfg, param, value = self.points[i % len(self.points)]
        (row,) = montecarlo.containment_sweep(WIDE_SV, WIDE_CONTRACT, cfg, param, [value])
        return {"sweep": row, "market": self._market(self.scenarios[i % len(self.scenarios)])}

    def _market(self, s: Scenario) -> dict:
        days = market_sim.synthetic_market(s.sv, s.mu, self.sizes.days, s.supply, s.seed)
        series = diagnostics.PriceSeries.from_prices([s.sv.spot_M0] + [d.avg_cpm for d in days])
        verdict = diagnostics.gbm_test(series)
        gbm = diagnostics.estimate_gbm(series)
        sv = diagnostics.estimate_sv(series)
        fitness = diagnostics.fitness_comparison(series, n_instances=self.sizes.fitness_instances,
                                                 seed=s.seed)
        horizon = len(days)
        contract = OptionContract(strike=s.strike_cpc, expiry_T=horizon / 365.0, rate_r=0.05,
                                  steps_n=horizon, ctr=s.ctr)
        premium = gbm_lattice.closed_form_price(
            GbmParams(spot_M0=s.sv.spot_M0, sigma=gbm.sigma), contract)
        return {
            "verdict": verdict,
            "gbm": gbm,
            "sv": sv,
            "fitness": fitness,
            "premium": premium,
            "rtb": market_sim.simulate_rtb(s.budget, days, s.ctr),
            "options": market_sim.simulate_options(s.budget, days, s.ctr, premium, s.strike_cpc),
            "revenue": [market_sim.revenue_analysis(days, s.ctr, ratio, premium, s.strike_cpc)
                        for ratio in SELL_RATIOS],
        }

    def check(self, i: int, result: dict) -> list[str]:
        failures = []
        row = result["sweep"]
        if row.verdict.value != "contained":
            failures.append(f"{row.param}={row.value!r}: lattice {row.lattice_price!r} "
                            f"{row.verdict.value} [{row.ci_low!r}, {row.ci_high!r}]")
        market = result["market"]
        verdict = market["verdict"]
        for name in ("shapiro_p", "ljung_p"):
            p = getattr(verdict, name)
            if not 0.0 <= p <= 1.0:
                failures.append(f"{name} = {p!r} outside [0, 1]")
        gbm, sv, fit = market["gbm"], market["sv"], market["fitness"]
        estimates = {
            "gbm.sigma": gbm.sigma, "gbm.mu": gbm.mu, "sv.sigma0": sv.sigma0, "sv.kappa": sv.kappa,
            "sv.theta": sv.theta, "sv.delta": sv.delta, "fitness.gbm_raw": fit.gbm_raw,
            "fitness.sv_raw": fit.sv_raw, "premium": market["premium"],
            **{f"revenue[{k}].mean": r.mean_revenue for k, r in enumerate(market["revenue"])},
        }
        failures += [f"{name} = {v!r} is not finite" for name, v in estimates.items()
                     if not math.isfinite(v)]
        for ledger in ("rtb", "options"):
            for day in market[ledger].rows:
                outlay = day.premium_paid + day.spend
                if not outlay <= day.budget * (1.0 + 1e-12):
                    failures.append(f"{ledger} {day.day}: premium + spend {outlay!r} > budget {day.budget!r}")
                    break
        return failures
