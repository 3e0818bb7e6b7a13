"""Command-line front end tying the pricing engine together.

Exit codes: 0 success, 1 computational or validation failure, 2 usage
error. All randomness flows through --seed (fixed default, never the
clock), so repeated runs with identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import diagnostics, gbm_lattice, market_sim, montecarlo, sv_lattice
from .contracts import DAYS_PER_YEAR, SV_PARAMS, GbmParams, OptionContract, StrikeBasis, SvParams
from .output import json_dump, write_table

DEFAULT_SEED = 42
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

CLOSED_METHOD = "closed"
SV_METHOD = "sv-lattice"
MC_PREFIX = "mc-"
GBM_METHODS = tuple(kind.value for kind in gbm_lattice.MethodKind)
ALL_METHODS = (CLOSED_METHOD, *GBM_METHODS, SV_METHOD, *(MC_PREFIX + s.value for s in montecarlo.Scheme))


class UsageError(Exception):
    pass


def _add_contract_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spot", type=float, required=True, help="current CPM of the underlying")
    p.add_argument("--strike", type=float, required=True, help="strike price")
    p.add_argument(
        "--strike-basis",
        choices=[basis.value for basis in StrikeBasis],
        default=StrikeBasis.PER_CLICK.value,
        help="quote basis of the strike",
    )
    p.add_argument("--ctr", type=float, default=0.03, help="click-through rate")
    p.add_argument("--expiry", type=float, required=True, help="time to expiry in years")
    p.add_argument("--rate", type=float, default=0.05, help="continuous risk-free rate")
    p.add_argument("--steps", type=int, default=500, help="lattice steps")


def _add_sv_args(p: argparse.ArgumentParser) -> None:
    helps = ("initial volatility", "mean-reversion speed", "long-run volatility",
             "volatility of volatility")
    for name, text in zip(SV_PARAMS, helps):
        p.add_argument(f"--{name}", type=float, help=text)


def _contract(args: argparse.Namespace) -> OptionContract:
    return OptionContract(
        strike=args.strike,
        expiry_T=args.expiry,
        rate_r=args.rate,
        steps_n=args.steps,
        ctr=args.ctr,
        strike_basis=StrikeBasis(args.strike_basis),
    )


def _sv_params(args: argparse.Namespace) -> SvParams:
    missing = [name for name in SV_PARAMS if getattr(args, name) is None]
    if missing:
        raise UsageError(f"missing required SV parameters: {', '.join('--' + m for m in missing)}")
    return SvParams(spot_M0=args.spot, **{name: getattr(args, name) for name in SV_PARAMS})


def _lattice_method(name: str, stretch: float) -> gbm_lattice.LatticeMethod:
    """The named GBM lattice; an unknown name or a bad stretch is a usage error."""
    try:
        return gbm_lattice.LatticeMethod(gbm_lattice.MethodKind(name.strip()), stretch)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firstlook",
        description="Price first-look ad options and analyse ad markets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    price = sub.add_parser("price", help="price one contract with one method")
    price.add_argument("--method", choices=ALL_METHODS, required=True)
    _add_contract_args(price)
    price.add_argument("--sigma", type=float, help="constant annual volatility")
    _add_sv_args(price)
    price.add_argument("--paths", type=int, default=100_000, help="Monte Carlo paths")
    price.add_argument("--seed", type=int, default=DEFAULT_SEED)
    price.add_argument("--output", type=Path, help="also write the JSON report here")

    conv = sub.add_parser("converge", help="lattice convergence study against the closed form")
    _add_contract_args(conv)
    conv.add_argument("--sigma", type=float, required=True)
    conv.add_argument(
        "--methods",
        default=",".join(GBM_METHODS),
        help="comma-separated lattice methods",
    )
    conv.add_argument("--n-values", required=True, help="comma-separated ascending step counts")
    conv.add_argument("--output", type=Path, required=True, help="CSV destination")
    for p in (price, conv):
        p.add_argument(
            "--stretch", type=float, default=gbm_lattice.DEFAULT_STRETCH,
            help="grid stretch for the Boyle and Kamrad-Ritchken grids",
        )

    diag = sub.add_parser("diagnose", help="test a price series for the constant-vol assumption")
    diag.add_argument("--input", type=Path, required=True, help="date,price CSV")
    diag.add_argument("--alpha", type=float, default=0.05)
    diag.add_argument("--lags", type=int, help="Ljung-Box lag count")
    diag.add_argument("--window", type=int, default=7, help="realized-volatility window")
    diag.add_argument("--output-dir", type=Path, required=True)

    val = sub.add_parser("validate", help="check the SV lattice against Monte Carlo intervals")
    _add_contract_args(val)
    _add_sv_args(val)
    val.add_argument("--param", choices=SV_PARAMS, required=True)
    val.add_argument("--lo", type=float, required=True)
    val.add_argument("--hi", type=float, required=True)
    val.add_argument("--points", type=int, required=True)
    val.add_argument(
        "--scheme", choices=[s.value for s in montecarlo.Scheme], default=montecarlo.Scheme.EULER.value
    )
    val.add_argument("--paths", type=int, default=100_000)
    val.add_argument("--mc-steps", type=int, default=200)
    val.add_argument("--seed", type=int, default=DEFAULT_SEED)
    val.add_argument("--output", type=Path, required=True, help="CSV destination")

    sim = sub.add_parser("simulate", help="replay delivery and revenue under option selling")
    sim.add_argument("--config", type=Path, help="JSON scenario config; flags override it")
    sim.add_argument("--market", type=Path, help="date,price CSV of daily average prices")
    sim.add_argument("--scenario", choices=["bull", "bear"], help="synthetic market flavour")
    sim.add_argument("--days", type=int, default=30, help="synthetic market length")
    sim.add_argument("--spot-cpm", type=float, default=1.0, help="synthetic market starting CPM")
    sim.add_argument("--sigma", type=float, help="volatility for pricing and synthesis")
    sim.add_argument("--drift", type=float, help="annual drift of the synthetic market")
    sim.add_argument("--supply", type=int, default=8000, help="base daily impressions")
    sim.add_argument("--budget", type=float, help="advertiser daily budget")
    sim.add_argument("--strike-cpc", type=float, help="per-click strike")
    sim.add_argument("--ctr", type=float, default=0.03, help="click-through rate")
    sim.add_argument("--sell-ratio", type=float, default=0.2, help="fraction of supply pre-sold")
    sim.add_argument("--option-price", type=float, help="override the computed premium")
    sim.add_argument("--rate", type=float, default=0.05, help="risk-free rate for premium pricing")
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED, help="synthetic market seed")
    sim.add_argument("--output-dir", type=Path, required=True)

    return parser


def cmd_price(args: argparse.Namespace) -> int:
    contract = _contract(args)
    method = args.method
    inputs = {
        name: getattr(args, name.replace("-", "_"))
        for name in ("spot", "strike", "strike-basis", "ctr", "expiry", "rate", "steps")
    }
    report: dict = {"method": method, "inputs": inputs}

    if method == CLOSED_METHOD or method in GBM_METHODS:
        if args.sigma is None:
            raise UsageError("--sigma is required for constant-volatility methods")
        params = GbmParams(spot_M0=args.spot, sigma=args.sigma)
        inputs["sigma"] = args.sigma
        if method == CLOSED_METHOD:
            report["price"] = gbm_lattice.closed_form_price(params, contract)
        else:
            lm = _lattice_method(method, args.stretch)
            report["price"] = gbm_lattice.lattice_price(params, contract, lm)
    else:
        sv = _sv_params(args)
        inputs.update({name: getattr(sv, name) for name in SV_PARAMS})
        if method == SV_METHOD:
            lattice = sv_lattice.build_censored_lattice(sv, contract)
            report["price"] = sv_lattice.price_sv_option(lattice).price
        else:
            scheme = montecarlo.Scheme(method.removeprefix(MC_PREFIX))
            cfg = montecarlo.McConfig(
                scheme=scheme, n_paths=args.paths, steps=contract.steps_n, seed=args.seed
            )
            result = montecarlo.mc_price(sv, contract, cfg)
            report.update(
                price=result.price, std_error=result.std_error, ci_low=result.ci_low,
                ci_high=result.ci_high, paths=cfg.n_paths, seed=args.seed,
            )

    json_dump(report, args.output)
    return EXIT_OK


def cmd_converge(args: argparse.Namespace) -> int:
    methods = [_lattice_method(m, args.stretch) for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods must name at least one lattice method")
    try:
        n_values = [int(v) for v in args.n_values.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --n-values: {exc}") from None
    if not n_values:
        raise UsageError("--n-values must contain at least one step count")
    contract = _contract(args)
    params = GbmParams(spot_M0=args.spot, sigma=args.sigma)
    rows = gbm_lattice.convergence_report(params, contract, methods, n_values)
    with open(args.output, "w", newline="") as fh:
        gbm_lattice.report_to_csv(rows, fh)
    return EXIT_OK


def cmd_diagnose(args: argparse.Namespace) -> int:
    if not args.input.exists():
        raise UsageError(f"input file not found: {args.input}")
    series = diagnostics.PriceSeries.from_csv(args.input)
    verdict = diagnostics.gbm_test(series, alpha=args.alpha, lags=args.lags)
    payload: dict = {
        "observations": len(series), "alpha": args.alpha,
        **{f.name: getattr(verdict, f.name) for f in fields(verdict) if f.name != "acf"},
    }
    try:
        gbm = diagnostics.estimate_gbm(series)
        payload["gbm_estimate"] = {"sigma": gbm.sigma, "mu": gbm.mu}
    except ValueError:
        payload["gbm_estimate"] = None
    try:
        sv = diagnostics.estimate_sv(series, window=args.window)
        payload["sv_estimate"] = {name: getattr(sv, name) for name in SV_PARAMS}
    except ValueError:
        # a series too short for the window reports null; a window too narrow for any fails
        if args.window < diagnostics.MIN_SV_WINDOW:
            raise
        payload["sv_estimate"] = None

    ratios = diagnostics.log_ratios(series)
    ordered = np.sort(ratios)
    std = ordered.std(ddof=1)
    standardized = (ordered - ordered.mean()) / (std if std > 0 else 1.0)
    grid = (np.arange(1, ordered.size + 1) - 0.5) / ordered.size
    counts, edges = np.histogram(ratios, bins=10)
    tables = {
        "acf.csv": (["lag", "value", "band"], verdict.acf.rows()),
        "qq.csv": (["theoretical", "sample"], zip(diagnostics.normal_quantile(grid), standardized)),
        "hist.csv": (["bin_left", "bin_right", "count"], zip(edges[:-1], edges[1:], counts)),
    }
    out = args.output_dir
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        with open(out / name, "w", newline="") as fh:
            write_table(fh, header, rows)
    json_dump(payload, out / "verdict.json")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if args.points < 1:
        raise UsageError(f"--points must be >= 1, got {args.points}")
    contract = _contract(args)
    sv = _sv_params(args)
    cfg = montecarlo.McConfig(
        scheme=montecarlo.Scheme(args.scheme),
        n_paths=args.paths,
        steps=args.mc_steps,
        seed=args.seed,
    )
    montecarlo.check_sweep(cfg, args.points)
    values = np.linspace(args.lo, args.hi, args.points)
    rows = montecarlo.containment_sweep(sv, contract, cfg, args.param, list(values))
    with open(args.output, "w", newline="") as fh:
        montecarlo.sweep_to_csv(rows, fh)
    contained = all(r.verdict is montecarlo.Containment.CONTAINED for r in rows)
    for row in rows:
        print(f"{row.param}={row.value:.6g}: lattice={row.lattice_price:.6g} {row.verdict.value}")
    return EXIT_OK if contained else EXIT_FAILURE


def _config_argv(args: argparse.Namespace, argv: list[str]) -> list[str]:
    """``argv`` with the --config file's settings (keyed by flag destination) as
    flags right after the subcommand, so that argparse types and checks them
    and the explicit flags, parsed last, override them."""
    keys = set(vars(args)) - {"command", "config", "output_dir"}
    if not args.config.exists():
        raise UsageError(f"config file not found: {args.config}")
    try:
        config = json.loads(args.config.read_text())
    except ValueError as exc:
        raise UsageError(f"config {args.config} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise UsageError(f"config {args.config} must hold a JSON object")
    unknown = sorted(set(config) - keys)
    if unknown:
        raise UsageError(f"unknown config keys in {args.config}: {', '.join(unknown)}")
    for key, value in config.items():
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise UsageError(f"config {args.config}: {key} must be a JSON number or string")
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in config.items()]
    return [argv[0], *flags, *argv[1:]]


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.budget is None:
        raise UsageError("--budget is required (flag or config)")
    if args.strike_cpc is None:
        raise UsageError("--strike-cpc is required (flag or config)")

    sigma = args.sigma
    if args.market is not None:
        if not args.market.exists():
            raise UsageError(f"market file not found: {args.market}")
        series = diagnostics.PriceSeries.from_csv(args.market)
        spot = series.prices[0]
        if sigma is None:
            sigma = diagnostics.estimate_gbm(series).sigma
        days = [
            market_sim.MarketDay(day=d, avg_cpm=p, supply=args.supply)
            for d, p in zip(series.dates[1:], series.prices[1:])
        ]
    elif args.scenario is not None:
        spot = args.spot_cpm
        sigma = sigma if sigma is not None else 0.5
        drift = args.drift
        if drift is None:
            drift = 3.0 if args.scenario == "bull" else -3.0
        sv = GbmParams(spot_M0=spot, sigma=sigma).as_sv()
        days = market_sim.synthetic_market(sv, drift, args.days, args.supply, args.seed)
    else:
        raise UsageError("either --market or --scenario is required")

    option_price = args.option_price
    if option_price is None:
        contract = OptionContract(
            strike=args.strike_cpc,
            expiry_T=len(days) / DAYS_PER_YEAR,
            rate_r=args.rate,
            steps_n=max(len(days), 1),
            ctr=args.ctr,
        )
        option_price = gbm_lattice.closed_form_price(GbmParams(spot_M0=spot, sigma=sigma), contract)

    rtb = market_sim.simulate_rtb(args.budget, days, args.ctr)
    options = market_sim.simulate_options(args.budget, days, args.ctr, option_price, args.strike_cpc)
    revenue = market_sim.revenue_analysis(
        days, args.ctr, args.sell_ratio, option_price, args.strike_cpc
    )

    out = args.output_dir
    out.mkdir(parents=True, exist_ok=True)
    for name, write, result in (
        ("rtb.csv", market_sim.ledger_to_csv, rtb),
        ("options.csv", market_sim.ledger_to_csv, options),
        ("revenue.csv", market_sim.revenue_to_csv, revenue),
    ):
        with open(out / name, "w", newline="") as fh:
            write(result, fh)

    json_dump({
        "option_price": option_price,
        "bull_market": market_sim.is_bull(days, spot),
        "rtb_clicks": rtb.total_clicks,
        "option_clicks": options.total_clicks,
        "rtb_cost_per_click": rtb.cost_per_click if rtb.total_clicks else None,
        "option_cost_per_click": options.cost_per_click if options.total_clicks else None,
        "mean_revenue": revenue.mean_revenue,
        "std_revenue": revenue.std_revenue,
    })
    return EXIT_OK


_DISPATCH = {
    "price": cmd_price,
    "converge": cmd_converge,
    "diagnose": cmd_diagnose,
    "validate": cmd_validate,
    "simulate": cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            args = parser.parse_args(_config_argv(args, argv))
        return _DISPATCH[args.command](args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    except (UsageError, FileNotFoundError, montecarlo.PathCountError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OverflowError as exc:
        print(f"error: the inputs overflowed ({exc})", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError:
        print("error: out of memory; use fewer steps or paths", file=sys.stderr)
        return EXIT_FAILURE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
