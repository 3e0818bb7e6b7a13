"""End-to-end acceptance checks for the pricing engine.

One test per exit criterion; each prints a single PASS/FAIL line (run
with ``pytest -s`` to see them all). Tolerances are fixed here, not
calibrated elsewhere.
"""

import math
import subprocess
import sys
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from firstlook.contracts import GbmParams, OptionContract, SvParams
from firstlook.diagnostics import (
    PriceSeries,
    fitness_comparison,
    ljung_box,
    shapiro_wilk,
)
from firstlook.gbm_lattice import (
    LatticeMethod,
    MethodKind,
    binomial_price_sum,
    closed_form_price,
    complementary_binomial_price,
    lattice_price,
)
from firstlook.market_sim import revenue_analysis, simulate_options, simulate_rtb, synthetic_market
from firstlook.montecarlo import Containment, McConfig, Scheme, containment_sweep, mc_price, sample_paths
from firstlook.sv_lattice import build_censored_lattice, price_sv_option, walk_levels

IN_MONEY = dict(strike=0.005, expiry_T=31 / 365, rate_r=0.05, ctr=0.3)
OUT_MONEY = dict(strike=0.075, expiry_T=31 / 365, rate_r=0.05, ctr=0.3)
GBM = GbmParams(spot_M0=2.0, sigma=0.5)

SSP_SV = SvParams(spot_M0=0.7417, sigma0=0.8723, kappa=96.4953, theta=0.2959, delta=14.9874)
SSP_CONTRACT = OptionContract(strike=0.0223, expiry_T=0.0384, rate_r=0.05, steps_n=14, ctr=0.03)

WIDE_SV = SvParams(spot_M0=20.0, sigma0=0.5, kappa=3.0, theta=0.75, delta=0.35)
WIDE_CONTRACT = OptionContract(strike=0.633, expiry_T=31 / 365, rate_r=0.05, steps_n=200, ctr=0.03)


def contract(n, money=IN_MONEY):
    return OptionContract(steps_n=n, **money)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def rel_err(price, benchmark):
    return abs(price - benchmark) / abs(benchmark)


def test_criterion_1_convergence_in_the_money():
    benchmark = closed_form_price(GBM, contract(10))
    worst = 0.0
    for method in [LatticeMethod(k) for k in MethodKind]:
        err = rel_err(lattice_price(GBM, contract(1000), method), benchmark)
        worst = max(worst, err)
    fine_ok = True
    timing_ok = True
    for kind in (MethodKind.CRR, MethodKind.TIAN_TRIN):
        start = time.perf_counter()
        err = rel_err(lattice_price(GBM, contract(5000), LatticeMethod(kind)), benchmark)
        elapsed = time.perf_counter() - start
        fine_ok = fine_ok and err < 1e-3
        timing_ok = timing_ok and elapsed < 5.0
    ok = worst < 5e-3 and fine_ok and timing_ok
    report("1 (in the money)", ok, f"worst n=1000 rel err {worst:.2e}; n=5000 within 0.1%: {fine_ok}; <5s: {timing_ok}")
    assert worst < 5e-3
    assert fine_ok and timing_ok


def test_criterion_1_convergence_out_of_the_money():
    # the option is ~16.6 sigma out of the money: the continuous-limit
    # price is ~9.3e-66 and lattice tails cannot track a Gaussian tail
    # that deep in relative terms, so this check fails by construction
    # even though every method agrees with the benchmark to ~1e-65
    # absolutely; see the notes accompanying this build
    benchmark = closed_form_price(GBM, contract(10, OUT_MONEY))
    worst = 0.0
    worst_abs = 0.0
    for method in [LatticeMethod(k) for k in MethodKind]:
        price = lattice_price(GBM, contract(1000, OUT_MONEY), method)
        worst = max(worst, rel_err(price, benchmark))
        worst_abs = max(worst_abs, abs(price - benchmark))
    ok = worst < 5e-3
    report(
        "1 (out of the money)", ok,
        f"benchmark {benchmark:.3e}; worst n=1000 rel err {worst:.2e} (abs {worst_abs:.1e})",
    )
    assert worst < 5e-3


def test_criterion_2_trinomial_converges_faster():
    benchmark = closed_form_price(GBM, contract(10))
    err_tian = abs(lattice_price(GBM, contract(100), LatticeMethod(MethodKind.TIAN_TRIN)) - benchmark)
    err_crr = abs(lattice_price(GBM, contract(100), LatticeMethod(MethodKind.CRR)) - benchmark)
    ok = err_tian < err_crr
    report(2, ok, f"n=100 abs errors: tian-trin {err_tian:.2e} < crr {err_crr:.2e}")
    assert ok


def test_criterion_3_binomial_routes_agree():
    method = LatticeMethod(MethodKind.CRR)
    worst = 0.0
    for sigma in (0.2, 0.5, 0.9):
        for strike in (0.003, 0.0067, 0.012):
            for n in (13, 144, 500):
                c = OptionContract(strike=strike, expiry_T=31 / 365, rate_r=0.05, steps_n=n, ctr=0.3)
                p = GbmParams(spot_M0=2.0, sigma=sigma)
                direct = binomial_price_sum(p, c, method)
                tail = complementary_binomial_price(p, c, method)
                scale = max(abs(direct), abs(tail))
                gap = abs(tail - direct) / scale if scale > 0 else 0.0
                worst = max(worst, gap)
    ok = worst < 1e-10
    report(3, ok, f"worst relative gap across 27 configurations: {worst:.2e}")
    assert ok


def test_criterion_4_mass_conservation():
    def check(sv, c):
        levels = list(walk_levels(sv, c))
        dev = max(abs(math.fsum(q) - 1.0) for _, q, *_ in levels)
        for _, q, _, _, up, down in levels[:-1]:
            assert (up >= -1e-15).all() and (up <= q + 1e-15).all()
            assert np.allclose(up + down, q, atol=1e-15)
        return dev

    worst = check(SSP_SV, SSP_CONTRACT)
    rng = np.random.default_rng(20130214)
    for _ in range(50):
        sv = SvParams(
            spot_M0=float(rng.uniform(0.1, 30.0)),
            sigma0=float(rng.uniform(0.1, 1.5)),
            kappa=float(rng.uniform(0.0, 100.0)),
            theta=float(rng.uniform(0.0, 1.5)),
            delta=float(rng.uniform(0.0, 15.0)),
        )
        c = OptionContract(
            strike=float(rng.uniform(0.0, 0.1)),
            expiry_T=float(rng.uniform(0.01, 0.5)),
            rate_r=float(rng.uniform(0.0, 0.1)),
            steps_n=int(rng.integers(2, 100)),
            ctr=0.03,
        )
        worst = max(worst, check(sv, c))
    ok = worst < 1e-12
    report(4, ok, f"worst level-mass deviation over 51 lattices: {worst:.2e}")
    assert ok


def test_criterion_5_sv_price_below_constant_vol():
    sv_price = price_sv_option(build_censored_lattice(SSP_SV, SSP_CONTRACT)).price
    crr_price = binomial_price_sum(
        GbmParams(spot_M0=0.7417, sigma=0.8723), SSP_CONTRACT, LatticeMethod(MethodKind.CRR)
    )
    ok = sv_price < crr_price
    report(5, ok, f"sv {sv_price:.6f} < constant-vol {crr_price:.6f}")
    assert ok


def test_criterion_6_monte_carlo_containment():
    sweeps = {
        "sigma0": np.linspace(0.3, 0.7, 5),
        "kappa": np.linspace(1.0, 6.0, 5),
        "theta": np.linspace(0.4, 1.1, 5),
        "delta": np.linspace(0.1, 0.7, 5),
    }
    start = time.perf_counter()
    contained = total = 0
    for scheme in (Scheme.EULER, Scheme.MILSTEIN):
        cfg = McConfig(scheme=scheme, n_paths=100_000, steps=200, seed=42)
        for param, values in sweeps.items():
            for row in containment_sweep(WIDE_SV, WIDE_CONTRACT, cfg, param, list(values)):
                total += 1
                contained += row.verdict is Containment.CONTAINED
    elapsed = time.perf_counter() - start
    ok = contained >= math.ceil(0.95 * total) and elapsed < 300
    report(6, ok, f"contained {contained}/{total}; elapsed {elapsed:.0f}s")
    assert contained >= math.ceil(0.95 * total)
    assert elapsed < 300


def test_criterion_7_constant_vol_degeneracy():
    c = OptionContract(strike=0.005, expiry_T=31 / 365, rate_r=0.05, steps_n=500, ctr=0.3)
    sv = SvParams(spot_M0=2.0, sigma0=0.5, kappa=0.0, theta=0.5, delta=0.0)
    benchmark = closed_form_price(GbmParams(spot_M0=2.0, sigma=0.5), c)
    lattice = price_sv_option(build_censored_lattice(sv, c)).price
    lattice_ok = rel_err(lattice, benchmark) < 0.01
    mc = mc_price(sv, c, McConfig(scheme=Scheme.EULER, n_paths=100_000, steps=100, seed=42))
    mc_ok = mc.ci_low <= benchmark <= mc.ci_high
    ok = lattice_ok and mc_ok
    report(7, ok, f"lattice rel err {rel_err(lattice, benchmark):.2e}; interval contains benchmark: {mc_ok}")
    assert ok


def test_criterion_8_diagnostics_calibration():
    rng = np.random.default_rng(8)
    sw_rejects = sum(shapiro_wilk(rng.standard_normal(30))[1] < 0.05 for _ in range(2000))
    sw_rate = sw_rejects / 2000
    lb_rejects = sum(ljung_box(rng.standard_normal(100), 10)[1] < 0.05 for _ in range(2000))
    lb_rate = lb_rejects / 2000
    # 20-point sample with R-computed Shapiro-Wilk statistic 0.939984787
    r_sample = [
        -0.1184, -1.3403, 0.0063, -0.612, -0.3869, -0.2313, -2.8485, -0.2167,
        0.4153, 1.8492, -0.3706, 0.9726, -0.1501, -0.0337, -1.4423, 1.2489,
        0.9182, -0.2331, -0.6182, 0.183,
    ]
    w, _ = shapiro_wilk(r_sample)
    w_ok = abs(w - 0.939984787255526) < 1e-3
    ok = 0.03 <= sw_rate <= 0.07 and 0.03 <= lb_rate <= 0.07 and w_ok
    report(8, ok, f"rejection rates: shapiro {sw_rate:.3f}, ljung-box {lb_rate:.3f}; reference W ok: {w_ok}")
    assert 0.03 <= sw_rate <= 0.07
    assert 0.03 <= lb_rate <= 0.07
    assert w_ok


def test_criterion_9_sv_model_fits_better():
    # 600 instances per model squeeze simulation noise out of the
    # per-seed medians, leaving the fitted models' systematic difference
    wins_raw = wins_smoothed = 0
    n_seeds = 50
    for seed in range(n_seeds):
        truth = sample_paths(WIDE_SV, 0.05, 1 / 365, 150, 1, Scheme.EULER, seed=5000 + seed)[0]
        series = PriceSeries.from_prices(truth)
        cmp = fitness_comparison(series, n_instances=600, seed=seed)
        wins_raw += cmp.sv_raw < cmp.gbm_raw
        wins_smoothed += cmp.sv_smoothed < cmp.gbm_smoothed
    ok = wins_raw >= 0.6 * n_seeds and wins_smoothed >= 0.6 * n_seeds
    report(9, ok, f"sv wins raw {wins_raw}/{n_seeds}, smoothed {wins_smoothed}/{n_seeds}")
    assert wins_raw >= 0.6 * n_seeds
    assert wins_smoothed >= 0.6 * n_seeds


def test_criterion_10_market_simulation_directions():
    ctr, supply, budget, days, spot, sigma = 0.03, 8000, 5.0, 30, 1.0, 0.5
    flat = SvParams(spot_M0=spot, sigma0=sigma, kappa=0.0, theta=sigma, delta=0.0)

    def premium(strike):
        c = OptionContract(strike=strike, expiry_T=days / 365, rate_r=0.05, steps_n=days, ctr=ctr)
        return closed_form_price(GbmParams(spot_M0=spot, sigma=sigma), c)

    itm_strike, otm_strike = 0.03, 0.04
    p_itm, p_otm = premium(itm_strike), premium(otm_strike)
    n_seeds = 20
    bull_adv = bear_pub = bull_pub = 0
    for seed in range(n_seeds):
        bull = synthetic_market(flat, 3.0, days, supply, seed)
        bear = synthetic_market(flat, -3.0, days, supply, 1000 + seed)
        rtb = simulate_rtb(budget, bull, ctr)
        opt = simulate_options(budget, bull, ctr, p_itm, itm_strike)
        bull_adv += (opt.total_clicks >= rtb.total_clicks) and (
            opt.cost_per_click <= rtb.cost_per_click
        )
        bear_pub += (
            revenue_analysis(bear, ctr, 0.8, p_otm, otm_strike).mean_revenue
            > revenue_analysis(bear, ctr, 0.0, p_otm, otm_strike).mean_revenue
        )
        bull_pub += (
            revenue_analysis(bull, ctr, 0.2, p_itm, itm_strike).mean_revenue
            < revenue_analysis(bull, ctr, 0.0, p_itm, itm_strike).mean_revenue
        )
    ok = all(count >= 0.8 * n_seeds for count in (bull_adv, bear_pub, bull_pub))
    report(
        10, ok,
        f"bull delivery {bull_adv}/{n_seeds}, bear revenue {bear_pub}/{n_seeds}, "
        f"bull revenue drop {bull_pub}/{n_seeds}",
    )
    assert bull_adv >= 0.8 * n_seeds
    assert bear_pub >= 0.8 * n_seeds
    assert bull_pub >= 0.8 * n_seeds


def test_criterion_11_cli_determinism(tmp_path, child_env):
    market = tmp_path / "series.csv"
    rng = np.random.default_rng(23)
    prices = 2.0 * np.exp(np.cumsum(0.5 * math.sqrt(1 / 365) * rng.standard_normal(40)))
    start = date(2013, 1, 8)
    lines = ["date,price"] + [
        f"{(start + timedelta(days=i)).isoformat()},{p:.8f}" for i, p in enumerate(prices)
    ]
    market.write_text("\n".join(lines) + "\n")

    def commands(out_dir: Path):
        return [
            ["price", "--method", "mc-euler", "--spot", "20", "--strike", "0.633",
             "--expiry", str(31 / 365), "--steps", "50", "--sigma0", "0.5", "--kappa", "3",
             "--theta", "0.75", "--delta", "0.35", "--paths", "20000", "--seed", "42",
             "--output", str(out_dir / "price.json")],
            ["converge", "--spot", "2.0", "--strike", "0.005", "--ctr", "0.3",
             "--expiry", str(31 / 365), "--rate", "0.05", "--sigma", "0.5",
             "--n-values", "10,50", "--output", str(out_dir / "conv.csv")],
            ["diagnose", "--input", str(market), "--output-dir", str(out_dir / "diag")],
            ["validate", "--spot", "20", "--strike", "0.633", "--expiry", str(31 / 365),
             "--steps", "50", "--sigma0", "0.5", "--kappa", "3", "--theta", "0.75",
             "--delta", "0.35", "--param", "kappa", "--lo", "2", "--hi", "4",
             "--points", "2", "--paths", "20000", "--mc-steps", "50", "--seed", "42",
             "--output", str(out_dir / "sweep.csv")],
            ["simulate", "--scenario", "bull", "--days", "10", "--spot-cpm", "1.0",
             "--sigma", "0.5", "--supply", "8000", "--budget", "5.0", "--strike-cpc", "0.03",
             "--sell-ratio", "0.2", "--seed", "3", "--output-dir", str(out_dir / "sim")],
        ]

    outputs = []
    for run_id in (1, 2):
        out_dir = tmp_path / f"run{run_id}"
        out_dir.mkdir()
        (out_dir / "diag").mkdir()
        stdout_blobs = []
        for argv in commands(out_dir):
            proc = subprocess.run(
                [sys.executable, "-m", "firstlook.cli", *argv],
                capture_output=True, text=True, env=child_env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            stdout_blobs.append(proc.stdout)
        files = sorted(p.relative_to(out_dir) for p in out_dir.rglob("*") if p.is_file())
        blob = {str(f): (out_dir / f).read_bytes() for f in files}
        outputs.append((stdout_blobs, blob))

    same_stdout = outputs[0][0] == outputs[1][0]
    same_files = outputs[0][1].keys() == outputs[1][1].keys() and all(
        outputs[0][1][k] == outputs[1][1][k] for k in outputs[0][1]
    )
    ok = same_stdout and same_files
    report(11, ok, f"stdout identical: {same_stdout}; {len(outputs[0][1])} files identical: {same_files}")
    assert ok
