"""Tests of the benchmark itself: every check can fail, every workload runs.

Run from the repository root:

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path[:0] = [str(PERFBENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from firstlook import montecarlo  # noqa: E402
from firstlook.contracts import OptionContract, SvParams  # noqa: E402


@pytest.fixture(scope="module")
def quote():
    wl = workloads.QuoteWorkload(7, workloads.QUOTE_TINY)
    i = next(k for k, q in enumerate(wl.book) if q.dump)
    return wl, i, wl.op(i)


def perturbed(result: dict, name: str, factor: float) -> dict:
    prices = dict(result["prices"], **{name: result["prices"][name] * factor})
    return dict(result, prices=prices)


def test_quote_smoke_passes_every_check(quote):
    wl, i, result = quote
    assert wl.check(i, result) == []
    assert result["dump_bytes"] > 0


@pytest.mark.parametrize("name", workloads.BINOMIAL_KINDS + workloads.TRINOMIAL_KINDS)
def test_quote_check_catches_a_perturbed_gbm_lattice(quote, name):
    wl, i, result = quote
    failures = wl.check(i, perturbed(result, name, 1.01))
    assert any(f.startswith(f"{name} ") and "closed form" in f for f in failures)


def test_quote_check_catches_diverging_binomial_routes(quote):
    wl, i, result = quote
    failures = wl.check(i, perturbed(result, "crr-complementary", 1 + 1e-9))
    assert any("binomial routes differ" in f for f in failures)


def test_quote_check_catches_an_sv_lattice_off_its_oracle(quote):
    wl, i, result = quote
    failures = wl.check(i, perturbed(result, "sv-lattice", 1.5))
    assert any("mean-path oracle" in f for f in failures)


def test_quote_check_catches_prices_outside_no_arbitrage_bounds(quote):
    wl, i, result = quote
    q = wl.book[i]
    spot = q.gbm.spot_M0 / (1000 * q.binomial.ctr)
    above = dict(result, mc=(1.5 * spot, 0.01 * spot, 1.48 * spot, 1.52 * spot))
    assert any("mc price" in f and "bounds" in f for f in wl.check(i, above))
    price, se, _, _ = result["mc"]
    outside = dict(result, mc=(price, se, price + se, price + 2 * se))
    assert any("outside its interval" in f for f in wl.check(i, outside))
    negative = dict(result, prices=dict(result["prices"], closed=-1e-3))
    assert any("closed" in f and "no-arbitrage" in f for f in wl.check(i, negative))


FAST_REVERSION = SvParams(spot_M0=2.0, sigma0=0.9, kappa=6.0, theta=0.2, delta=0.3)


def test_censoring_binds_where_the_lattice_leaves_its_oracle():
    from firstlook import sv_lattice

    contract = OptionContract(strike=0.006, expiry_T=0.25, rate_r=0.05, steps_n=50, ctr=0.3)
    slow = SvParams(spot_M0=2.0, sigma0=0.5, kappa=3.0, theta=0.75, delta=0.35)
    flat = SvParams(spot_M0=2.0, sigma0=0.5, kappa=0.0, theta=0.5, delta=0.0)
    assert not workloads.censoring_binds(slow, contract)
    assert not workloads.censoring_binds(flat, contract)
    assert workloads.censoring_binds(FAST_REVERSION, contract)
    spot = 2.0 / (1000 * 0.3)
    variance = workloads.mean_path_variance(FAST_REVERSION, contract)
    oracle = workloads.black_call(spot, 0.006, 0.05, 0.25, math.sqrt(variance / 0.25))
    price = sv_lattice.price_sv_option(sv_lattice.build_censored_lattice(FAST_REVERSION, contract)).price
    assert abs(price - oracle) > workloads.SV_TOL / 50 * spot * math.sqrt(variance)


def test_quote_check_holds_a_censored_lattice_to_bounds_only():
    wl = workloads.QuoteWorkload(7, workloads.QUOTE_TINY)
    q = wl.book[0]
    wl.book[0] = replace(q, sv=replace(FAST_REVERSION, spot_M0=q.sv.spot_M0),
                         binomial=replace(q.binomial, expiry_T=0.25),
                         trinomial=replace(q.trinomial, expiry_T=0.25),
                         sv_contract=replace(q.sv_contract, expiry_T=0.25, steps_n=50))
    assert workloads.censoring_binds(wl.book[0].sv, wl.book[0].sv_contract)
    result = wl.op(0)
    assert wl.check(0, perturbed(result, "sv-lattice", 1.05)) == []
    assert "sv_lattice.oracle_gap_max" not in wl.health(0, result)
    failures = wl.check(0, perturbed(result, "sv-lattice", 1e3))
    assert any(f.startswith("sv-lattice ") and "no-arbitrage" in f for f in failures)


def test_sv_oracle_is_the_closed_form_at_constant_volatility():
    sv = SvParams(spot_M0=2.0, sigma0=0.5, kappa=0.0, theta=0.5, delta=0.0)
    contract = OptionContract(strike=0.005, expiry_T=31 / 365, rate_r=0.05, steps_n=100, ctr=0.3)
    assert workloads.mean_path_variance(sv, contract) == pytest.approx(0.25 * 31 / 365, rel=1e-12)


@pytest.fixture(scope="module")
def validate():
    wl = workloads.ValidateWorkload(3, workloads.VALIDATE_TINY)
    return wl, wl.op(0)


def test_validate_smoke_passes_every_check(validate):
    wl, result = validate
    assert {param for _, param, _ in wl.points} == set(workloads.SWEEP_RANGES)
    row = result["sweep"]
    assert math.isfinite(row.lattice_price) and row.ci_low <= row.mc_price <= row.ci_high
    assert wl.check(0, result) == []
    assert len(result["market"]["revenue"]) == len(workloads.SELL_RATIOS)


def test_validate_check_catches_an_uncontained_point(validate):
    wl, result = validate
    for verdict in (montecarlo.Containment.ABOVE, montecarlo.Containment.BELOW):
        assert wl.check(0, dict(result, sweep=replace(result["sweep"], verdict=verdict)))


def test_validate_check_catches_bad_p_values_estimates_and_overspend(validate):
    wl, result = validate

    def with_market(**changes):
        return dict(result, market=dict(result["market"], **changes))

    market = result["market"]
    bad_p = with_market(verdict=replace(market["verdict"], ljung_p=1.5))
    assert any("ljung_p" in f for f in wl.check(0, bad_p))
    bad_fit = with_market(fitness=replace(market["fitness"], sv_raw=math.nan))
    assert any("fitness.sv_raw" in f for f in wl.check(0, bad_fit))
    assert any("premium" in f for f in wl.check(0, with_market(premium=math.inf)))
    ledger = market["options"]
    row = ledger.rows[0]
    over = replace(ledger, rows=(replace(row, spend=row.budget - row.premium_paid + 0.01),) + ledger.rows[1:])
    assert any("premium + spend" in f for f in wl.check(0, with_market(options=over)))


def test_validate_points_come_from_criterion_6_ranges():
    wl = workloads.ValidateWorkload(5)
    assert len(wl) >= 12
    for cfg, param, value in wl.points:
        lo, hi = workloads.SWEEP_RANGES[param]
        assert lo <= value <= hi
        assert (cfg.n_paths, cfg.steps, cfg.seed) == (100_000, 200, 42)
    schemes = [cfg.scheme for cfg, _, _ in wl.points]
    assert montecarlo.Scheme.MILSTEIN in schemes
    assert schemes.count(montecarlo.Scheme.EULER) > len(schemes) / 2


def test_tracer_records_nested_spans_and_restores_the_program():
    original = montecarlo.mc_price
    tracer = tracing.Tracer()
    wl = workloads.ValidateWorkload(3, workloads.VALIDATE_TINY)
    tracer.install()
    try:
        with tracer.root("op.validate"):
            wl.op(0)
    finally:
        tracer.uninstall()
    assert montecarlo.mc_price is original
    names = {s.name: s for s in tracer.spans}
    assert names["montecarlo.mc_price"].parent is names["montecarlo.containment_sweep"]
    assert names["montecarlo.build_censored_lattice"].parent is names["montecarlo.containment_sweep"]
    assert names["montecarlo.containment_sweep"].parent is names["op.validate"]
    assert tracer.aliases["diagnostics.montecarlo.sample_paths"] == "montecarlo.sample_paths"
    metrics, missing = tracing.layer_metrics(tracer, 1, {})
    assert [m[0] for m in tracing.PER_LAYER] == list(metrics)
    assert missing == []
    assert metrics["montecarlo.path_steps"]["value"] == 2_000 * 20
    assert metrics["montecarlo.sweep_s"]["value"] >= metrics["montecarlo.sweep_self_s"]["value"] > 0


def test_tracer_reports_a_missing_target_without_crashing(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + ("sv_lattice.no_such_pricer",))
    tracer = tracing.Tracer()
    assert tracer.missing == ["sv_lattice.no_such_pricer"]
    monkeypatch.setattr(tracing, "TARGETS", tuple(t for t in tracing.TARGETS if "lattice_to_csv" not in t))
    metrics, missing = tracing.layer_metrics(tracing.Tracer(), 1, {})
    assert set(missing) == {"sv_lattice.dump_s", "sv_lattice.dump_bytes"}
    assert metrics["sv_lattice.dump_s"]["value"] == 0


def test_binomial_useful_terms_match_the_in_the_money_nodes():
    from firstlook import gbm_lattice
    from firstlook.contracts import GbmParams, OptionContract

    params = GbmParams(spot_M0=2.0, sigma=0.5)
    contract = OptionContract(strike=0.0067, expiry_T=31 / 365, rate_r=0.05, steps_n=500, ctr=0.3)
    method = gbm_lattice.LatticeMethod(gbm_lattice.MethodKind.CRR)
    counts = tracing._binomial_counts({"params": params, "contract": contract, "method": method}, None)
    move = gbm_lattice.movement_params(method, 0.5, 0.05, contract.dt)
    spot = 2.0 / (1000 * 0.3)
    itm = sum(spot * move.u**j * move.d ** (500 - j) >= 0.0067 for j in range(501))
    assert counts == {"terms": 501, "useful": itm}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in tracing.PER_LAYER]
    fake = {"latencies_s": [0.1, 0.2], "timed_wall_s": 0.3, "peak_rss_mb": 1.0}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit, _) in run.end_to_end([1.0], fake).items()]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quote", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60, env={k: v for k, v in os.environ.items()
                                                      if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_prints_one_result_line():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--workload", "quote",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {"setup_s", "peak_rss_mb", "op_ms_p50", "op_ms_p90", "ops_per_s"}
