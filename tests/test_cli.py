import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from firstlook import cli, gbm_lattice, montecarlo, sv_lattice
from firstlook.cli import main

ITM_FLAGS = [
    "--spot", "2.0", "--strike", "0.005", "--ctr", "0.3",
    "--expiry", str(31 / 365), "--rate", "0.05",
]
SV_FLAGS = [
    "--spot", "0.7417", "--strike", "0.0223", "--ctr", "0.03",
    "--expiry", "0.0384", "--rate", "0.05", "--steps", "14",
    "--sigma0", "0.8723", "--kappa", "96.4953", "--theta", "0.2959", "--delta", "14.9874",
]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPrice:
    def test_closed_form_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            ["price", "--method", "closed", *ITM_FLAGS, "--sigma", "0.5",
             "--output", str(out_file)],
        )
        assert code == 0
        report = json.loads(out)
        # mpmath 40-digit benchmark for this configuration
        assert report["price"] == pytest.approx(0.0016949026752235633, rel=1e-9)
        assert report["method"] == "closed"
        assert report["inputs"]["spot"] == 2.0
        assert json.loads(out_file.read_text()) == report

    def test_sv_lattice_below_crr(self, capsys):
        code, out, _ = run(capsys, ["price", "--method", "sv-lattice", *SV_FLAGS])
        assert code == 0
        sv_price = json.loads(out)["price"]
        code, out, _ = run(
            capsys,
            ["price", "--method", "crr", "--spot", "0.7417", "--strike", "0.0223",
             "--ctr", "0.03", "--expiry", "0.0384", "--rate", "0.05", "--steps", "14",
             "--sigma", "0.8723"],
        )
        assert code == 0
        crr_price = json.loads(out)["price"]
        assert sv_price < crr_price

    def test_mc_report_carries_interval(self, capsys):
        code, out, _ = run(
            capsys,
            ["price", "--method", "mc-euler", "--spot", "20", "--strike", "0.633",
             "--expiry", str(31 / 365), "--steps", "50", "--sigma0", "0.5",
             "--kappa", "3", "--theta", "0.75", "--delta", "0.35",
             "--paths", "5000", "--seed", "9"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["ci_low"] <= report["price"] <= report["ci_high"]
        assert report["paths"] == 5000

    def test_unknown_method_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "nope.json"
        code, _, _ = run(
            capsys,
            ["price", "--method", "garbage", *ITM_FLAGS, "--sigma", "0.5",
             "--output", str(out_file)],
        )
        assert code == 2
        assert not out_file.exists()

    def test_missing_sigma_usage_error(self, capsys):
        code, _, err = run(capsys, ["price", "--method", "closed", *ITM_FLAGS])
        assert code == 2
        assert "--sigma" in err

    def test_missing_sv_params_usage_error(self, capsys):
        code, _, err = run(
            capsys, ["price", "--method", "sv-lattice", *ITM_FLAGS]
        )
        assert code == 2
        assert "sigma0" in err

    def test_computational_failure_exit_one(self, capsys):
        # coarse grid and huge rate break the CRR probability
        code, _, err = run(
            capsys,
            ["price", "--method", "crr", "--spot", "2.0", "--strike", "0.005",
             "--ctr", "0.3", "--expiry", "2.0", "--rate", "3.0", "--steps", "1",
             "--sigma", "0.05"],
        )
        assert code == 1
        assert "q1" in err

    @pytest.mark.parametrize(
        "method,steps",
        [
            ("crr", gbm_lattice.MAX_BINOMIAL_STEPS + 1),
            ("tian-trin", gbm_lattice.MAX_TRINOMIAL_STEPS + 1),
            ("sv-lattice", sv_lattice.MAX_SV_STEPS + 1),
        ],
    )
    def test_step_cap_exit_one(self, capsys, method, steps):
        argv = ["price", "--method", method, *SV_FLAGS, "--sigma", "0.8723"]
        argv[argv.index("--steps") + 1] = str(steps)
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "exceeds supported maximum" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["price", "--method", "mc-euler", *SV_FLAGS,
             "--paths", str(montecarlo.MAX_MC_PATHS + 1)],
            ["price", "--method", "mc-milstein", *SV_FLAGS, "--paths", "2000000",
             "--steps", "501"],
            ["validate", *SV_FLAGS, "--param", "kappa", "--lo", "2", "--hi", "4", "--points", "2",
             "--paths", "10000000", "--mc-steps", "101", "--output", "never-written.csv"],
        ],
    )
    def test_mc_cost_cap_exit_one(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        # the parser alone takes about 70 kB, so build it outside the trace
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "exceeds supported maximum" in err
        # refused before any path array is allocated
        assert peak < 64 * 1024
        assert not list(tmp_path.iterdir())

    def test_memory_error_exit_one(self, capsys, monkeypatch):
        def exhausted(*_args):
            raise MemoryError

        monkeypatch.setattr(gbm_lattice, "closed_form_price", exhausted)
        code, out, err = run(capsys, ["price", "--method", "closed", *ITM_FLAGS, "--sigma", "0.5"])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "out of memory" in err


class TestConverge:
    def test_full_method_grid(self, capsys, tmp_path):
        out = tmp_path / "conv.csv"
        code, _, _ = run(
            capsys,
            ["converge", *ITM_FLAGS, "--sigma", "0.5",
             "--n-values", "10,100,1000", "--output", str(out)],
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,n,price,abs_error"
        assert len(lines) == 19

    def test_tian_beats_crr_at_hundred(self, capsys, tmp_path):
        out = tmp_path / "conv.csv"
        code, _, _ = run(
            capsys,
            ["converge", *ITM_FLAGS, "--sigma", "0.5", "--methods", "crr,tian-trin",
             "--n-values", "100", "--output", str(out)],
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        errors = {r[0]: float(r[3]) for r in rows}
        assert errors["tian-trin"] < errors["crr"]

    def test_empty_methods_usage_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            ["converge", *ITM_FLAGS, "--sigma", "0.5", "--methods", ",",
             "--n-values", "10", "--output", str(tmp_path / "x.csv")],
        )
        assert code == 2


class TestDiagnose:
    def write_series(self, tmp_path, prices):
        lines = ["date,price"]
        from datetime import date, timedelta

        start = date(2013, 1, 8)
        for i, p in enumerate(prices):
            lines.append(f"{(start + timedelta(days=i)).isoformat()},{p}")
        path = tmp_path / "series.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def gbm_prices(self, n=60, seed=0):
        import numpy as np

        rng = np.random.default_rng(seed)
        inc = (0.1 - 0.125) / 365 + 0.5 * math.sqrt(1 / 365) * rng.standard_normal(n - 1)
        return list(2.0 * np.exp(np.concatenate([[0.0], np.cumsum(inc)])))

    def test_gbm_series_verdict_and_files(self, capsys, tmp_path):
        path = self.write_series(tmp_path, self.gbm_prices())
        out_dir = tmp_path / "out"
        code, out, _ = run(
            capsys, ["diagnose", "--input", str(path), "--output-dir", str(out_dir)]
        )
        assert code == 0
        verdict = json.loads((out_dir / "verdict.json").read_text())
        assert verdict["is_gbm"] is True
        assert (out_dir / "acf.csv").read_text().startswith("lag,value,band")
        assert (out_dir / "qq.csv").read_text().startswith("theoretical,sample")
        assert (out_dir / "hist.csv").read_text().startswith("bin_left,bin_right,count")

    def test_single_row_series_fails(self, capsys, tmp_path):
        path = self.write_series(tmp_path, [2.0])
        code, _, err = run(
            capsys, ["diagnose", "--input", str(path), "--output-dir", str(tmp_path / "o")]
        )
        assert code == 1
        assert "2 observations" in err

    def test_missing_input_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["diagnose", "--input", str(tmp_path / "none.csv"),
             "--output-dir", str(tmp_path / "o")],
        )
        assert code == 2
        assert "not found" in err

    def test_malformed_csv_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,price\n2013-01-08,1.0\nnot-a-date,2.0\n")
        code, _, err = run(
            capsys, ["diagnose", "--input", str(path), "--output-dir", str(tmp_path / "o")]
        )
        assert code == 1
        assert "line 3" in err


class TestValidate:
    BASE = [
        "--spot", "20", "--strike", "0.633", "--expiry", str(31 / 365),
        "--steps", "50", "--sigma0", "0.5", "--kappa", "3", "--theta", "0.75",
        "--delta", "0.35", "--paths", "20000", "--mc-steps", "50",
    ]

    def test_sweep_writes_rows_and_exits_zero_when_contained(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            ["validate", *self.BASE, "--param", "kappa", "--lo", "2", "--hi", "4",
             "--points", "3", "--output", str(out)],
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "param,value,lattice_price,mc_price,ci_low,ci_high,verdict"
        assert len(lines) == 4
        verdicts = [line.split(",")[-1] for line in lines[1:]]
        if all(v == "contained" for v in verdicts):
            assert code == 0
        else:
            assert code == 1

    def test_zero_points_usage_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            ["validate", *self.BASE, "--param", "kappa", "--lo", "2", "--hi", "4",
             "--points", "0", "--output", str(tmp_path / "s.csv")],
        )
        assert code == 2


class TestSimulate:
    BULL = [
        "simulate", "--scenario", "bull", "--days", "10", "--spot-cpm", "1.0",
        "--sigma", "0.5", "--supply", "8000", "--budget", "5.0",
        "--strike-cpc", "0.03", "--sell-ratio", "0.2", "--seed", "3",
    ]

    def test_synthetic_bull_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "sim"
        code, out, _ = run(capsys, [*self.BULL, "--output-dir", str(out_dir)])
        assert code == 0
        for name in ("rtb.csv", "options.csv", "revenue.csv"):
            assert (out_dir / name).exists()
        summary = json.loads(out)
        assert summary["option_price"] > 0

    def test_sell_ratio_zero_matches_pure_rtb_revenue(self, capsys, tmp_path):
        out_dir = tmp_path / "sim0"
        argv = [*self.BULL, "--output-dir", str(out_dir)]
        argv[argv.index("--sell-ratio") + 1] = "0.0"
        code, _, _ = run(capsys, argv)
        assert code == 0
        revenue_rows = (out_dir / "revenue.csv").read_text().strip().splitlines()[1:-1]
        rtb_rows = (out_dir / "rtb.csv").read_text().strip().splitlines()[1:-1]
        for rev, rtb in zip(revenue_rows, rtb_rows):
            total = float(rev.split(",")[-1])
            cpm, supply = float(rtb.split(",")[1]), int(rtb.split(",")[2])
            # both sides round-trip through 12-significant-digit CSV cells
            assert total == pytest.approx(supply * cpm / 1000, rel=1e-9)

    def test_market_file_run(self, capsys, tmp_path):
        lines = ["date,price"] + [f"2013-02-{8 + i:02d},{0.74 + 0.02 * i}" for i in range(7)]
        market = tmp_path / "market.csv"
        market.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "simm"
        code, _, _ = run(
            capsys,
            ["simulate", "--market", str(market), "--budget", "5.0",
             "--strike-cpc", "0.02", "--sigma", "0.5", "--supply", "8000",
             "--output-dir", str(out_dir)],
        )
        assert code == 0
        assert (out_dir / "options.csv").exists()

    def test_missing_market_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["simulate", "--market", str(tmp_path / "none.csv"), "--budget", "5",
             "--strike-cpc", "0.02", "--output-dir", str(tmp_path / "o")],
        )
        assert code == 2
        assert "not found" in err

    def test_config_file_defaults(self, capsys, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({
            "scenario": "bear", "days": 30, "spot_cpm": 1.0, "sigma": 0.5,
            "supply": 5000, "budget": 4.0, "strike_cpc": 0.04,
            "sell_ratio": 0.8, "seed": 11,
        }))
        out_dir = tmp_path / "simc"
        code, out, _ = run(
            capsys, ["simulate", "--config", str(config), "--output-dir", str(out_dir)]
        )
        assert code == 0
        assert json.loads(out)["bull_market"] is False

    def test_config_must_be_an_object(self, capsys, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text("[1, 2]")
        code, out, err = run(
            capsys, ["simulate", "--config", str(config), "--output-dir", str(tmp_path / "o")]
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "JSON object" in err

    @pytest.mark.parametrize("key", ["strke_cpc", "strike-cpc"])
    def test_config_unknown_key_rejected(self, capsys, tmp_path, key):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"scenario": "bull", "budget": 4.0, key: 0.04}))
        code, out, err = run(
            capsys, ["simulate", "--config", str(config), "--output-dir", str(tmp_path / "o")]
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and key in err

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--days", "200000"], "n_days = 200000 exceeds supported maximum 36500"),
            (["--days", "100", "--drift", "1e5"], "not finite from day 3 of 100"),
        ],
    )
    def test_runaway_path_exit_one(self, tmp_path, extra, message):
        # a fresh interpreter, so that a numpy RuntimeWarning would reach stderr
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out_dir = tmp_path / "sim"
        proc = subprocess.run(
            [sys.executable, "-m", "firstlook.cli", *self.BULL, *extra, "--output-dir", str(out_dir)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and message in proc.stderr
        assert not out_dir.exists()

    def test_scenario_or_market_required(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["simulate", "--budget", "5", "--strike-cpc", "0.02",
             "--output-dir", str(tmp_path / "o")],
        )
        assert code == 2
