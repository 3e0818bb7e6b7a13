import argparse
import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from firstlook import cli, gbm_lattice, montecarlo, sv_lattice
from firstlook.cli import main
from firstlook.contracts import DAYS_PER_YEAR, SV_PARAMS, GbmParams, OptionContract
from firstlook.gbm_lattice import LatticeMethod, MethodKind
from induction_oracle import induction_price

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

    @pytest.mark.parametrize(
        "method,extra,message",
        [
            # coarse grid and huge rate break the CRR probability
            ("crr", ["--expiry", "2.0", "--rate", "3.0", "--steps", "1", "--sigma", "0.05"], "q1 = "),
            # so small a sigma rounds the moves onto each other
            *((m, ["--expiry", "0.085", "--sigma", "1e-300"], "the moves")
              for m in ("crr", "tian-bin", "haahtela", "boyle-trin", "tian-trin")),
            ("tian-trin", ["--expiry", "0.085", "--sigma", "1e-15"], "the moves"),
        ],
    )
    def test_computational_failure_exit_one(self, capsys, method, extra, message):
        code, out, err = run(
            capsys,
            ["price", "--method", method, "--spot", "2.0", "--strike", "0.005", "--ctr", "0.3", *extra],
        )
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith(f"error: invalid parameterization for {method}: {message}")

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
            # the sweep budget at the default 100k paths x 200 steps, and the point cap
            ["validate", *SV_FLAGS, "--param", "kappa", "--lo", "2", "--hi", "4",
             "--points", str(montecarlo.MAX_SWEEP_PATH_STEPS // (100_000 * 200) + 1),
             "--output", "never-written.csv"],
            ["validate", *SV_FLAGS, "--param", "kappa", "--lo", "2", "--hi", "4",
             "--points", str(10**12), "--paths", "4", "--mc-steps", "1", "--output", "never-written.csv"],
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["price", "--method", "mc-euler", *SV_FLAGS],
            ["validate", *SV_FLAGS, "--param", "kappa", "--lo", "2", "--hi", "4", "--points", "2",
             "--output", "never-written.csv"],
            ["simulate", "--scenario", "bull", "--budget", "5", "--strike-cpc", "0.03",
             "--output-dir", "never-written"],
        ],
        ids=["price", "validate", "simulate"],
    )
    def test_negative_seed_exit_one(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, [*argv, "--seed", "-1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err == "error: seed must be >= 0, got -1\n"
        # refused before the 100k-path state of price and validate exists
        assert peak < 64 * 1024
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["price", "--method", "mc-euler", *SV_FLAGS, "--paths", "3"],
            ["price", "--method", "mc-milstein", *SV_FLAGS, "--paths", "2"],
            ["validate", *SV_FLAGS, "--param", "kappa", "--lo", "2", "--hi", "4", "--points", "2",
             "--paths", "9999", "--mc-steps", "10", "--output", "never-written.csv"],
        ],
    )
    def test_unpaired_path_count_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "n_paths must be even and >= 4" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "sv_flags",
        [
            ["--sigma0", "1e-300", "--kappa", "0", "--theta", "0"],
            ["--sigma0", "1e150", "--kappa", "1", "--theta", "1e150"],
        ],
    )
    def test_sv_grid_index_overflow_exit_one(self, capsys, sv_flags):
        code, out, err = run(
            capsys,
            ["price", "--method", "sv-lattice", "--spot", "5", "--strike", "0.1",
             "--expiry", "0.1", "--steps", "50", "--delta", "0.1", *sv_flags],
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "grid index does not fit in int64 while building level 2" in err

    def test_sv_zero_volatility_exit_one(self, capsys):
        code, out, err = run(
            capsys,
            ["price", "--method", "sv-lattice", "--spot", "20", "--strike", "0.633",
             "--expiry", "0.085", "--steps", "20", "--sigma0", "0.5", "--kappa", "1e6",
             "--theta", "0", "--delta", "0.1"],
        )
        assert code == 1
        assert out == ""
        assert err == "error: grid index does not fit in int64 while building level 1, volatility 0.0\n"

    def test_memory_error_exit_one(self, capsys, monkeypatch):
        def exhausted(*_args):
            raise MemoryError

        monkeypatch.setattr(gbm_lattice, "closed_form_price", exhausted)
        code, out, err = run(capsys, ["price", "--method", "closed", *ITM_FLAGS, "--sigma", "0.5"])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "out of memory" in err

    @pytest.mark.parametrize(
        "method,extra",
        # overflows in trinomial_price's whole-horizon discount, movement_params' growth and
        # discount, then in the spot per click, 5 CPM at a CTR of 5e-324
        [("boyle-trin", ["--rate", "-800"]), ("crr", ["--rate", "800"]),
         ("closed", ["--rate", "-800"]), ("closed", ["--ctr", "5e-324"]),
         ("crr", ["--ctr", "5e-324"])],
        ids=["boyle-trin--800", "crr-800", "closed--800", "closed-ctr", "crr-ctr"],
    )
    def test_overflow_exit_one(self, capsys, method, extra):
        code, out, err = run(
            capsys,
            ["price", "--method", method, "--spot", "5", "--strike", "0.1", "--expiry", "1",
             "--steps", "1", "--sigma", "1", "--stretch", "100", *extra],
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "inputs overflowed" in err


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["crr", "tian-bin", "haahtela"])
    def test_binomial_sum_overflow_exit_one(self, capsys, method):
        # the top terminal node exceeds the float range; the sum would give NaN
        code, out, err = run(
            capsys,
            ["price", "--method", method, "--spot", "2", "--strike", "0.005", "--ctr", "0.3",
             "--expiry", "1", "--rate", "0.05", "--sigma", "20", "--steps", "4000"],
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "inputs overflowed" in err


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "method,extra,message",
        [
            # exp(1e6 * rate) overflows the terminal prices: the lattice refuses its top
            # node, and in Monte Carlo inf * 0 is NaN (without reversion, which steps
            # this long would make diverge)
            ("sv-lattice", ["--expiry", "1e6", "--rate", "1"],
             "the inputs overflowed (terminal value exp(757606) overflows a float)"),
            ("mc-euler", ["--expiry", "1e6", "--rate", "1e3", "--kappa", "0"],
             "the Monte Carlo price nan or its"),
            ("mc-euler", ["--spot", "1e308", "--ctr", "1"], "the Monte Carlo price inf or its"),
        ],
    )
    def test_non_finite_price_exit_one(self, capsys, method, extra, message):
        argv = ["price", "--method", method, "--spot", "5", "--strike", "0.1", "--expiry", "1",
                "--steps", "20", "--paths", "1000", "--sigma0", "0.5", "--kappa", "3",
                "--theta", "0.7", "--delta", "0.3", *extra]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith(f"error: {message}")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kappa,kappa_dt", [("200", "4.25"), ("1e8", "2125000.0")])
    def test_unstable_volatility_step_exit_one(self, capsys, kappa, kappa_dt):
        # 1 - kappa * dt <= -1 flips the volatility's sign every step: the paths
        # diverge to a finite, wrong price (0.146 and 0.0 here, against ~0.077)
        code, out, err = run(capsys, [
            "price", "--method", "mc-euler", "--spot", "20", "--strike", "0.633",
            "--expiry", "0.085", "--steps", "4", "--sigma0", "0.5", "--kappa", kappa,
            "--theta", "0.75", "--delta", "0.35", "--paths", "1000",
        ])
        assert (code, out) == (1, "")
        assert err == (f"error: kappa * dt = {kappa_dt} must be below 2 for a stable volatility "
                       "step; use more steps\n")

    def test_volatility_step_just_below_two_prices(self, capsys):
        # kappa * dt = 94 * 0.085 / 4 = 1.9975
        code, out, err = run(capsys, [
            "price", "--method", "mc-euler", "--spot", "20", "--strike", "0.633",
            "--expiry", "0.085", "--steps", "4", "--sigma0", "0.5", "--kappa", "94",
            "--theta", "0.75", "--delta", "0.35", "--paths", "1000",
        ])
        assert (code, err) == (0, "")
        assert math.isfinite(json.loads(out)["price"])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "extra",
        [
            ["--expiry", "1e10", "--sigma", "1e308"],
            ["--expiry", "0.08", "--sigma", "1e200"],
            ["--expiry", "1e300", "--rate", "0", "--sigma", "1e10"],
        ],
        ids=["inf-spread", "spread-1e200", "spread-1e160"],
    )
    def test_closed_form_at_unbounded_spread_is_the_spot(self, capsys, extra):
        # sigma^2 T overflows in all three and sigma sqrt(T) in the first; the
        # price is the limit, the spot: 2 CPM is 0.0066... per click at CTR 0.3
        code, out, err = run(capsys, [
            "price", "--method", "closed", "--spot", "2", "--strike", "0.005", "--ctr", "0.3",
            *extra,
        ])
        assert (code, err) == (0, "")
        assert json.loads(out)["price"] == 0.00666666666667

    @pytest.mark.filterwarnings("error")
    def test_top_cpm_pays_on_the_strike_basis(self, capsys):
        # 1e308 CPM is 1e305 per click: every lattice converts before exp, so none overflows
        prices = {}
        for method in ("closed", "crr", "sv-lattice"):
            code, out, err = run(capsys, [
                "price", "--method", method, "--spot", "1e308", "--ctr", "1", "--strike", "0.1",
                "--expiry", "1", "--steps", "20", "--sigma", "0.5", "--sigma0", "0.5",
                "--kappa", "3", "--theta", "0.7", "--delta", "0.3",
            ])
            assert (code, err) == (0, ""), method
            prices[method] = json.loads(out)["price"]
            assert math.isfinite(prices[method]), method
        assert prices["sv-lattice"] == pytest.approx(prices["closed"], rel=0.01)


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

    def test_overflow_row_recorded(self, capsys, tmp_path):
        out = tmp_path / "conv.csv"
        code, _, _ = run(
            capsys,
            ["converge", "--spot", "5", "--strike", "0.1", "--expiry", "1", "--rate", "800",
             "--sigma", "1", "--methods", "crr,tian-trin", "--n-values", "1,10,2000",
             "--output", str(out)],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,n,price,abs_error"
        assert lines[1] == "crr,1,nan,nan"
        assert len(lines) == 7

    def test_trinomial_overflow_rows_are_nan(self, capsys, tmp_path):
        # the tian-trin terminal grid overflows at n = 10 and 2000; those rows
        # are failures like crr's, not inf, and nothing warns
        out = tmp_path / "conv.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(
                capsys,
                ["converge", "--spot", "5", "--strike", "0.1", "--expiry", "1", "--rate", "800",
                 "--sigma", "1", "--methods", "crr,tian-trin", "--n-values", "1,10,2000",
                 "--output", str(out)],
            )
        assert (code, err) == (0, "")
        assert out.read_text().splitlines()[4:] == [
            "tian-trin,1,nan,nan", "tian-trin,10,nan,nan", "tian-trin,2000,nan,nan"]

    @pytest.mark.filterwarnings("error")
    def test_binomial_sum_overflow_rows_are_nan(self, capsys, tmp_path):
        out = tmp_path / "conv.csv"
        code, _, err = run(
            capsys,
            ["converge", "--spot", "2", "--strike", "0.005", "--ctr", "0.3", "--expiry", "1",
             "--sigma", "20", "--methods", "crr", "--n-values", "100,4000", "--output", str(out)],
        )
        assert (code, err) == (0, "")
        lines = out.read_text().splitlines()
        assert lines[1].startswith("crr,100,0.00666666666667,")
        assert lines[2:] == ["crr,4000,nan,nan"]

    def test_collapsed_moves_rows_are_nan(self, capsys, tmp_path):
        out = tmp_path / "conv.csv"
        code, _, err = run(
            capsys,
            ["converge", "--spot", "2", "--strike", "0.005", "--ctr", "0.3", "--expiry", "0.085",
             "--sigma", "1e-300", "--n-values", "10,20", "--output", str(out)],
        )
        assert (code, err) == (0, "")
        lines = out.read_text().splitlines()
        assert lines[0] == "method,n,price,abs_error"
        assert lines[1:] == [f"{m},{n},nan,nan" for m in cli.GBM_METHODS for n in (10, 20)]

    @pytest.mark.parametrize(
        "n_values,message",
        [
            ("10,x", "bad --n-values: invalid literal for int() with base 10: 'x'"),
            (",", "--n-values must contain at least one step count"),
        ],
    )
    def test_bad_n_values_usage_error(self, capsys, tmp_path, n_values, message):
        out = tmp_path / "conv.csv"
        code, stdout, err = run(capsys, [
            "converge", *ITM_FLAGS, "--sigma", "0.5", f"--n-values={n_values}",
            "--output", str(out),
        ])
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert not out.exists()

    def test_empty_methods_usage_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            ["converge", *ITM_FLAGS, "--sigma", "0.5", "--methods", ",",
             "--n-values", "10", "--output", str(tmp_path / "x.csv")],
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [["price", "--method", "kr-trin"], ["converge", "--methods", "kr-trin", "--n-values", "10"]],
        ids=["price", "converge"],
    )
    def test_bad_stretch_usage_error_from_both_commands(self, capsys, tmp_path, argv):
        out_file = tmp_path / "out"
        code, out, err = run(
            capsys,
            [*argv, *ITM_FLAGS, "--sigma", "0.5", "--stretch", "0.5", "--output", str(out_file)],
        )
        assert (code, out) == (2, "")
        assert err == "error: stretch_lambda must be >= 1 for kr-trin, got 0.5\n"
        assert not out_file.exists()

    def test_unit_stretch_prices_by_oracle(self, capsys):
        # --stretch 1 zeroes kr-trin's middle probability, so every other node carries no mass
        code, out, err = run(
            capsys,
            ["price", "--method", "kr-trin", "--stretch", "1", *ITM_FLAGS, "--sigma", "0.5",
             "--steps", "100"],
        )
        assert (code, err) == (0, "")
        c = OptionContract(strike=0.005, expiry_T=31 / 365, rate_r=0.05, steps_n=100, ctr=0.3)
        expected = induction_price(GbmParams(2.0, 0.5), c, LatticeMethod(MethodKind.KR_TRIN, 1.0))
        assert json.loads(out)["price"] == pytest.approx(expected, rel=1e-10)


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

    def test_doubling_series_refused_before_writing(self, capsys, tmp_path):
        # its log ratios differ only by rounding: too narrow to test or to histogram
        path = self.write_series(tmp_path, [2.0**i for i in range(6)])
        out_dir = tmp_path / "o"
        code, out, err = run(
            capsys, ["diagnose", "--input", str(path), "--output-dir", str(out_dir)]
        )
        assert (code, out) == (1, "")
        assert err == "error: degenerate input: sample is constant\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("lags", [0, -2])
    def test_given_lags_reach_ljung_box(self, capsys, tmp_path, lags):
        # only a defaulted lag count blames the series length
        path = self.write_series(tmp_path, self.gbm_prices(n=40))
        code, out, err = run(
            capsys,
            ["diagnose", "--input", str(path), "--lags", str(lags),
             "--output-dir", str(tmp_path / "o")],
        )
        assert (code, out) == (1, "")
        assert err == f"error: lags must be >= 1, got {lags}\n"

    @pytest.mark.parametrize("window", [0, 1, 4])
    def test_window_below_minimum_fails_before_writing(self, capsys, tmp_path, window):
        path = self.write_series(tmp_path, self.gbm_prices())
        out_dir = tmp_path / "o"
        code, out, err = run(
            capsys,
            ["diagnose", "--input", str(path), "--window", str(window),
             "--output-dir", str(out_dir)],
        )
        assert (code, out) == (1, "")
        assert err == f"error: window must be >= 5, got {window}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("window,estimated", [(5, True), (25, False)])
    def test_valid_window_estimates_or_reports_null(self, capsys, tmp_path, window, estimated):
        # 60 prices fit a window of 5 but are too short for one of 25
        path = self.write_series(tmp_path, self.gbm_prices())
        out_dir = tmp_path / "o"
        code, _, _ = run(
            capsys,
            ["diagnose", "--input", str(path), "--window", str(window),
             "--output-dir", str(out_dir)],
        )
        assert code == 0
        estimate = json.loads((out_dir / "verdict.json").read_text())["sv_estimate"]
        assert (estimate is not None) == estimated
        if estimated:
            assert tuple(estimate) == SV_PARAMS

    def test_eight_prices_estimate_neither_model(self, capsys, tmp_path):
        # 7 ratios test, but the GBM estimate needs 10 prices and the SV one 21
        path = self.write_series(tmp_path, self.gbm_prices(n=8))
        out_dir = tmp_path / "o"
        code, out, err = run(capsys, ["diagnose", "--input", str(path), "--output-dir", str(out_dir)])
        assert (code, err) == (0, "")
        verdict = json.loads(out)
        assert (verdict["observations"], verdict["gbm_estimate"], verdict["sv_estimate"]) == (
            8, None, None
        )

    def test_flat_first_window_reports_no_sv_estimate(self, capsys, tmp_path):
        # seven unchanged prices open the series: the first realized volatility is 0
        path = self.write_series(tmp_path, [2.0] * 7 + self.gbm_prices(n=53))
        out_dir = tmp_path / "o"
        code, out, err = run(capsys, ["diagnose", "--input", str(path), "--output-dir", str(out_dir)])
        assert (code, err) == (0, "")
        verdict = json.loads(out)
        assert verdict["sv_estimate"] is None
        assert set(verdict["gbm_estimate"]) == {"sigma", "mu"}

    def test_default_lags_need_five_ratios(self, capsys, tmp_path):
        path = self.write_series(tmp_path, self.gbm_prices(n=5))
        code, _, err = run(
            capsys, ["diagnose", "--input", str(path), "--output-dir", str(tmp_path / "o")]
        )
        assert code == 1
        assert err == "error: series too short for the independence test (n = 4)\n"

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

    def test_negative_seed_refused_before_any_lattice(self, capsys, monkeypatch, tmp_path):
        def never(*args):
            raise AssertionError("an SV lattice was built for a sweep with a negative seed")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(montecarlo, "build_censored_lattice", never)
        argv = ["validate", *SV_FLAGS, "--steps", "3000", "--param", "kappa", "--lo", "2",
                "--hi", "4", "--points", "40", "--output", "never-written.csv", "--seed", "-1"]
        assert run(capsys, argv) == (1, "", "error: seed must be >= 0, got -1\n")

    def test_unstable_volatility_step_refused_before_any_lattice(self, capsys, monkeypatch, tmp_path):
        def never(*args):
            raise AssertionError("an SV lattice was built for a sweep with kappa * dt >= 2")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(montecarlo, "build_censored_lattice", never)
        # kappa * dt reaches 200 * 0.085 / 4 = 4.25
        argv = ["validate", "--spot", "20", "--strike", "0.633", "--expiry", "0.085",
                "--steps", "3000", "--sigma0", "0.5", "--kappa", "3", "--theta", "0.75",
                "--delta", "0.35", "--param", "kappa", "--lo", "100", "--hi", "200",
                "--points", "20", "--paths", "4", "--mc-steps", "4",
                "--output", "never-written.csv"]
        assert run(capsys, argv) == (1, "", "error: kappa * dt = 4.25 must be below 2 for a stable "
                                            "volatility step; use more steps\n")
        assert not (tmp_path / "never-written.csv").exists()

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

    @pytest.mark.filterwarnings("error")
    def test_non_finite_prices_fail_the_sweep(self, capsys, tmp_path):
        # the SV lattice's top terminal node overflows a float here; kappa 0
        # passes the Monte Carlo step's stability check at dt = 1e5
        out = tmp_path / "v.csv"
        code, stdout, err = run(capsys, [
            "validate", "--spot", "5", "--strike", "0.1", "--expiry", "1e6", "--rate", "1",
            "--steps", "20", "--sigma0", "0.5", "--kappa", "0", "--theta", "0.7", "--delta", "0.3",
            "--param", "delta", "--lo", "0.2", "--hi", "0.3", "--points", "2", "--paths", "1000",
            "--mc-steps", "10", "--output", str(out),
        ])
        assert (code, stdout) == (1, "")
        assert err == "error: the inputs overflowed (terminal value exp(876572) overflows a float)\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lo,hi", [("inf", "4"), ("2", "nan"), ("-1e308", "1e308")])
    def test_non_finite_bounds_usage_error(self, capsys, tmp_path, lo, hi):
        out = tmp_path / "s.csv"
        code, stdout, err = run(capsys, [
            "validate", *self.BASE, "--param", "kappa", f"--lo={lo}", f"--hi={hi}",
            "--points", "2", "--output", str(out),
        ])
        assert (code, stdout) == (2, "")
        assert err.count("\n") == 1 and "must be finite" in err
        assert not out.exists()

    def test_zero_width_interval_contains_the_same_price(self, capsys, tmp_path):
        # at expiry 1e-308 every path pays the forward: the interval is one point,
        # and the lattice price sits 2 ulps from it
        out = tmp_path / "sweep.csv"
        code, stdout, err = run(capsys, [
            "validate", "--spot", "20", "--strike", "0.633", "--expiry", "1e-308", "--steps", "8",
            "--sigma0", "0.5", "--kappa", "3", "--theta", "0.75", "--delta", "0.35",
            "--param", "kappa", "--lo", "2", "--hi", "4", "--points", "2", "--paths", "100",
            "--mc-steps", "4", "--output", str(out),
        ])
        assert (code, err) == (0, "")
        assert stdout.count(" contained\n") == 2
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(row[4] == row[5], row[-1]) for row in rows] == [(True, "contained")] * 2

    def test_param_choices_are_the_sv_parameters(self):
        commands = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        param = next(a for a in commands.choices["validate"]._actions if a.dest == "param")
        assert tuple(param.choices) == SV_PARAMS

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

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--scenario", "bull", "--strike-cpc", "0.03"], "--budget is required (flag or config)"),
            (["--scenario", "bull", "--budget", "5"], "--strike-cpc is required (flag or config)"),
            (["--config", "missing.json"], "config file not found: missing.json"),
        ],
        ids=["no-budget", "no-strike", "no-config-file"],
    )
    def test_missing_setting_usage_error(self, capsys, monkeypatch, tmp_path, argv, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, ["simulate", *argv, "--output-dir", "sim"])
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "sim").exists()

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

    def test_malformed_config_usage_error(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("{")
        code, out, err = run(
            capsys, ["simulate", "--config", str(config), "--output-dir", str(tmp_path / "o")]
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith(f"error: config {config} is not valid JSON: Expecting property name")
        assert not (tmp_path / "o").exists()

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

    def test_flag_overrides_config(self, capsys, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"scenario": "bull", "budget": 5.0, "seed": 11}))
        from_file = run(capsys, ["simulate", "--config", str(config), "--strike-cpc", "0.03",
                                 "--seed", "3", "--output-dir", str(tmp_path / "a")])
        from_flags = run(capsys, ["simulate", "--scenario", "bull", "--budget", "5.0",
                                  "--strike-cpc", "0.03", "--seed", "3",
                                  "--output-dir", str(tmp_path / "b")])
        assert from_file[0] == 0 and from_file == from_flags
        for name in ("rtb.csv", "options.csv", "revenue.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize(
        "setting,flags",
        [
            ({"ctr": None}, None),
            ({"budget": True}, None),
            ({"days": [30]}, None),
            ({"days": {"n": 30}}, None),
            ({"scenario": "sideways"}, ["--scenario", "sideways"]),
            ({"days": 30.5}, ["--days", "30.5"]),
        ],
        ids=["null", "boolean", "list", "object", "bad-choice", "fractional-int"],
    )
    def test_config_value_refused_like_its_flag(self, capsys, tmp_path, setting, flags):
        # a file value is typed and checked as the same flag; a non-scalar names the key
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"scenario": "bull", "budget": 5, "strike_cpc": 0.03, **setting}))
        out_dir = tmp_path / "o"
        code, out, err = run(capsys, ["simulate", "--config", str(config), "--output-dir", str(out_dir)])
        assert (code, out) == (2, "")
        assert not out_dir.exists()
        if flags is None:
            assert err.count("\n") == 1
            assert err.startswith(f"error: config {config}: {next(iter(setting))} must be")
        else:
            argv = ["simulate", "--scenario", "bull", "--budget", "5", "--strike-cpc", "0.03", *flags]
            assert run(capsys, [*argv, "--output-dir", str(out_dir)]) == (code, out, err)

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--days", "200000"], "n_days = 200000 exceeds supported maximum 36500"),
            (["--days", "100", "--drift", "1e5"], "not finite from day 3 of 100"),
            # every day's revenue is finite at 1.44e308, their sum is not
            (["--days", "30", "--option-price", "3e306"],
             "the mean revenue inf or its spread inf is not finite"),
        ],
    )
    def test_runaway_path_exit_one(self, tmp_path, child_env, extra, message):
        # a fresh interpreter, so that a numpy RuntimeWarning would reach stderr
        out_dir = tmp_path / "sim"
        proc = subprocess.run(
            [sys.executable, "-m", "firstlook.cli", *self.BULL, *extra, "--output-dir", str(out_dir)],
            capture_output=True, text=True, env=child_env, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and message in proc.stderr
        assert not out_dir.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--days", "3000", "--drift", "1e5", "--sigma", "30000"], "price path is zero from day 1 of 3000"),
            (["--budget", "inf"], "budget_per_day must be finite, got inf"),
            (["--budget", "nan"], "budget_per_day must be finite, got nan"),
            (["--option-price", "inf"], "option_price must be finite, got inf"),
            (["--option-price", "nan"], "option_price must be finite, got nan"),
            (["--option-price", "0.01", "--strike-cpc", "inf"], "strike_cpc must be finite, got inf"),
            (["--sigma", "-1"], "error: sigma must be >= 0, got -1.0"),
            (["--option-price", "1e308"], "the revenue of 2013-02-08 must be finite, got inf"),
            (["--spot-cpm", "1e308"], "the revenue of 2013-02-08 must be finite, got inf"),
            (["--days", "0"], "error: n_days must be >= 1, got 0"),
            (["--supply", "0"], "error: base_supply must be >= 1, got 0"),
        ],
        ids=["underflow", "budget-inf", "budget-nan", "premium-inf", "premium-nan", "strike-inf",
             "sigma-negative", "premium-overflow", "spot-overflow", "no-days", "no-supply"],
    )
    def test_bad_input_one_line_exit_one(self, capsys, tmp_path, extra, message):
        out_dir = tmp_path / "sim"
        code, out, err = run(capsys, [*self.BULL, *extra, "--output-dir", str(out_dir)])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and message in err
        assert not out_dir.exists()

    def test_zero_sigma_prices_the_deterministic_market(self, capsys, tmp_path):
        argv = [*self.BULL, "--output-dir", str(tmp_path / "sim")]
        argv[argv.index("--sigma") + 1] = "0"
        code, out, _ = run(capsys, argv)
        assert code == 0
        contract = OptionContract(
            strike=0.03, expiry_T=10 / DAYS_PER_YEAR, rate_r=0.05, steps_n=10, ctr=0.03
        )
        expected = gbm_lattice.closed_form_price(GbmParams(spot_M0=1.0, sigma=0.0), contract)
        assert expected > 0
        assert json.loads(out)["option_price"] == pytest.approx(expected, rel=1e-11, abs=0)

    def test_scenario_or_market_required(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["simulate", "--budget", "5", "--strike-cpc", "0.02",
             "--output-dir", str(tmp_path / "o")],
        )
        assert code == 2


def _no_constant(name):
    raise ValueError(f"non-finite JSON value {name}")


class TestExtremeValues:
    """Each float flag of each command at the edges of the float range.

    Every case ends in exit 0, 1 or 2 and raises nothing, a numpy warning
    included. Exit 1 or 2 prints one stderr line (an argparse usage block
    aside, and ``validate``'s verdict exit 1 has its rows on stdout and no
    stderr); exit 0 prints no stderr and finite JSON.
    """

    VALUES = ["0", "-1", "nan", "inf", "-inf", "1e308", "1e-308", "5e-324"]
    CONTRACT = ["--spot", "--strike", "--ctr", "--expiry", "--rate"]
    GBM = ["--spot", "20", "--strike", "0.633", "--expiry", "0.085", "--steps", "8", "--sigma", "0.5"]
    SV = ["--spot", "20", "--strike", "0.633", "--expiry", "0.085", "--steps", "8",
          "--sigma0", "0.5", "--kappa", "3", "--theta", "0.75", "--delta", "0.35"]
    SV_FLOATS = [*CONTRACT, *(f"--{name}" for name in SV_PARAMS)]
    SIM = ["--budget", "5", "--strike-cpc", "0.03", "--days", "5", "--supply", "800",
           "--output-dir", "{tmp}/sim"]
    SIM_FLOATS = ["--spot-cpm", "--sigma", "--drift", "--budget", "--strike-cpc", "--ctr",
                  "--sell-ratio", "--option-price", "--rate"]
    BASES = {
        "price-closed": (["price", "--method", "closed", *GBM], [*CONTRACT, "--sigma"]),
        "price-crr": (["price", "--method", "crr", *GBM], [*CONTRACT, "--sigma"]),
        "price-boyle-trin": (["price", "--method", "boyle-trin", *GBM],
                             [*CONTRACT, "--sigma", "--stretch"]),
        "price-sv-lattice": (["price", "--method", "sv-lattice", *SV], SV_FLOATS),
        "price-mc-euler": (["price", "--method", "mc-euler", *SV, "--paths", "100"], SV_FLOATS),
        "converge": (["converge", *GBM, "--n-values", "4,8", "--output", "{tmp}/conv.csv"],
                     [*CONTRACT, "--sigma", "--stretch"]),
        "diagnose": (["diagnose", "--input", "{tmp}/series.csv", "--output-dir", "{tmp}/diag"],
                     ["--alpha"]),
        "validate": (["validate", *SV, "--param", "kappa", "--lo", "2", "--hi", "4", "--points",
                      "2", "--paths", "100", "--mc-steps", "4", "--output", "{tmp}/sweep.csv"],
                     [*SV_FLOATS, "--lo", "--hi"]),
        "simulate-scenario": (["simulate", "--scenario", "bull", *SIM], SIM_FLOATS),
        "simulate-market": (["simulate", "--market", "{tmp}/series.csv", *SIM], SIM_FLOATS),
    }

    @staticmethod
    def fault(command, code, out, err):
        if code == 0:
            if err:
                return f"exit 0 with stderr {err!r}"
            if out.startswith("{"):
                try:
                    json.loads(out, parse_constant=_no_constant)
                except ValueError as exc:
                    return str(exc)
        elif code in (1, 2):
            if err.startswith("usage:"):
                return None
            if command == "validate" and code == 1 and not err and out.count("\n") == 2:
                return None
            if err.count("\n") != 1:
                return f"exit {code} with stderr {err!r}"
        else:
            return f"exit {code}"
        return None

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(BASES))
    def test_exit_code_and_one_line(self, capsys, monkeypatch, tmp_path, name):
        # building the parser costs more than most of these runs, so build it once
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        (tmp_path / "series.csv").write_text("date,price\n" + "".join(
            f"2013-01-{1 + i:02d},{1 + 0.1 * (i % 3) + 0.01 * i}\n" for i in range(20)))
        base, flags = self.BASES[name]
        base = [a.replace("{tmp}", str(tmp_path)) for a in base]
        faults = []
        for flag in flags:
            for value in self.VALUES:
                argv = list(base)
                if flag in argv:
                    del argv[argv.index(flag):argv.index(flag) + 2]
                argv.append(f"{flag}={value}")  # "=": argparse reads "-inf" as a flag
                try:
                    fault = self.fault(argv[0], *run(capsys, argv))
                except Exception as exc:
                    capsys.readouterr()
                    fault = f"raised {exc!r}"
                if fault:
                    faults.append(f"{flag}={value}: {fault}")
        assert faults == []

    @pytest.mark.parametrize("command", [
        ["price", "--method", "closed"],
        ["converge", "--n-values", "4,8", "--output", "{tmp}/conv.csv"],
    ], ids=["price-closed", "converge"])
    def test_spot_strike_ratio_that_underflows(self, capsys, tmp_path, command):
        # S / K' is 0 in floats, so ln of it is -inf and the call pays nothing;
        # converge prices the closed form as its benchmark
        argv = [a.replace("{tmp}", str(tmp_path)) for a in command] + [
            "--spot", "1e-300", "--strike", "1e300", "--strike-basis", "per-mille",
            "--expiry", "1", "--sigma", "0.5"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        if command[0] == "price":
            assert json.loads(out)["price"] == 0.0
        else:
            rows = (tmp_path / "conv.csv").read_text().splitlines()[1:]
            assert rows and all(row.endswith(",0,0") for row in rows)


class TestFrozenOutputs:
    """SHA-256 of each command's exit code, stdout, stderr and output files.

    Captured from numpy 2.4 on x86-64 before the CSV and JSON writers were
    folded into ``firstlook.output``; a refactor must leave every byte as is.
    The two ``diagnose`` digests were re-pinned when its tables moved from LF
    to CRLF line endings, and again when ``shapiro_wilk`` left scipy.stats for
    a numpy port, which moved ``shapiro_w`` and ``shapiro_p`` by under 1e-9
    relative and nothing else. The four Monte Carlo digests (``c11-price``, ``c11-validate`` and
    ``price-mc-*``) were re-pinned when ``mc_price`` moved to antithetic pairs.
    ``c11-converge`` and ``converge-failing-rows`` were re-pinned when the
    binomial weights left log-gamma for Loader's saddle point: four
    ``abs_error`` cells moved in their last digits, each toward the exact
    lattice sum, and no price cell moved. They were re-pinned again when
    the Boyle probabilities and the Tian binomial and Haahtela moves were
    written in expm1 terms: only ``abs_error`` cells of those three methods
    moved, in their last digits.
    """

    MARKET_FLAGS = ["--input", "{in}/series.csv", "--output-dir", "{out}/diag"]
    SIM_FLAGS = [
        "simulate", "--scenario", "bull", "--days", "10", "--spot-cpm", "1.0",
        "--sigma", "0.5", "--supply", "8000", "--budget", "5.0", "--strike-cpc", "0.03",
        "--sell-ratio", "0.2", "--seed", "3", "--output-dir", "{out}/sim",
    ]
    COMMANDS = {
        "c11-price": [
            "price", "--method", "mc-euler", "--spot", "20", "--strike", "0.633",
            "--expiry", str(31 / 365), "--steps", "50", "--sigma0", "0.5", "--kappa", "3",
            "--theta", "0.75", "--delta", "0.35", "--paths", "20000", "--seed", "42",
            "--output", "{out}/price.json",
        ],
        "c11-converge": [
            "converge", *ITM_FLAGS, "--sigma", "0.5", "--n-values", "10,50",
            "--output", "{out}/conv.csv",
        ],
        "c11-diagnose": ["diagnose", *MARKET_FLAGS],
        "c11-validate": [
            "validate", "--spot", "20", "--strike", "0.633", "--expiry", str(31 / 365),
            "--steps", "50", "--sigma0", "0.5", "--kappa", "3", "--theta", "0.75",
            "--delta", "0.35", "--param", "kappa", "--lo", "2", "--hi", "4", "--points", "2",
            "--paths", "20000", "--mc-steps", "50", "--seed", "42", "--output", "{out}/sweep.csv",
        ],
        "c11-simulate": SIM_FLAGS,
        **{
            f"price-{method}": [
                "price", "--method", method, *ITM_FLAGS, "--sigma", "0.5", "--steps", "200",
                "--output", "{out}/price.json",
            ]
            for method in ("closed", "crr", "tian-bin", "haahtela", "boyle-trin", "kr-trin", "tian-trin")
        },
        **{
            f"price-{method}": [
                "price", "--method", method, *SV_FLAGS, "--paths", "5000", "--seed", "9",
                "--output", "{out}/price.json",
            ]
            for method in ("sv-lattice", "mc-euler", "mc-milstein")
        },
        "converge-failing-rows": [
            "converge", "--spot", "2.0", "--strike", "0.005", "--ctr", "0.3", "--expiry", "2.0",
            "--rate", "3.0", "--sigma", "0.05", "--methods", "crr,tian-bin,tian-trin",
            "--n-values", "1,2,20", "--output", "{out}/conv.csv",
        ],
        "diagnose-options": [
            "diagnose", *MARKET_FLAGS, "--lags", "3", "--window", "5", "--alpha", "0.1",
        ],
        "simulate-market": [
            "simulate", "--market", "{in}/market.csv", "--budget", "5.0", "--strike-cpc", "0.02",
            "--sigma", "0.5", "--supply", "8000", "--output-dir", "{out}/sim",
        ],
        "simulate-config": ["simulate", "--config", "{in}/scenario.json", "--output-dir", "{out}/sim"],
        "simulate-premium-at-budget": [*SIM_FLAGS, "--option-price", "5.0"],
        "simulate-premium-above-budget": [*SIM_FLAGS, "--option-price", "7.5"],
        "refuse-missing-sigma": ["price", "--method", "closed", *ITM_FLAGS],
        "refuse-crr-probability": [
            "price", "--method", "crr", "--spot", "2.0", "--strike", "0.005", "--ctr", "0.3",
            "--expiry", "2.0", "--rate", "3.0", "--steps", "1", "--sigma", "0.05",
        ],
    }
    DIGESTS = {
        "c11-converge": "8f52385d1f861fd705d1bf6983348322520c1d7274109f154a8e1cbcc5205d8c",
        "c11-diagnose": "46445d3493a6a7d9d1f30e8a724eb1d5a5c8484e82f2941eb0f100cdd4f484c6",
        "c11-price": "d27b07b8a57f1870b54b511f14535d9258aeddff95b66fc09591c098f05e6293",
        "c11-simulate": "1fe0626f40e6f61fd1b7492a100c77501991314d2da16d13816fc09f12f0d7e6",
        "c11-validate": "16f0657d6d9de66145b8e999744f76fa1a26ea4faa32c2ccac21ab73fd80065a",
        "converge-failing-rows": "f71309b5dca3a4a32ade3e47b225643f78882d546839579c065aeff4b7668618",
        "diagnose-options": "02af90e6a10fbc2e2f9ba9c3e59698d0979b6127ecfecb9e5df72f01d73ee47d",
        "price-boyle-trin": "c21a90311043592c11b354cbc873f9cb7df8b0d8748e0e3eb4cbf1b3ad481e56",
        "price-closed": "3a7421fdf1cac7612559b87be8aa0dab409487ceb774fc0aa32d47881d078f33",
        "price-crr": "26daecc366fa98e0a7a393038961e98e76c7620395e0fb311592ebe851ad91c0",
        "price-haahtela": "e899306a0e50d2070355e33d0cb7739196e23cba5234fc2f2998ba91449f0842",
        "price-kr-trin": "aaa3521c14b104fdca1cec6f248812cbbbb30ab276ee77ef89972df69fc0f8f8",
        "price-mc-euler": "a905084d0ceb05e3048aa429986a45fa86650b6653ad62cb96c8eeb46d76ab1f",
        "price-mc-milstein": "fd024eba5c747990fa16511a04fcc923e5a9cf5af59f217cd3ef1130b7da1ddf",
        "price-sv-lattice": "7948f213e03cf58f9971a2a0db4366b9c6e8bee57808542275e4512fc126b784",
        "price-tian-bin": "8145d7b3c0a5424448afebe332cf611a2e97db12e5409ffb636063b1dfe30361",
        "price-tian-trin": "e217c2b88471e013085c21c756e9387e0fcb9f2d049110bcc88860c53bc5ba00",
        "refuse-crr-probability": "b2b862d6fc672ee74c5f2dd78d7ccb1ced1959b7df959444ab7b1ca368b7a0d2",
        "refuse-missing-sigma": "1f89b4414c456e26ab10e75a5d8b4205566824fa1c730b84c1e37a5f18cfee53",
        "simulate-config": "f627d74229e2f46fe69a6df0fc4268e3762856140f3b5f92705ef8a40258afc1",
        "simulate-market": "ce332cb595ee38f6dc35a941857d744d0da719efc6719c14c58e80ef05f652cd",
        "simulate-premium-above-budget": "69fb0f7bbad209505901d03a6a91e6c0588b667a95bcf92391baae57b0371bcf",
        "simulate-premium-at-budget": "0380f98a28031b0ae191d9f3fc72461a386a7b96d0fdcb988d0899c181a5c391",
    }

    @pytest.fixture
    def inputs(self, tmp_path):
        import numpy as np
        from datetime import date, timedelta

        folder = tmp_path / "in"
        folder.mkdir()
        rng = np.random.default_rng(23)
        prices = 2.0 * np.exp(np.cumsum(0.5 * math.sqrt(1 / 365) * rng.standard_normal(40)))
        start = date(2013, 1, 8)
        lines = ["date,price"] + [
            f"{(start + timedelta(days=i)).isoformat()},{p:.8f}" for i, p in enumerate(prices)
        ]
        (folder / "series.csv").write_text("\n".join(lines) + "\n")
        lines = ["date,price"] + [f"2013-02-{8 + i:02d},{0.74 + 0.02 * i}" for i in range(7)]
        (folder / "market.csv").write_text("\n".join(lines) + "\n")
        (folder / "scenario.json").write_text(json.dumps({
            "scenario": "bear", "days": 30, "spot_cpm": 1.0, "sigma": 0.5,
            "supply": 5000, "budget": 4.0, "strike_cpc": 0.04, "sell_ratio": 0.8, "seed": 11,
        }))
        return folder

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_output_bytes(self, capsys, tmp_path, inputs, name):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        argv = [a.replace("{in}", str(inputs)).replace("{out}", str(out_dir)) for a in self.COMMANDS[name]]
        code, out, err = run(capsys, argv)
        digest = hashlib.sha256(f"{code}\0{out}\0{err}\0".encode())
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
        assert digest.hexdigest() == self.DIGESTS[name]
