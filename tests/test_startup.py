"""Fresh-interpreter checks: what the CLI and a market replay import, and
the README example.

Some modules cost start-up time or memory that no run needs, so none of
them may load: scipy is a test oracle only (``scipy.special`` takes about
a quarter of a second and 26 MB to import, and every CLI command runs in
a fresh process), and ``numpy.ma``, which ``np.median`` imports on its
first call, adds about 1.6 MB to a run. One new interpreter runs its
steps in turn, each a CLI command or a snippet of library code, and
reports the forbidden modules loaded after each; each forbidden entry
then gets its own positive control, a step that imports it, which shows
the probe sees an import.
"""

import json
import re
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

# each forbidden package, and the module its positive control imports
FORBIDDEN = {"numpy.ma": "numpy.ma", "scipy": "scipy.special"}
NONE_LOADED = {name: [] for name in FORBIDDEN}

PROBE = """
import contextlib, io, json, sys
from firstlook.cli import main

forbidden, steps = json.loads(sys.argv[1])

def loaded():
    return {
        name: sorted(m for m in sys.modules if m == name or m.startswith(name + "."))
        for name in forbidden
    }

report = []
for step in steps:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(step) if isinstance(step, list) else exec(step)
    report.append({"code": code, "loaded": loaded()})
print(json.dumps(report))
"""

# experiment (i) on a seeded year of synthetic market
MARKET_REPLAY = """
from firstlook import diagnostics, market_sim
from firstlook.contracts import SvParams
sv = SvParams(spot_M0=1.5, sigma0=0.5, kappa=3.0, theta=0.6, delta=0.3)
days = market_sim.synthetic_market(sv, 0.2, 365, 8000, 7)
series = diagnostics.PriceSeries.from_prices([sv.spot_M0] + [d.avg_cpm for d in days])
diagnostics.gbm_test(series)
diagnostics.estimate_sv(series)
diagnostics.fitness_comparison(series, n_instances=300, seed=7)
"""

ITM = ["--spot", "2.0", "--strike", "0.005", "--ctr", "0.3", "--expiry", "0.085", "--sigma", "0.5"]
SV = [
    "--spot", "20", "--strike", "0.633", "--expiry", "0.085", "--steps", "20",
    "--sigma0", "0.5", "--kappa", "3", "--theta", "0.75", "--delta", "0.35",
]
COMMANDS = {
    "closed": ["price", "--method", "closed", *ITM],
    "kr-trin": ["price", "--method", "kr-trin", *ITM, "--steps", "50"],
    "sv-lattice": ["price", "--method", "sv-lattice", *SV],
    "mc-euler": ["price", "--method", "mc-euler", *SV, "--paths", "500"],
    "diagnose": ["diagnose", "--input", "series.csv", "--output-dir", "diag"],
    "validate": ["validate", *SV, "--param", "kappa", "--lo", "2", "--hi", "4", "--points", "2",
                 "--paths", "500", "--mc-steps", "10", "--output", "sweep.csv"],
    "simulate": ["simulate", "--scenario", "bull", "--days", "10", "--budget", "5.0",
                 "--strike-cpc", "0.03", "--output-dir", "sim"],
    "crr": ["price", "--method", "crr", *ITM, "--steps", "50"],
    "converge": ["converge", *ITM, "--n-values", "10,20", "--output", "conv.csv"],
}


def run_fresh(steps, cwd, env):
    """Reports of ``steps`` run in turn in one new interpreter.

    Each forbidden entry's positive control runs after the steps and must
    see its own import.
    """
    controls = [f"import {module}" for module in FORBIDDEN.values()]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([list(FORBIDDEN), steps + controls])],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    for (name, module), control in zip(FORBIDDEN.items(), report[len(steps) :], strict=True):
        assert module in control["loaded"][name], name
    return report[: len(steps)]


def write_series(path):
    rng = np.random.default_rng(0)
    prices = 2.0 * np.exp(np.concatenate([[0.0], np.cumsum(0.03 * rng.standard_normal(59))]))
    start = date(2013, 1, 8)
    lines = ["date,price"] + [f"{start + timedelta(days=i)},{p:.17g}" for i, p in enumerate(prices)]
    path.write_text("\n".join(lines) + "\n")


def test_no_command_loads_a_forbidden_module(tmp_path, child_env):
    write_series(tmp_path / "series.csv")
    rows = run_fresh(list(COMMANDS.values()), tmp_path, child_env)
    for name, row in zip(COMMANDS, rows, strict=True):
        assert row == {"code": 0, "loaded": NONE_LOADED}, name


def test_market_replay_loads_no_forbidden_module(tmp_path, child_env):
    # fitness_comparison takes its medians without np.median
    (row,) = run_fresh([MARKET_REPLAY], tmp_path, child_env)
    assert row == {"code": None, "loaded": NONE_LOADED}


def test_readme_library_example(tmp_path, child_env):
    # pins the package re-exports the README uses, and the prices it prints
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path,
        env=child_env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    printed = [float(line) for line in proc.stdout.split()]
    expected = [0.0016949026752235636, 0.001694892109156537, 0.0025659663131701077]
    assert printed == pytest.approx(expected, rel=1e-12, abs=0)
