"""Fresh-interpreter checks: what the CLI imports, and the README example.

scipy is a test oracle only: ``scipy.special`` takes about a quarter of a
second and 26 MB to import, and every CLI command runs in a fresh
process, so no command may load any scipy module. One new interpreter
runs every command in turn and reports the scipy modules loaded after
each; it then imports ``scipy.special`` itself and reports again, the
positive control that shows the probe sees an import.
"""

import json
import re
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

PROBE = """
import contextlib, importlib, io, json, sys
from firstlook.cli import main

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

report = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report.append({"code": code, "scipy": scipy_loaded()})
importlib.import_module("scipy.special")
report.append({"code": None, "scipy": scipy_loaded()})
print(json.dumps(report))
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


def run_fresh(argvs, cwd, env):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs)],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def write_series(path):
    rng = np.random.default_rng(0)
    prices = 2.0 * np.exp(np.concatenate([[0.0], np.cumsum(0.03 * rng.standard_normal(59))]))
    start = date(2013, 1, 8)
    lines = ["date,price"] + [f"{start + timedelta(days=i)},{p:.17g}" for i, p in enumerate(prices)]
    path.write_text("\n".join(lines) + "\n")


def test_no_command_loads_scipy(tmp_path, child_env):
    write_series(tmp_path / "series.csv")
    *rows, control = run_fresh(list(COMMANDS.values()), tmp_path, child_env)
    for name, row in zip(COMMANDS, rows, strict=True):
        assert row == {"code": 0, "scipy": []}, name
    assert "scipy.special" in control["scipy"]


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
