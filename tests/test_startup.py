"""Fresh-interpreter checks: what the CLI imports, and the README example.

``scipy.stats`` takes most of a second and about 45 MB to import, and
every CLI command runs in a fresh process; the package uses
``scipy.special`` only. Each case runs ``firstlook.cli.main`` in a new
interpreter on a tiny input and reports which of the two modules were
loaded; ``scipy.special`` showing up proves that the probe sees imports.
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
import contextlib, io, json, sys
from firstlook.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, **{m: m in sys.modules for m in ("scipy.special", "scipy.stats")}}))
"""

ITM = ["--spot", "2.0", "--strike", "0.005", "--ctr", "0.3", "--expiry", "0.085", "--sigma", "0.5"]
SV = [
    "--spot", "20", "--strike", "0.633", "--expiry", "0.085", "--steps", "20",
    "--sigma0", "0.5", "--kappa", "3", "--theta", "0.75", "--delta", "0.35",
]


def run_fresh(argv, cwd, env):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
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


@pytest.mark.parametrize(
    "argv",
    [
        ["price", "--method", "closed", *ITM],
        ["price", "--method", "crr", *ITM, "--steps", "50"],
        ["price", "--method", "kr-trin", *ITM, "--steps", "50"],
        ["price", "--method", "sv-lattice", *SV],
        ["price", "--method", "mc-euler", *SV, "--paths", "500"],
        ["converge", *ITM, "--n-values", "10,20", "--output", "conv.csv"],
        ["diagnose", "--input", "series.csv", "--output-dir", "diag"],
        ["validate", *SV, "--param", "kappa", "--lo", "2", "--hi", "4", "--points", "2",
         "--paths", "500", "--mc-steps", "10", "--output", "sweep.csv"],
        ["simulate", "--scenario", "bull", "--days", "10", "--budget", "5.0",
         "--strike-cpc", "0.03", "--output-dir", "sim"],
    ],
    ids=["closed", "crr", "kr-trin", "sv-lattice", "mc-euler", "converge", "diagnose", "validate",
         "simulate"],
)
def test_command_does_not_import_scipy_stats(tmp_path, child_env, argv):
    write_series(tmp_path / "series.csv")
    result = run_fresh(argv, tmp_path, child_env)
    assert result["code"] == 0
    assert result["scipy.stats"] is False
    # the probe sees the imports a command does make
    assert result["scipy.special"] is True


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
