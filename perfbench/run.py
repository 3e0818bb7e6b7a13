"""Run one benchmark workload on the program in ``src/`` and print its metrics.

    python3 perfbench/run.py --workload quote --seed 1 --seconds 34 --trace 0

Run it from anywhere inside a checkout; it measures the checkout's own
``src/firstlook``. With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer ones. The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The full
report, host record included, goes to ``.perfbench_out/`` in the
checkout, next to the spans of a traced run.

Every run happens in fresh interpreters with one client and BLAS
threads pinned. ``setup_s`` is the median over ``SETUP_SAMPLES``
fresh starts, each timed from spawn to the first timed op.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("quote", "validate")
SETUP_SAMPLES = 3
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# seconds a worker may run beyond --seconds: set-up, the last op and the probes
WORKER_SLACK_S = 90


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    return env


def spawn(args: argparse.Namespace, work: Path, env: dict[str, str], tag: str,
          setup_only: bool = False) -> dict:
    """Run one worker to completion; its set-up time is measured from here."""
    out = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    # own process group, so a timeout also stops the import probes a worker started
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=args.seconds + WORKER_SLACK_S)
    except BaseException:  # timeout, interrupt or SIGTERM: stop the group, then re-raise
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    result = json.loads(out.read_text())
    result["setup_s"] = result.pop("first_op") - spawned
    return result


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def host_record(args: argparse.Namespace) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "not installed"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "blas_threads": {var: BLAS_THREADS for var in THREAD_VARS},
        "seed": args.seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(setups: list[float], run: dict) -> dict:
    latencies_ms = [1e3 * s for s in run["latencies_s"]]
    n = len(latencies_ms)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", 1),
        "op_ms_p50": (statistics.median(latencies_ms), "ms", n),
        "op_ms_p90": (percentile(latencies_ms, 90), "ms", n),
        "ops_per_s": (n / run["timed_wall_s"], "1/s", n),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="timed length of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "firstlook" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'firstlook'} is missing",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    env = worker_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            run = spawn(args, work, env, "run")
            shutil.copy(work / "run.spans.json", OUT_DIR / f"{tag}.spans.json")
            metrics = {name: (m["value"], m["unit"], None) for name, m in run["layers"].items()}
        else:
            setups = [spawn(args, work, env, f"setup{k}", setup_only=True)["setup_s"]
                      for k in range(SETUP_SAMPLES - 1)]
            run = spawn(args, work, env, "run")
            metrics = end_to_end(setups + [run["setup_s"]], run)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = run["ops"] + 1  # the untimed warm-up op is checked too
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(args),
        "attempted": attempted,
        "failed": run["failed"],
        "failures": run["failures"][:20],
        "metrics": {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in metrics.items()},
        **{k: run[k] for k in ("missing_metrics", "missing_targets", "aliases", "count_errors", "spans")
           if k in run},
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops attempted, {run['failed']} failed")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    for name, (value, unit, samples) in metrics.items():
        suffix = f"  ({samples} samples)" if samples else ""
        print(f"  {name:44s} {value:14.6g} {unit}{suffix}")
    for name in report.get("missing_metrics", []):
        print(f"  MISSING {name}: its wrapped functions no longer exist")
    for target in report.get("missing_targets", []):
        print(f"  MISSING target {target}")
    print("  host: " + json.dumps(report["host"]))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
