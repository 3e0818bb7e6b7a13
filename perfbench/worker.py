"""One benchmark run in a fresh interpreter; writes its raw result as JSON.

Started by ``run.py``, never by hand. A closed loop with one client:
one op at a time, the next only after the previous one and its checks
are done. The untimed warm-up op runs first; ``first_op`` is the
monotonic clock just before the first timed op, so the parent can
measure set-up from its own spawn time.

With ``--trace 1`` every op runs twice, once with the span wrappers
installed and once without, in alternating order; the per-layer
metrics come from the traced half and the pair gives the overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def build(name: str, seed: int):
    import workloads

    return {"quote": workloads.QuoteWorkload, "validate": workloads.ValidateWorkload}[name](seed)


def run_op(workload, i: int) -> tuple[float, object, list[str]]:
    """Latency, result and check failures of op ``i``; an exception is a failure."""
    start = time.perf_counter()
    try:
        result = workload.op(i)
    except Exception as exc:  # a failed op is counted, the run goes on
        return time.perf_counter() - start, None, [f"op {i}: {type(exc).__name__}: {exc}"]
    latency = time.perf_counter() - start
    try:
        failures = workload.check(i, result)
    except Exception as exc:
        failures = [f"check {i}: {type(exc).__name__}: {exc}"]
    return latency, result, [f"op {i}: {f}" for f in failures]


def timed_loop(workload, seconds: float) -> dict:
    latencies, failures, failed = [], [], 0
    i, start = 1, time.perf_counter()
    while True:
        latency, _, errors = run_op(workload, i)
        latencies.append(latency)
        failed += bool(errors)
        failures += errors
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    return {
        "latencies_s": latencies,
        "timed_wall_s": time.perf_counter() - start,
        "ops": len(latencies),
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_loop(workload, seconds: float, spans_path: Path) -> dict:
    import tracing

    tracer = tracing.Tracer()
    traced_s = untraced_s = 0.0
    failures, failed, health = [], 0, {}
    i, start = 1, time.perf_counter()
    while True:
        errors = []
        for traced in ((True, False) if i % 2 else (False, True)):
            if traced:
                tracer.install()
                try:
                    with tracer.root(f"op.{workload.name}"):
                        latency, result, errs = run_op(workload, i)
                finally:
                    tracer.uninstall()
                traced_s += latency
                if result is not None and hasattr(workload, "health"):
                    for name, value in workload.health(i, result).items():
                        health[name] = max(health.get(name, 0.0), value)
            else:
                latency, _, errs = run_op(workload, i)
                untraced_s += latency
            errors += errs
        failed += bool(errors)
        failures += dict.fromkeys(errors)  # both executions of a pair may fail alike
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    ops = i - 1
    import_s, scipy_stats_s = tracing.import_probe()
    extra = {
        "cli.import_s": import_s,
        "cli.import_scipy_stats_s": scipy_stats_s,
        **health,
        f"{workload.name}.ops_attempted": ops + 1,
        f"{workload.name}.ops_failed": failed,
        "trace.ops_per_s_traced": ops / traced_s,
        "trace.ops_per_s_untraced": ops / untraced_s,
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
    }
    metrics, missing = tracing.layer_metrics(tracer, ops, extra)
    spans_path.write_text(json.dumps(tracer.dump()))
    return {
        "ops": ops,
        "failed": failed,
        "failures": failures,
        "layers": metrics,
        "missing_metrics": missing,
        "missing_targets": tracer.missing,
        "aliases": tracer.aliases,
        "count_errors": tracer.count_errors,
        "spans": len(tracer.spans),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, required=True, help="result JSON destination")
    args = parser.parse_args()

    workload = build(args.workload, args.seed)
    _, _, warmup_failures = run_op(workload, 0)
    result = {"first_op": time.monotonic(), "warmup_failures": warmup_failures}
    if not args.setup_only:
        if args.trace:
            result.update(traced_loop(workload, args.seconds, args.out.with_suffix(".spans.json")))
        else:
            result.update(timed_loop(workload, args.seconds))
        result["failed"] += bool(warmup_failures)
        result["failures"] = warmup_failures + result["failures"]
        if args.trace:
            result["layers"][f"{args.workload}.ops_failed"]["value"] = result["failed"]
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
