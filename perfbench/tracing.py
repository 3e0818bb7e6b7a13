"""Spans around the program's public calls, and the per-layer metrics.

Each target is wrapped at the module where its callers look it up, e.g.
``montecarlo.build_censored_lattice`` is the name ``containment_sweep``
calls, while the CLI calls ``sv_lattice.build_censored_lattice``. A
span records name, start, end and parent; spans stay in memory and are
written out when the run ends. A target that no longer exists is
reported as missing, never fatal. ``contracts`` gets no span: its
validation runs inside every pricer and shows in their self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

TARGETS = (
    "gbm_lattice.closed_form_price",
    "gbm_lattice.binomial_price_sum",
    "gbm_lattice.complementary_binomial_price",
    "gbm_lattice.trinomial_price",
    "gbm_lattice.lattice_price",
    "gbm_lattice.convergence_report",
    "sv_lattice.build_censored_lattice",
    "sv_lattice.price_sv_option",
    "sv_lattice.lattice_to_csv",
    "montecarlo.build_censored_lattice",
    "montecarlo.price_sv_option",
    "montecarlo.mc_price",
    "montecarlo.containment_sweep",
    "montecarlo.sample_paths",
    "diagnostics.montecarlo.sample_paths",
    "diagnostics.gbm_test",
    "diagnostics.estimate_gbm",
    "diagnostics.estimate_sv",
    "diagnostics.fitness_comparison",
    "market_sim.montecarlo.sample_paths",
    "market_sim.synthetic_market",
    "market_sim.simulate_rtb",
    "market_sim.simulate_options",
    "market_sim.revenue_analysis",
)

LATTICE_FNS = ("binomial_price_sum", "complementary_binomial_price", "trinomial_price", "lattice_price")

# (name, unit, better, functions whose spans feed it; empty = not from spans)
PER_LAYER = (
    ("cli.import_s", "s", "lower", ()),
    ("cli.import_scipy_stats_s", "s", "lower", ()),
    ("gbm_lattice.trinomial_s", "s/op", "lower", ("trinomial_price",)),
    ("gbm_lattice.trinomial_node_updates", "count/op", "lower", ("trinomial_price",)),
    ("gbm_lattice.trinomial_node_updates_per_s", "1/s", "higher", ("trinomial_price",)),
    ("gbm_lattice.binomial_sum_s", "s/op", "lower", ("binomial_price_sum",)),
    ("gbm_lattice.complementary_s", "s/op", "lower", ("complementary_binomial_price",)),
    ("gbm_lattice.binomial_terms", "count/op", "lower", ("binomial_price_sum",)),
    ("gbm_lattice.binomial_useful_frac", "ratio", "higher", ("binomial_price_sum",)),
    ("gbm_lattice.closed_form_calls", "count/op", "lower", ("closed_form_price",)),
    ("gbm_lattice.method_failures", "count", "lower", LATTICE_FNS),
    ("gbm_lattice.route_gap_max", "ratio", "lower", ()),
    ("sv_lattice.build_s", "s/op", "lower", ("build_censored_lattice",)),
    ("sv_lattice.price_s", "s/op", "lower", ("price_sv_option",)),
    ("sv_lattice.nodes", "count/op", "lower", ("build_censored_lattice",)),
    ("sv_lattice.nodes_per_s", "1/s", "higher", ("build_censored_lattice",)),
    ("sv_lattice.peak_alloc_mb", "MB", "lower", ("build_censored_lattice",)),
    ("sv_lattice.oracle_gap_max", "ratio", "lower", ()),
    ("sv_lattice.dump_s", "s/op", "lower", ("lattice_to_csv",)),
    ("sv_lattice.dump_bytes", "count/op", "lower", ("lattice_to_csv",)),
    ("montecarlo.sweep_s", "s/op", "lower", ("containment_sweep",)),
    ("montecarlo.sweep_self_s", "s/op", "lower", ("containment_sweep",)),
    ("montecarlo.mc_price_s", "s/op", "lower", ("mc_price",)),
    ("montecarlo.path_steps", "count/op", "lower", ("mc_price",)),
    ("montecarlo.path_steps_per_s", "1/s", "higher", ("mc_price",)),
    ("montecarlo.rng_s", "s/op", "lower", ("mc_price",)),
    ("montecarlo.arith_s", "s/op", "lower", ("mc_price",)),
    ("montecarlo.sample_paths_s", "s/op", "lower", ("sample_paths",)),
    ("montecarlo.sample_path_steps", "count/op", "lower", ("sample_paths",)),
    ("diagnostics.gbm_test_s", "s/op", "lower", ("gbm_test",)),
    ("diagnostics.estimate_gbm_s", "s/op", "lower", ("estimate_gbm",)),
    ("diagnostics.estimate_sv_s", "s/op", "lower", ("estimate_sv",)),
    ("diagnostics.fitness_s", "s/op", "lower", ("fitness_comparison",)),
    ("market_sim.synthetic_market_s", "s/op", "lower", ("synthetic_market",)),
    ("market_sim.ledger_s", "s/op", "lower", ("simulate_rtb", "simulate_options")),
    ("market_sim.revenue_s", "s/op", "lower", ("revenue_analysis",)),
    ("market_sim.days", "count/op", "lower", ("simulate_rtb", "simulate_options", "revenue_analysis")),
    *((f"{w}.{k}", "count", better, ())
      for w in ("quote", "validate")
      for k, better in (("ops_attempted", "higher"), ("ops_failed", "lower"))),
    ("trace.ops_per_s_traced", "1/s", "higher", ()),
    ("trace.ops_per_s_untraced", "1/s", "higher", ()),
    ("trace.overhead_pct", "%", "lower", ()),
    ("trace.missing_targets", "count", "lower", ()),
)


class Span:
    __slots__ = ("name", "fn", "parent", "start", "end", "error", "counts")

    def __init__(self, name: str, fn: str, parent: "Span | None") -> None:
        self.name, self.fn, self.parent = name, fn, parent
        self.start = self.end = 0.0
        self.error = False
        self.counts: dict = {}


def _binomial_counts(a: dict, _result) -> dict:
    from firstlook import contracts, gbm_lattice

    params, contract, method = a["params"], a["contract"], a["method"]
    n = contract.steps_n
    useful = n + 1
    if contract.strike > 0:
        move = gbm_lattice.movement_params(method, params.sigma, contract.rate_r, contract.dt)
        spot = contracts.underlying_value(params.spot_M0, contract)
        log_u, log_d = math.log(move.u), math.log(move.d)
        # j* = first terminal node j whose value spot * u^j * d^(n-j) reaches the strike
        j_star = math.ceil((math.log(contract.strike) - math.log(spot) - n * log_d) / (log_u - log_d))
        useful = n + 1 - min(max(j_star, 0), n + 1)
    return {"terms": n + 1, "useful": useful}


COUNTERS = {
    "binomial_price_sum": _binomial_counts,
    "trinomial_price": lambda a, r: {"node_updates": a["contract"].steps_n ** 2},
    "build_censored_lattice": lambda a, r: {
        "nodes": (a["contract"].steps_n + 1) * (a["contract"].steps_n + 2) // 2},
    "lattice_to_csv": lambda a, r: {"bytes": a["stream"].tell()},
    "mc_price": lambda a, r: {"path_steps": a["cfg"].n_paths * a["cfg"].steps},
    "sample_paths": lambda a, r: {"path_steps": a["n_paths"] * a["steps"]},
    "simulate_rtb": lambda a, r: {"days": len(a["days"])},
    "simulate_options": lambda a, r: {"days": len(a["days"])},
    "revenue_analysis": lambda a, r: {"days": len(a["days"])},
}


class Tracer:
    """Installs span-recording wrappers on the program's public calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.sites: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        self.aliases: dict[str, str] = {}
        self.count_errors: dict[str, str] = {}
        # largest SV build (n, params, contract) and Monte Carlo (paths, steps), for the probes
        self.largest_build: tuple | None = None
        self.mc_shapes: Counter = Counter()
        package = importlib.import_module("firstlook")
        for module in {target.split(".")[0] for target in TARGETS}:
            try:
                importlib.import_module(f"firstlook.{module}")
            except ImportError:
                pass
        seen: dict[tuple[int, str], str] = {}
        for target in TARGETS:
            *path, attr = target.split(".")
            owner = package
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(target)
                continue
            key = (id(owner), attr)
            if key in seen:
                self.aliases[target] = seen[key]
                continue
            seen[key] = target
            self.sites.append((owner, attr, original, self._wrap(target, attr, original)))

    @property
    def wrapped_fns(self) -> set[str]:
        return {attr for _, attr, _, _ in self.sites}

    def install(self) -> None:
        for owner, attr, _, wrapper in self.sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.sites:
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def root(self, name: str):
        """The op-level span every traced call of one op hangs from."""
        span = Span(name, "op", None)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: str, original):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(fn)
        signature = inspect.signature(original) if counter else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(name, fn, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                self._count(span, counter, signature, args, kwargs, result)
            return result

        return wrapper

    def _count(self, span: Span, counter, signature, args, kwargs, result) -> None:
        try:
            arguments = signature.bind(*args, **kwargs).arguments
            span.counts = counter(arguments, result)
            if span.fn == "build_censored_lattice":
                n = arguments["contract"].steps_n
                if self.largest_build is None or n > self.largest_build[0]:
                    self.largest_build = (n, arguments["params"], arguments["contract"])
            elif span.fn == "mc_price":
                cfg = arguments["cfg"]
                self.mc_shapes[(cfg.n_paths, cfg.steps)] += 1
        except Exception as exc:  # a changed signature must not stop the run
            self.count_errors[span.name] = f"{type(exc).__name__}: {exc}"

    def dump(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {"id": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": None if s.parent is None else index[id(s.parent)],
             **({"error": True} if s.error else {}), **({"counts": s.counts} if s.counts else {})}
            for i, s in enumerate(self.spans)
        ]


def rng_probe(n_paths: int, steps: int) -> float:
    """Seconds to draw the Philox normals of one ``mc_price`` call directly.

    The draw time does not depend on the seed, so one probe per shape
    stands for every call of that shape.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(0))
    for _ in range(steps):
        rng.standard_normal(n_paths)
        rng.standard_normal(n_paths)
    return time.perf_counter() - start


def peak_alloc_probe(params, contract) -> float:
    """tracemalloc peak (MB) of one SV lattice build plus price."""
    from firstlook import sv_lattice

    tracemalloc.start()
    try:
        sv_lattice.price_sv_option(sv_lattice.build_censored_lattice(params, contract))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def import_probe() -> tuple[float, float]:
    """Median wall time of ``import firstlook.cli`` and of its scipy.stats share.

    Each of three repeats is a fresh interpreter with ``-X importtime``; scipy.stats
    reads 0 when the CLI no longer imports it.
    """
    code = ("import time; t = time.perf_counter(); import firstlook.cli; "
            "print(time.perf_counter() - t)")
    walls, stats = [], []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, timeout=120, check=True)
        walls.append(float(proc.stdout.split()[-1]))
        cumulative = 0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "scipy.stats":
                cumulative = int(fields[1])
        stats.append(cumulative / 1e6)
    return statistics.median(walls), statistics.median(stats)


def layer_metrics(tracer: Tracer, ops: int, extra: dict[str, float]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans, per traced op; returns (metrics, missing names).

    ``extra`` holds the values measured outside the spans (probes, op
    counts, tracing overhead). A metric whose source functions are all
    unwrapped reads 0 and is named in the missing list.
    """
    child_time: dict[int, float] = {}
    for s in tracer.spans:
        if s.parent is not None:
            child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + (s.end - s.start)
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    calls: Counter = Counter()
    errors: Counter = Counter()
    counts: dict[str, Counter] = {}
    for s in tracer.spans:
        duration = s.end - s.start
        total_s[s.fn] += duration
        self_s[s.fn] += duration - child_time.get(id(s), 0.0)
        calls[s.fn] += 1
        errors[s.fn] += s.error
        counts.setdefault(s.fn, Counter()).update(s.counts)

    per_op = 1.0 / max(ops, 1)
    ratio = lambda a, b: a / b if b > 0 else 0.0  # noqa: E731
    count = lambda fn, key: counts.get(fn, Counter())[key]  # noqa: E731
    rng_s = sum(n * rng_probe(*shape) for shape, n in tracer.mc_shapes.items())
    peak = peak_alloc_probe(*tracer.largest_build[1:]) if tracer.largest_build else 0.0
    values = {
        "gbm_lattice.trinomial_s": self_s["trinomial_price"] * per_op,
        "gbm_lattice.trinomial_node_updates": count("trinomial_price", "node_updates") * per_op,
        "gbm_lattice.trinomial_node_updates_per_s": ratio(
            count("trinomial_price", "node_updates"), self_s["trinomial_price"]),
        "gbm_lattice.binomial_sum_s": self_s["binomial_price_sum"] * per_op,
        "gbm_lattice.complementary_s": self_s["complementary_binomial_price"] * per_op,
        "gbm_lattice.binomial_terms": count("binomial_price_sum", "terms") * per_op,
        "gbm_lattice.binomial_useful_frac": ratio(
            count("binomial_price_sum", "useful"), count("binomial_price_sum", "terms")),
        "gbm_lattice.closed_form_calls": calls["closed_form_price"] * per_op,
        "gbm_lattice.method_failures": sum(errors[fn] for fn in LATTICE_FNS),
        "sv_lattice.build_s": self_s["build_censored_lattice"] * per_op,
        "sv_lattice.price_s": self_s["price_sv_option"] * per_op,
        "sv_lattice.nodes": count("build_censored_lattice", "nodes") * per_op,
        "sv_lattice.nodes_per_s": ratio(
            count("build_censored_lattice", "nodes"), self_s["build_censored_lattice"]),
        "sv_lattice.peak_alloc_mb": peak,
        "sv_lattice.dump_s": self_s["lattice_to_csv"] * per_op,
        "sv_lattice.dump_bytes": count("lattice_to_csv", "bytes") * per_op,
        "montecarlo.sweep_s": total_s["containment_sweep"] * per_op,
        "montecarlo.sweep_self_s": self_s["containment_sweep"] * per_op,
        "montecarlo.mc_price_s": total_s["mc_price"] * per_op,
        "montecarlo.path_steps": count("mc_price", "path_steps") * per_op,
        "montecarlo.path_steps_per_s": ratio(count("mc_price", "path_steps"), total_s["mc_price"]),
        "montecarlo.rng_s": rng_s * per_op,
        "montecarlo.arith_s": (total_s["mc_price"] - rng_s) * per_op,
        "montecarlo.sample_paths_s": self_s["sample_paths"] * per_op,
        "montecarlo.sample_path_steps": count("sample_paths", "path_steps") * per_op,
        "diagnostics.gbm_test_s": self_s["gbm_test"] * per_op,
        "diagnostics.estimate_gbm_s": self_s["estimate_gbm"] * per_op,
        "diagnostics.estimate_sv_s": self_s["estimate_sv"] * per_op,
        "diagnostics.fitness_s": self_s["fitness_comparison"] * per_op,
        "market_sim.synthetic_market_s": self_s["synthetic_market"] * per_op,
        "market_sim.ledger_s": (self_s["simulate_rtb"] + self_s["simulate_options"]) * per_op,
        "market_sim.revenue_s": self_s["revenue_analysis"] * per_op,
        "market_sim.days": sum(count(fn, "days") for fn in
                               ("simulate_rtb", "simulate_options", "revenue_analysis")) * per_op,
        "trace.missing_targets": len(tracer.missing),
        **extra,
    }
    wrapped = tracer.wrapped_fns
    missing = [name for name, _, _, fns in PER_LAYER if fns and not wrapped.intersection(fns)]
    metrics = {}
    for name, unit, _, _ in PER_LAYER:
        metrics[name] = {"value": 0 if name in missing else values.get(name, 0), "unit": unit}
    return metrics, missing
