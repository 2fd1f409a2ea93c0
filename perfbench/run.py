"""Outside-in benchmark for padlver: time to verdict per route.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``random-suite``, ``star``, ``ring`` or ``fixtures``;
see ``workloads.py``) in this one process and thread.  Each input goes
through the pipeline ``padlver check --format json`` uses, once per
route: parse, validate, elaborate, ``verify_deadlock_by_reduction`` or
``verify_deadlock_direct``, ``VerificationReport.to_json``.  The
verdict is read back from the rendered report and checked against the
input's known answer and against the other route.

Whole passes over the inputs repeat while at least half of another fits
in ``--seconds`` (at least one pass), and each input's time is its
median over the passes.  With ``--trace 1`` every untraced run is followed by a traced run of the
same input and route, which wraps the program's public functions from
outside (``layertrace``) and gives the per-layer metrics.

Times are reported at reference host speed.  A shared host's speed
shifts by 20-40% for minutes at a time, which no run length averages
out, so before each input the runner times `reference_kernel`, fixed
work of the program's kind (tuple-keyed dict updates, a sort) that the
program cannot change, and scales the wall times of each pass by
REFERENCE_KERNEL_S over the pass's median kernel time.  The wall times
and the speed factor are printed as well.

Standard output: one row per input, one ``metric`` line per metric, and
as its last line a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any input failed.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layertrace  # noqa: E402

SETUP_REPEATS = 5
# Median `reference_kernel` time on a quiet 2-core x86-64 cloud host
# with Python 3.11.
REFERENCE_KERNEL_S = 0.0008
WORKLOADS = ("random-suite", "star", "ring", "fixtures")
ROUTES = ("reduce", "direct")
DEFINITE = ("deadlock_free", "deadlock")
REPORT_KEY = {"reduce": "reduction", "direct": "direct"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "reduce_s": "s",
    "direct_s": "s",
    "reduce_p50_ms": "ms",
    "direct_p50_ms": "ms",
    "reduce_tail_ms": "ms",
    "direct_tail_ms": "ms",
    "reduce_concluded_share": "ratio",
    "direct_concluded_share": "ratio",
    "peak_rss_mb": "MB",
}
TRACE_UNITS = {
    "trace.reduce_overhead_share": "ratio",
    "trace.direct_overhead_share": "ratio",
    "trace.reduce_coverage": "ratio",
    "trace.direct_coverage": "ratio",
}
# Per-instance columns of the traced rows.
ROW_LAYERS = (
    "lts.parallel_states",
    "equivalence.saturated_transitions",
    "equivalence.weak_bisim_s",
    "topology.interop_s",
)


class Pipeline:
    """What ``padlver check --format json`` runs, one route at a time.
    Functions are looked up on their modules at each call, so a
    tracer's wrappers take effect."""

    def __init__(self) -> None:
        self.parser = importlib.import_module("padlver.parser")
        self.validate = importlib.import_module("padlver.validate")
        self.elaborate = importlib.import_module("padlver.elaborate")
        self.topology = importlib.import_module("padlver.topology")
        self.report = importlib.import_module("padlver.report")

    def check(self, inp, route: str) -> str:
        description = self.parser.parse(inp.text, filename=inp.name)
        arch = self.elaborate.elaborate(self.validate.validate(description), inp.capacity)
        report = self.report.VerificationReport(
            architecture=arch.name,
            mode=route,
            notion="weak",
            queue_capacity=inp.capacity,
            state_limit=inp.state_limit,
        )
        if route == "reduce":
            report.reduction = self.topology.verify_deadlock_by_reduction(
                arch, "weak", inp.state_limit
            )
        else:
            report.direct = self.topology.verify_deadlock_direct(arch, "weak", inp.state_limit)
        return report.to_json()


def reference_kernel() -> float:
    """Seconds taken by fixed tuple-keyed dict updates and a sort, with
    the garbage collector off so that the program's heap does not count;
    the faster of two runs, so that caches the program left cold do not
    count either."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            table: dict[tuple[int, int, int], int] = {}
            for i in range(1000):
                key = (i * 7919 % 1009, i & 7, i % 5)
                table[key] = table.get(key, 0) + i
            sorted(table.items())
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def set_up(workload: str, seed: int):
    """Import padlver afresh and make the workload's inputs."""
    for name in [n for n in sys.modules if n.split(".")[0] in ("padlver", "workloads")]:
        del sys.modules[name]
    workloads = importlib.import_module("workloads")
    return workloads.build_inputs(workload, seed), Pipeline()


class Result:
    """What the passes saw of one input."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = {r: [] for r in ROUTES}  # at reference speed
        self.wall: dict[str, list[float]] = {r: [] for r in ROUTES}
        self.status: dict[str, list[str]] = {r: [] for r in ROUTES}
        self.errors: list[str] = []
        self.direct_states: int | None = None

    def time(self, route: str, wall: bool = False) -> float | None:
        times = (self.wall if wall else self.times)[route]
        return statistics.median(times) if times else None


def verify(pipeline: Pipeline, inp, route: str, res: Result) -> None:
    """Time one input on one route and record what its report says."""
    start = time.perf_counter()
    try:
        rendered = pipeline.check(inp, route)
    except Exception as exc:  # a crash is a failed input, not the end of the run
        res.errors.append(f"{route} raised {type(exc).__name__}: {exc}")
        return
    res.wall[route].append(time.perf_counter() - start)
    doc = json.loads(rendered)[REPORT_KEY[route]]
    res.status[route].append(doc["status"])
    if route == "direct":
        res.direct_states = doc["states"]


def run_pass(pipeline: Pipeline, inputs, untraced: list[Result],
             tracer=None, traced: list[Result] = ()) -> float:
    """One pass over the inputs.  With a tracer, each untraced run is
    followed at once by a traced run of the same input and route, so
    that both see the host in the same state.  Returns the pass's speed
    factor, by which its wall times were scaled."""
    kernel = []
    for k, inp in enumerate(inputs):
        kernel.append(reference_kernel())
        for route in ROUTES:
            verify(pipeline, inp, route, untraced[k])
            if tracer is not None:
                tracer.run = (k, route)
                with tracer:
                    verify(pipeline, inp, route, traced[k])
    factor = REFERENCE_KERNEL_S / statistics.median(kernel)
    for res in list(untraced) + list(traced):
        for route in ROUTES:
            res.times[route] += [t * factor for t in res.wall[route][len(res.times[route]):]]
    return factor


def problems(inp, results: list[Result]) -> list[str]:
    """Why this input counts as failed: a route raised, its verdict
    changed between passes, a definite outcome contradicts the known
    answer, or the two routes reach different definite verdicts."""
    found = [e for res in results for e in res.errors]
    first = {}
    for route in ROUTES:
        seen = {s for res in results for s in res.status[route]}
        if len(seen) > 1:
            found.append(f"{route} verdict varies between passes: {sorted(seen)}")
        known = inp.expected.get(route)
        for status in seen:
            if known is not None and status != "inconclusive" and status != known:
                found.append(f"{route} says {status}, known answer {known}")
        first[route] = next(iter(sorted(seen)), None)
    if first["reduce"] in DEFINITE and first["direct"] in DEFINITE and first["reduce"] != first["direct"]:
        found.append(f"reduce says {first['reduce']}, direct says {first['direct']}")
    return found


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    values beyond it; the maximum when that percentile would fall below
    the median (fewer than 20 values)."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def measure(pipeline: Pipeline, inputs, seconds: float, tracer=None):
    """Repeat passes while half of another fits in `seconds`.  Returns the
    untraced results, the traced ones, each pass's spans with its speed
    factor, and the median speed factor."""
    untraced = [Result() for _ in inputs]
    traced = [Result() for _ in inputs]
    traced_passes = []
    factors = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        gc.collect()
        factors.append(run_pass(pipeline, inputs, untraced, tracer, traced))
        if tracer is not None:
            traced_passes.append((tracer.take(), factors[-1]))
        # Another pass when at least half of it fits, so that a run
        # whose pass takes about half of `seconds` keeps its two passes.
        if time.perf_counter() + (time.perf_counter() - started) / 2 > deadline:
            return untraced, traced, traced_passes, statistics.median(factors)


def route_total(results: list[Result], route: str, wall: bool = False) -> float:
    return sum(t for t in (res.time(route, wall) for res in results) if t is not None)


def end_to_end(results: list[Result], setup_s: float, summary: dict) -> dict:
    n = len(results)
    metrics = {"setup_s": setup_s}
    for route in ROUTES:
        times = [t for t in (res.time(route) for res in results) if t is not None]
        concluded = sum(1 for res in results if res.status[route][:1] not in ([], ["inconclusive"]))
        metrics[f"{route}_s"] = sum(times)
        metrics[f"{route}_p50_ms"] = 1000.0 * statistics.median(times)
        value, pct = tail(times)
        metrics[f"{route}_tail_ms"] = 1000.0 * value
        metrics[f"{route}_concluded_share"] = concluded / n
        summary[f"{route}_inconclusive_share"] = (1.0 - concluded / n, "ratio")
        summary[f"{route}_tail_percentile"] = (pct, f"p_of_{len(times)}")
        summary[f"{route}_wall_s"] = (route_total(results, route, wall=True), "s")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def per_layer(untraced, traced, traced_passes, missing, inputs) -> dict:
    passes = []
    for p, (spans, factor) in enumerate(traced_passes):
        for span in spans:  # to reference speed, like the end-to-end times
            span.duration *= factor
            span.child_time *= factor
        metrics = layertrace.layer_metrics(spans, missing)
        for route in ROUTES:
            route_time = sum(res.times[route][p] for res in traced if len(res.times[route]) > p)
            metrics[f"trace.{route}_coverage"] = (
                layertrace.top_level_time(spans, route) / route_time if route_time else 0.0
            )
        passes.append(metrics)
    metrics = {
        name: statistics.median(p[name] for p in passes)
        for name in list(layertrace.LAYER_UNITS) + list(TRACE_UNITS)
        if all(name in p for p in passes)
    }
    for route in ROUTES:
        base = route_total(untraced, route)
        metrics[f"trace.{route}_overhead_share"] = route_total(traced, route) / base - 1.0
    # One row per instance from the first traced pass: the growth curve.
    by_input = defaultdict(list)
    for span in traced_passes[0][0]:
        by_input[span.run[0]].append(span)
    for k, inp in enumerate(inputs):
        layers = layertrace.layer_metrics(by_input[k], missing)
        cells = "  ".join(f"{name}={layers[name]:.6g}" for name in ROW_LAYERS if name in layers)
        print(f"traced {inp.name:<28} {cells}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_times, kernel = [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter() if setup_times else STARTED
        inputs, pipeline = set_up(args.workload, args.seed)
        setup_times.append(time.perf_counter() - started)
        kernel.append(reference_kernel())
    setup_s = statistics.median(setup_times) * REFERENCE_KERNEL_S / statistics.median(kernel)

    tracer = layertrace.Tracer() if args.trace else None
    untraced, traced, traced_passes, speed = measure(pipeline, inputs, args.seconds, tracer)

    failed = 0
    for inp, res, tres in zip(inputs, untraced, traced):
        found = problems(inp, [res, tres])
        failed += bool(found)
        cells = "  ".join(
            f"{route} {(res.status[route] or ['raised'])[0]:<17} "
            f"{1000.0 * (res.time(route) or 0.0):10.3f} ms"
            for route in ROUTES
        )
        print(f"instance {inp.name:<28} {cells}  "
              f"direct_states={res.direct_states}" + "".join(f"  FAILED: {p}" for p in found))

    summary = {
        "failed_share": (failed / len(inputs), "ratio"),
        "passes": (len(untraced[0].wall["reduce"]), "count"),
        "speed_factor": (speed, "ratio"),
        "setup_wall_s": (statistics.median(setup_times), "s"),
        "setup_first_wall_s": (setup_times[0], "s"),
    }
    if tracer is None:
        metrics = end_to_end(untraced, setup_s, summary)
        units = END_TO_END_UNITS
    else:
        metrics = per_layer(untraced, traced, traced_passes, tracer.missing, inputs)
        units = {**layertrace.LAYER_UNITS, **TRACE_UNITS}
        summary["traced_passes"] = (len(traced_passes), "count")
        summary["missing_targets"] = (len(tracer.missing), "count")
    for name, value in metrics.items():
        print(f"metric {args.workload} {name} {value:.6g} {units[name]}")
    for name, (value, unit) in summary.items():
        print(f"metric {args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(inputs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
