"""regulab benchmark: one workload, one seed, closed loop, single process.

    python3 bench/run.py --workload step-compare --seed 1 --seconds 30 --trace 0

Run from the repository root; regulab is imported from ./src.  Every
operation is checked against an independent reference (see refs.py).

--trace 0 times operations back to back for --seconds and reports the
end-to-end metrics.  --trace 1 runs a fixed, seed-determined list of blocks
twice, untraced and then with timing wrappers around regulab's public
names (spans.py), and reports per-layer metrics; the spans are written to
bench/out/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Exit codes: 0 all operations
correct, 1 some operation failed its check, 2 the benchmark could not set
up (regulab or the reference table missing or broken).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time

import refs
import spans
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 5
MIN_OPS = 100
# a traced block costs about 1.3x an untraced one; the traced run does both
TRACE_COST = 2.3
MODULES = ("cli", "core", "errors", "flanagan", "numerics", "regulator_lab", "static_well", "time_step")


class SetupError(Exception):
    pass


def import_regulab() -> dict:
    """Import regulab afresh from ./src and return its modules by short name."""
    for name in [n for n in sys.modules if n == "regulab" or n.startswith("regulab.")]:
        del sys.modules[name]
    if sys.path[0] != SRC_DIR:
        sys.path.insert(0, SRC_DIR)
    try:
        mods = {name: importlib.import_module("regulab." + name) for name in MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import regulab from {SRC_DIR}: {exc}") from exc
    origin = os.path.dirname(os.path.abspath(mods["cli"].__file__))
    if os.path.dirname(origin) != SRC_DIR:
        raise SetupError(f"imported regulab from {origin}, not from {SRC_DIR}")
    return mods


def run_op(op, call=None) -> tuple[float, str | None, object]:
    """Seconds the call took, None or the reason the operation failed, and
    what the call returned."""
    start = time.perf_counter()
    try:
        result = (call or op.call)()
    except Exception as exc:  # a raising operation is a failed operation
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}", None
    elapsed = time.perf_counter() - start
    return elapsed, op.check(result), result


def setup(name: str, seed: int):
    """Import, reference loading, input generation and warm-up."""
    start = time.perf_counter()
    mods = import_regulab()
    try:
        table = refs.load_table()
    except refs.ReferenceError as exc:
        raise SetupError(str(exc)) from exc
    workload = WORKLOADS[name](mods, table)
    rng = random.Random(seed)
    first = workload.block(rng)
    for op in workload.warmup():
        _, message, _ = run_op(op)
        if message is not None:
            raise SetupError(f"warm-up {op.kind} failed: {message}")
    return time.perf_counter() - start, mods, workload, rng, first


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[tuple[str, str]] = []

    def record(self, op, elapsed: float, message: str | None):
        self.latencies.append(elapsed)
        if message is not None:
            if len(self.failures) < 5:
                print(f"FAIL {op.kind}: {message}", file=sys.stderr)
            self.failures.append((op.kind, message))


def timed_run(workload, rng, block, seconds: float) -> tuple[Tally, list[float]]:
    """Closed loop over whole blocks until --seconds have passed and at least
    MIN_OPS operations, so that ten or more samples lie beyond p90.  Returns
    the tally and the wall time of each block."""
    tally = Tally()
    block_s = []
    start = time.perf_counter()
    while True:
        block_start = time.perf_counter()
        for op in block:
            tally.record(op, *run_op(op)[:2])
        block_s.append(time.perf_counter() - block_start)
        if time.perf_counter() - start >= seconds and len(tally.latencies) >= MIN_OPS:
            break
        block = workload.block(rng)
    return tally, block_s


def traced_run(mods, ops) -> tuple[Tally, float, spans.Tracer]:
    """The same operations untraced, then traced; returns the tally of both
    passes, the wall-time ratio traced/untraced, and the tracer."""
    tally = Tally()
    start = time.perf_counter()
    for op in ops:
        tally.record(op, *run_op(op)[:2])
    untraced = time.perf_counter() - start

    tracer = spans.Tracer()
    tracer.install(mods, mods["errors"].ToleranceNotMet)
    try:
        start = time.perf_counter()
        for i, op in enumerate(ops, 1):
            tracer.op_id = i
            elapsed, message, result = run_op(op, tracer.span("op." + op.kind, op.call))
            tally.record(op, elapsed, message)
            if op.bytes_out is not None and result is not None:
                tracer.counts["cli.bytes_out"] += op.bytes_out(result)
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tally, traced / untraced, tracer


def environment(args, setup_times: list[float]) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_runs_s": setup_times,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        for entry in sorted(os.listdir(base)):
            fields = {}
            for name in ("level", "type", "size"):
                with open(os.path.join(base, entry, name), encoding="utf-8") as fh:
                    fields[name] = fh.read().strip()
            out[f"L{fields['level']} {fields['type']}"] = fields["size"]
    except OSError:
        pass
    return out


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta did not converge at a={a}, b={b}, x={x}")


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted average of
    all order statistics.  At 100-200 samples spread over a factor of 500 in
    latency it moves far less between runs than a single order statistic."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return math.fsum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(ordered))


def end_to_end(tally: Tally, block_s: list[float], setup_s: float) -> tuple[dict, dict]:
    """Throughput is operations per block over the median block's wall time:
    blocks share one composition, and the median ignores the stretches in
    which a shared host runs this process markedly faster or slower."""
    lat = tally.latencies
    p90 = hd_quantile(lat, 0.9)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / len(block_s) / statistics.median(block_s), "1/s"),
        "op_ms_p50": (hd_quantile(lat, 0.5) * 1e3, "ms"),
        "op_ms_p90": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "samples_beyond_p90": sum(1 for x in lat if x > p90),
        "wall_s": math.fsum(block_s),
        "block_s": block_s,
    }
    return metrics, extra


def per_layer(tracer: spans.Tracer, overhead: float) -> dict:
    totals = spans.layer_totals(tracer.spans, tracer.leaves)
    counts = tracer.counts

    def calls(layer):
        return totals.get(layer, {}).get("calls", 0)

    def seconds(layer, key):
        return totals.get(layer, {}).get(key, 0) / 1e9

    def per_call_ns(layer, n):
        return totals.get(layer, {}).get("self_ns", 0) / n if n else 0.0

    evals = counts["quad.evals"]
    m = {
        "numerics.quad.calls": (calls(spans.QUAD), "count"),
        "numerics.quad.evals": (evals, "count"),
        "numerics.quad.evals_per_call": (evals / calls(spans.QUAD) if calls(spans.QUAD) else 0.0, "evals/call"),
        "numerics.quad.self_s": (seconds(spans.QUAD, "self_ns"), "s"),
        "numerics.quad.self_ns_per_eval": (per_call_ns(spans.QUAD, evals), "ns"),
        "numerics.quad.tol_not_met": (counts["quad.tol_not_met"], "count"),
        "numerics.classify.calls": (calls(spans.CLASSIFY), "count"),
        "numerics.classify.self_s": (seconds(spans.CLASSIFY, "self_ns"), "s"),
        "numerics.classify.finite": (counts["classify.finite"], "count"),
        "numerics.classify.divergent": (counts["classify.divergent"], "count"),
        "numerics.classify.indeterminate": (counts["classify.indeterminate"], "count"),
    }
    for layer, key in (
        ("time_step.pointsplit", "wall_s"),
        ("time_step.mode_reg", "wall_s"),
        ("static_well.t00r", "wall_s"),
        ("exprlang.parse", "self_s"),
        ("regulator_lab.scan", "self_s"),
        ("flanagan.qi", "self_s"),
        ("flanagan.delta", "self_s"),
        ("cli", "self_s"),
    ):
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.{key}"] = (seconds(layer, key[:-2] + "_ns"), "s")
    for layer in ("time_step.integrand", "static_well.integrand", "exprlang.jet"):
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.self_ns_per_call"] = (per_call_ns(layer, calls(layer)), "ns")
    m["cli.bytes_out"] = (counts["cli.bytes_out"], "bytes")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    try:
        runs = [setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    except SetupError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    setup_times = [r[0] for r in runs]
    _, mods, workload, rng, first = runs[-1]
    env = environment(args, setup_times)

    if args.trace == 0:
        tally, block_s = timed_run(workload, rng, first, args.seconds)
        raw, extra = end_to_end(tally, block_s, statistics.median(setup_times))
        env.update(blocks=len(block_s), **extra)
    else:
        n_blocks = max(1, round(args.seconds / (TRACE_COST * workload.block_seconds)))
        ops = list(first)
        for _ in range(n_blocks - 1):
            ops += workload.block(rng)
        tally, overhead, tracer = traced_run(mods, ops)
        raw = per_layer(tracer, overhead)
        env.update(blocks=n_blocks)

    attempted, failed = len(tally.latencies), len(tally.failures)
    env.update(samples=attempted, fail_ratio=failed / attempted)
    if args.trace == 1:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"), {"env": env})
    print("env " + json.dumps(env, sort_keys=True))
    print(f"fail_ratio = {failed / attempted!r} ({failed} of {attempted} operations)")
    for name, (value, unit) in raw.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in raw.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
