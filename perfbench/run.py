"""ksparadox benchmark: one workload per invocation, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper117 --seed 1 --seconds 15 --trace 0

One process drives a closed loop with one client: the next operation
starts when the previous one has finished and been checked.  With
--trace 0 the last line of standard output reports the end-to-end metrics
named in BENCHMARK.json; with --trace 1 it reports the per-layer metrics,
measured by spans around the calls into each ksparadox module, and the
spans are written to .bench_out/.  Lines before the last are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("paper117", "chain-k24", "open-k40", "ensemble")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPS = 5
TAIL_BEYOND = 10
# Iterations of the reference loop, about 30 ms of interpreter work.
REFERENCE_ITERATIONS = 400_000
# Per-layer time metrics and the span each is the median duration of.
SPAN_METRICS = {
    "cli.interpreter_s": "cli.interpreter",
    "emit.s": "emit.render",
    "gadget.params_s": "gadget.params",
    "gadget.enumerate_s": "gadget.enumerate",
    "ksgraph.assemble_s": "ksgraph.assemble",
    "ksgraph.graph_s": "ksgraph.graph",
    "solver.solve_s": "solver.solve",
    "solver.chain_s": "solver.chain",
    "simulate.run_sequence_s": "simulate.run_sequence",
    "simulate.additivity_s": "simulate.additivity",
    "simulate.context_tables_s": "simulate.context_tables",
}
LAYERS = ("cli", "emit", "gadget", "ksgraph", "solver", "simulate", "bench")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    but not below the median.

    With 2 * TAIL_BEYOND samples or fewer no percentile above the median
    has that many beyond it, and the median is reported; clamping there
    keeps the metric from jumping when a slower host fits one operation
    fewer into a run.
    """
    s = sorted(samples)
    n = len(s)
    i = max(n - TAIL_BEYOND - 1, n // 2)
    return s[i], f"p{100.0 * (i + 1) / n:.1f} of {n}"


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop that shares no code with
    ksparadox.

    The host's speed drifts by a quarter over tens of seconds as other
    tenants load it, and an operation's wall time drifts with it.  The loop
    runs between operations, so the ratio of an operation's wall time to
    the loop's time around it measures the program, not the neighbours.
    """
    t = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return time.perf_counter() - t


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_metadata() -> dict:
    import numpy

    meta = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
        ),
    }
    try:
        with open("/proc/cpuinfo") as f:
            meta["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                "unknown",
            )
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                meta[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        meta.setdefault("cpu", "unknown")
    return meta


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ksparadox" / "__init__.py").is_file():
        print(f"error: no ksparadox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import Tracer

    work = OUT / f"{args.workload}-{os.getpid()}"
    wl = workloads.make(args.workload, args.seed, work)
    try:
        return run(args, declared, wl, Tracer())
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Tally:
    """Checked calls attempted and failed; an exception counts as a failure."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0

    def check(self, fn, *args) -> bool:
        try:
            ok = bool(fn(*args))
        except Exception:  # a failed operation is counted and the run goes on
            traceback.print_exc()
            ok = False
        self.attempted += 1
        self.failed += not ok
        return ok


def import_in_child() -> bool:
    """A fresh interpreter importing ksparadox: the start every run pays."""
    cmd = [sys.executable, "-c", "import ksparadox"]
    return subprocess.run(cmd, capture_output=True, timeout=60).returncode == 0


def run(args, declared: dict, wl, tracer) -> int:
    tally = Tally()
    setup_times = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        tally.check(import_in_child)
        tally.check(wl.setup, tracer)
        setup_times.append(time.perf_counter() - t)

    # Closed loop.  A traced run traces every other operation so that the
    # untraced ones between give its tracing overhead.  The reference loop
    # runs before the first operation and after each one.
    walls: list[float] = []
    norms: list[float] = []
    traced: list[bool] = []
    ref = reference_loop()
    deadline = time.perf_counter() + args.seconds
    while len(walls) < 1 + args.trace or time.perf_counter() < deadline:
        tracer.enabled = bool(args.trace) and len(walls) % 2 == 0
        tracer.op_id = f"op{len(walls)}"
        t = time.perf_counter()
        with tracer.span("bench.op"):
            tally.check(wl.op, tracer)
        walls.append(time.perf_counter() - t)
        traced.append(tracer.enabled)
        ref_after = reference_loop()
        norms.append(walls[-1] / ((ref + ref_after) / 2.0))
        ref = ref_after

    meta = run_metadata()
    print("meta: " + json.dumps(meta, sort_keys=True))
    if args.trace:
        spec = declared["per_layer"]
        metrics = layer_metrics(args, [m["name"] for m in spec], wl, tracer, walls, traced, tally)
    else:
        tail_value, tail_note = tail(norms)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_norm": statistics.median(norms),
            "wall_norm_tail": tail_value,
            "peak_rss_mb": wl.peak_rss_mb(),
        }
        print(
            f"{args.workload}: wall_norm median of {len(norms)}, wall_norm_tail {tail_note}; "
            f"ungated wall_s median {statistics.median(walls):.6g} s, "
            f"tail {tail(walls)[0]:.6g} s"
        )
        spec = declared["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    for name, value in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {units[name]}")
    print(f"{args.workload}: failed_frac = {tally.failed}/{tally.attempted}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0


def layer_metrics(args, names, wl, tracer, walls, traced, tally) -> dict[str, float]:
    """Every per-layer metric in names; a layer the workload does not run
    reports 0."""
    op_ids = {f"op{i}" for i, t in enumerate(traced) if t}
    tracer.enabled, tracer.op_id = True, "probe"
    counters: dict[str, float] = {}
    tally.check(wl.probe, tracer, counters)
    tracer.enabled = False

    metrics = dict.fromkeys(names, 0)
    metrics.update(counters)
    span_ids = op_ids | {"probe"}
    for name, span in SPAN_METRICS.items():
        metrics[name] = median_or_zero(tracer.durations(span, span_ids))
    imports = tracer.durations("cli.import", span_ids)
    if imports:
        metrics["cli.import_s"] = statistics.median(imports) - metrics["cli.interpreter_s"]
    self_times = tracer.self_times(op_ids)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = median_or_zero(self_times.get(layer, []))
    with_trace = [w for w, t in zip(walls, traced) if t]
    without = [w for w, t in zip(walls, traced) if not t]
    metrics["trace.overhead_s"] = statistics.median(with_trace) - statistics.median(without)

    def ratio(numerator: str, denominator: str) -> float:
        return metrics[numerator] / metrics[denominator] if metrics[denominator] else 0.0

    metrics["solver.decisions_per_s"] = ratio("solver.decisions", "solver.solve_s")
    metrics["solver.chain_s_per_link"] = ratio("solver.chain_s", "solver.links")
    metrics["simulate.particle_stages_per_s"] = ratio(
        "simulate.particle_stages", "simulate.run_sequence_s"
    )
    metrics["simulate.context_samples_per_s"] = ratio(
        "simulate.context_samples", "simulate.context_tables_s"
    )
    print(
        f"{args.workload}: {len(op_ids)} traced and {len(without)} untraced operations; "
        f"tracing overhead {metrics['trace.overhead_s']:.6g} s per operation"
    )
    family = getattr(wl, "family", None)
    if family:
        print("family: " + json.dumps(family))
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "family": family,
                    "spans": tracer.spans})
    )
    print(f"{args.workload}: spans written to {trace_file.relative_to(ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
