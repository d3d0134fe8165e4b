"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_linear --seed 0 --seconds 30 --trace 0

The engine is imported from the checkout's ``src/`` directory.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": 81, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, and
the run's spans are written to ``.perfbench/`` in the checkout.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

_STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Percentile reported as ``latency_tail_ref``.  Each keeps at least ten
#: samples beyond it in a run of ``run_seconds`` on a 2-core host; p80 and
#: p85 lie inside their stream's slowest cost class.
TAIL_PERCENTILE = {"cold_linear": 60, "pool_refine": 80, "served_mix": 85}


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def tail(values: list[float], percentile: int) -> tuple[float, int]:
    """The ``percentile``-th percentile and how many samples lie beyond it."""
    if len(values) < 2:
        return (values[0] if values else 0.0), 0
    value = statistics.quantiles(values, n=100, method="inclusive")[percentile - 1]
    return value, sum(1 for v in values if v > value)


def in_reference(run) -> tuple[list[float], float]:
    """Engine latencies, and the loop's duration, in reference-loop units."""
    speed = run.speed
    latencies = [speed.in_reference(sent, done) for sent, done in run.latency_spans]
    loop = sum(speed.in_reference(sent, done) for sent, done in run.cycles)
    return latencies, loop


def end_to_end(run, workload: str, import_seconds: float, rss_mb: float) -> tuple[dict, list[str]]:
    latencies, loop = in_reference(run)
    percentile = TAIL_PERCENTILE[workload]
    tail_value, beyond = tail(latencies, percentile)
    metrics = {
        "setup_s": import_seconds + statistics.median(run.setup_seconds),
        "latency_p50_ref": statistics.median(latencies) if latencies else 0.0,
        "latency_tail_ref": tail_value,
        "throughput_per_ref": run.completed / loop if loop else 0.0,
        "prob_gap": statistics.fmean(run.widths) if run.widths else 0.0,
        "mass_gap": statistics.fmean(run.mass_widths) if run.mass_widths else 0.0,
        "sound_share": run.oracle_contained / run.oracle_checks if run.oracle_checks else 0.0,
        "peak_rss_mb": rss_mb,
    }
    wall = run.latencies
    notes = [
        f"latency over {len(latencies)} engine queries; latency_tail_ref is p{percentile} "
        f"with {beyond} samples beyond it"
        + ("" if beyond >= 10 else " (fewer than 10: the tail does not resolve)"),
        f"reference loop: median {run.speed.median_seconds() * 1e3:.3f} ms over "
        f"{len(run.speed.samples)} samples",
        f"wall clock: latency p50 {statistics.median(wall) if wall else 0.0:.4f} s, "
        f"p{percentile} {tail(wall, percentile)[0]:.4f} s, "
        f"throughput {run.completed / run.loop_seconds if run.loop_seconds else 0.0:.3f} 1/s",
        f"set-up {[round(s, 3) for s in run.setup_seconds]} s after {import_seconds:.3f} s of imports",
        f"oracle: {run.oracle_contained} of {run.oracle_checks} exact answers inside their bounds",
    ]
    return metrics, notes


def per_layer(run, tracer, declared: list[str]) -> tuple[dict, list[str]]:
    from layers import layer_metrics

    traced = run.traced_requests
    metrics = layer_metrics(tracer, traced)
    for name in declared:
        if name.startswith("service."):
            metrics[name] = float(run.layers.get(name, 0.0))
    untraced = statistics.median(run.latencies) if run.latencies else 0.0
    traced_p50 = statistics.median(run.traced_latencies) if run.traced_latencies else 0.0
    metrics["trace.latency_p50_s"] = traced_p50
    metrics["trace.overhead_s"] = traced_p50 - untraced
    metrics["wall.latency_p50_s"] = untraced
    metrics["reference.loop_s"] = run.speed.median_seconds()
    notes = [
        f"{traced} traced requests; {len(run.traced_latencies)} traced and "
        f"{len(run.latencies)} untraced engine queries; tracing overhead "
        f"{traced_p50 - untraced:+.4f} s on the median latency ({untraced:.4f} s untraced)"
    ]
    return metrics, notes


def _stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker process, if one was started."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = _declared()
    names = [workload["name"] for workload in declared["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    # The engine reads defaults (workers, executor, fault plans) from REPRO_*
    # variables; a benchmark run must not inherit any.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"no engine source at {source}: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    import repro  # noqa: F401  (the imports are part of set-up)
    import numpy  # noqa: F401
    import scipy.spatial  # noqa: F401
    import workloads

    import_seconds = time.perf_counter() - _STARTED
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
    run = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    _stop_resource_tracker()
    rss_mb = workloads.peak_rss_mb(run.worker_processes)

    if args.trace:
        metrics, notes = per_layer(run, tracer, [m["name"] for m in declared["per_layer"]])
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics, notes = end_to_end(run, args.workload, import_seconds, rss_mb)
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {sorted(missing)}")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for note in notes:
        print(note)
    for message in run.violations[:20]:
        print(f"VIOLATION {message}")
    for error in run.errors[:20]:
        print(f"FAILED {error}")
    for name in units:
        print(f"{name:36s} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": not run.violations,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
