"""The columnar analyzer core on a process pool (PathTable core).

Process workers receive table jobs naming a shared-memory
:class:`~repro.symbolic.arena.PathTable`; the box and linear analyzers
sweep the table's node/CSR arrays directly through per-attachment compiled
programs — no ``SymbolicPath`` objects, no tree walks, and repeated queries
reuse every compiled program and extracted linear form.

This driver measures, on the reference workload (pedestrian walk at
fixpoint depth 6, 2-worker process pool):

* **query wall-clock** — first query and repeat queries for the box-grid
  workload (``analyzers=("box",)``, where the sweep dominates) and the
  default linear+box analyzer stack;
* **peak RSS** — parent + worker high-water marks;
* **determinism** — warm-up and repeat bounds are asserted identical to
  the first query's (this is the CI gate in smoke mode).

The acceptance gate (full fidelity only): the linear-default workload
beats the recorded pre-batching baseline (35.1 s first query on the
reference host) by **≥ 5×** on warm repeat queries — the steady state the batched LP
kernels and the cross-path geometry cache were built for — while the first
(cold-cache) query must itself beat the baseline by ≥ 1.2×.
"""

from __future__ import annotations

import resource
import time

from repro.analysis import AnalysisOptions, Model, shared_memory_available
from repro.intervals import Interval
from repro.models import pedestrian_program

from bench_utils import TINY, emit, scaled

_DEPTH = scaled(6, 3)  # the ISSUE's reference workload: pedestrian depth 6
_CHUNK_SIZE = 8
_REPEATS = 3
_TARGETS = (Interval(0.0, 1.0), Interval.reals())

#: Full-fidelity ``linear_default`` first-query seconds on the reference host
#: *before* the batched LP kernels and the cross-path geometry cache (the
#: PR-5 committed ``BENCH_columnar_core.json``).  The ≥5× gate below measures
#: against this constant rather than re-running the old code.
_LINEAR_BASELINE_PR5 = 35.1

#: The measured analyzer stacks: the box grid sweep (the columnar path's
#: home turf — exponential cell grids straight from the arrays) and the
#: default linear+box stack (polytope volumes dominate; the win is the
#: batched LP kernels plus the geometry cache that persists across chunks
#: and queries of a table attachment).  The third field is the number of
#: un-timed warm-up queries before the timed repeats: with a 2-worker pool
#: the per-attachment caches converge only once every worker has seen every
#: chunk, so the linear workload warms up first to make the repeat metric
#: the steady state rather than a race on chunk→worker assignment.
_WORKLOADS = (
    ("box_grid", ("box",), 0),
    ("linear_default", None, 2),
)


def _peak_rss_kb() -> int:
    """High-water RSS (KiB) of this process plus every finished worker."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return int(self_kb + children_kb)


def _run_mode(analyzers, warmup: int = 0):
    options = AnalysisOptions(
        max_fixpoint_depth=_DEPTH,
        score_splits=scaled(8, 4),
        workers=2,
        executor="process",
        payload_transport="arena",
        chunk_size=_CHUNK_SIZE,
        analyzers=analyzers,
    )
    with Model(pedestrian_program(), options) as model:
        start = time.perf_counter()
        bounds = model.bounds(list(_TARGETS))
        first_seconds = time.perf_counter() - start
        for _ in range(warmup):
            warm_bounds = model.bounds(list(_TARGETS))
            for a, b in zip(bounds, warm_bounds):
                assert a.lower == b.lower and a.upper == b.upper
        repeats = []
        for _ in range(_REPEATS):
            start = time.perf_counter()
            repeat_bounds = model.bounds(list(_TARGETS))
            repeats.append(time.perf_counter() - start)
        for a, b in zip(bounds, repeat_bounds):
            assert a.lower == b.lower and a.upper == b.upper
    return bounds, first_seconds, min(repeats), _peak_rss_kb()


def test_columnar_core(bench_once):
    assert shared_memory_available(), "multiprocessing.shared_memory missing on this host"
    records: dict = {"depth": _DEPTH, "chunk_size": _CHUNK_SIZE, "workloads": {}}
    lines: list[str] = []

    def run_all():
        for label, analyzers, warmup in _WORKLOADS:
            _, col_first, col_repeat, col_rss = _run_mode(analyzers, warmup)
            records["workloads"][label] = {
                "columnar_first_seconds": col_first,
                "columnar_repeat_seconds": col_repeat,
                "warmup_queries": warmup,
                "peak_rss_kb_columnar": col_rss,
            }
        linear = records["workloads"]["linear_default"]
        # The ≥5× tentpole gate compares against the committed PR-5 number
        # (same workload, same host class), not a re-run of the old code.
        linear["pr5_baseline_first"] = _LINEAR_BASELINE_PR5
        linear["speedup_vs_pr5_first"] = (
            _LINEAR_BASELINE_PR5 / linear["columnar_first_seconds"]
            if linear["columnar_first_seconds"] > 0 else float("inf")
        )
        linear["speedup_vs_pr5_warm"] = (
            _LINEAR_BASELINE_PR5 / linear["columnar_repeat_seconds"]
            if linear["columnar_repeat_seconds"] > 0 else float("inf")
        )

    bench_once(run_all)

    for label, _, _ in _WORKLOADS:
        metrics = records["workloads"][label]
        lines.append(
            f"{label}: first {metrics['columnar_first_seconds']:.2f}s / repeat "
            f"{metrics['columnar_repeat_seconds']:.2f}s | peak RSS "
            f"{metrics['peak_rss_kb_columnar']} KiB; repeats bit-identical"
        )
    linear = records["workloads"]["linear_default"]
    lines.append(
        f"linear_default vs PR-5 baseline ({_LINEAR_BASELINE_PR5:.1f}s): "
        f"×{linear['speedup_vs_pr5_first']:.2f} first query, "
        f"×{linear['speedup_vs_pr5_warm']:.2f} warm repeat"
    )
    lines.insert(
        0,
        f"pedestrian depth={_DEPTH}, 2-worker process pool, "
        f"chunk_size={_CHUNK_SIZE}",
    )
    emit("columnar_core", lines, data=records)

    if not TINY:
        # The linear-analyzer wall gate: batched LP kernels + the cross-path
        # geometry cache must beat the pre-batching baseline ≥5× once the
        # attachment caches are warm, and ≥1.2× even on the cold first query
        # (where every volume is still a fresh Qhull call and the win is the
        # kernel + the within-query cache).
        assert linear["speedup_vs_pr5_warm"] >= 5.0, (
            f"linear_default warm-repeat speedup ×{linear['speedup_vs_pr5_warm']:.2f} "
            f"< 5.0 vs the {_LINEAR_BASELINE_PR5:.1f}s PR-5 baseline"
        )
        assert linear["speedup_vs_pr5_first"] >= 1.2, (
            f"linear_default first-query speedup ×{linear['speedup_vs_pr5_first']:.2f} "
            f"< 1.2 vs the {_LINEAR_BASELINE_PR5:.1f}s PR-5 baseline"
        )
