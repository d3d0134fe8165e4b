"""Shared-memory process dispatch: job bytes, dispatch time, cache tee.

The parallel bound engine writes a path set once into a shared-memory
path-table segment and ships only tiny table jobs (segment name, context
name, index range) per chunk, reusing the segment across queries on the
cached worker pool.  This driver measures, on the pedestrian-walk workload:

* **dispatch bytes** — the segment and context images written once, and the
  pickled table-job bytes shipped per query;
* **dispatch time** — encoding and publishing the segments (first query) vs
  jobs only (cached segments, every later query);
* **bit-equality** — bounds of a real 2-worker process-pool query against a
  serial run, always asserted (this is the CI gate in smoke mode);
* **streamed-query cache tee** — a repeated ``stream=True`` query must be
  served from the compiled-program cache at batch-cached speed.
"""

from __future__ import annotations

import pickle
import time

from repro.analysis import (
    AnalysisOptions,
    Model,
    TableJob,
    create_arena_segment,
    partition_paths,
    shared_memory_available,
)
from repro.analysis.transport import create_context_segment
from repro.intervals import Interval
from repro.models import pedestrian_program
from repro.symbolic import ExecutionLimits, symbolic_paths

from bench_utils import TINY, emit, scaled

_BYTES_DEPTH = scaled(6, 3)  # the reference workload: pedestrian depth 6
_QUERY_DEPTH = scaled(5, 3)  # end-to-end pool queries (analysis-heavy, keep modest)
_CHUNK_SIZE = 8
_TARGETS = (Interval(0.0, 1.0), Interval.reals())


def _measure_dispatch_bytes(records: dict) -> None:
    term = pedestrian_program()
    paths = symbolic_paths(term, ExecutionLimits(max_fixpoint_depth=_BYTES_DEPTH)).paths
    options = AnalysisOptions(max_fixpoint_depth=_BYTES_DEPTH, workers=2, chunk_size=_CHUNK_SIZE)
    chunks = partition_paths(paths, workers=2, chunk_size=_CHUNK_SIZE)

    # First query: encode + publish the arena and context segments, pickle
    # the per-chunk jobs.
    start = time.perf_counter()
    segment = create_arena_segment(paths)
    assert segment is not None, "shared memory unavailable; arena bench cannot run"
    context = create_context_segment(_TARGETS, options, ())
    assert context is not None
    jobs = [
        TableJob(index, segment.name, context.name, chunk.start, chunk.stop)
        for index, chunk in enumerate(chunks)
    ]
    job_bytes = sum(len(pickle.dumps(job)) for job in jobs)
    arena_first_seconds = time.perf_counter() - start

    # Cached segments (every later query): jobs only.
    start = time.perf_counter()
    sum(len(pickle.dumps(job)) for job in jobs)
    arena_cached_seconds = time.perf_counter() - start
    segment_bytes = segment.nbytes
    context_bytes = context.nbytes
    segment.unlink()
    context.unlink()

    records.update(
        {
            "depth": _BYTES_DEPTH,
            "path_count": len(paths),
            "chunk_count": len(chunks),
            "arena_segment_bytes": segment_bytes,
            "arena_context_bytes": context_bytes,
            "arena_ref_bytes": job_bytes,
            "arena_first_dispatch_seconds": arena_first_seconds,
            "arena_cached_dispatch_seconds": arena_cached_seconds,
        }
    )


def _measure_pool_queries(records: dict, lines: list[str]) -> None:
    base_options = AnalysisOptions(
        max_fixpoint_depth=_QUERY_DEPTH, score_splits=scaled(8, 4), workers=1, executor="serial"
    )
    serial = Model(pedestrian_program(), base_options).bounds(list(_TARGETS))
    options = base_options.with_updates(
        workers=2, executor="process", chunk_size=_CHUNK_SIZE, payload_transport="arena"
    )
    with Model(pedestrian_program(), options) as model:
        start = time.perf_counter()
        first = model.bounds(list(_TARGETS))
        first_seconds = time.perf_counter() - start
        start = time.perf_counter()
        second = model.bounds(list(_TARGETS))
        second_seconds = time.perf_counter() - start
    for bounds in (first, second):
        for mine, reference in zip(bounds, serial):
            assert mine.lower == reference.lower
            assert mine.upper == reference.upper
    records["arena_query_seconds"] = first_seconds
    records["arena_cached_query_seconds"] = second_seconds
    lines.append(
        f"process pool (arena): query {first_seconds:.3f}s, "
        f"repeat {second_seconds:.3f}s | bounds bit-identical to serial"
    )


def _measure_cache_tee(records: dict, lines: list[str]) -> None:
    options = AnalysisOptions(
        max_fixpoint_depth=_QUERY_DEPTH, score_splits=scaled(8, 4), workers=1,
        executor="serial", stream=True,
    )
    batch_model = Model(pedestrian_program(), options.with_updates(stream=False))
    batch_model.bounds(list(_TARGETS))  # warm the compile cache
    start = time.perf_counter()
    batch_cached = batch_model.bounds(list(_TARGETS))
    batch_cached_seconds = time.perf_counter() - start

    stream_model = Model(pedestrian_program(), options)
    start = time.perf_counter()
    first = stream_model.bounds(list(_TARGETS))
    stream_first_seconds = time.perf_counter() - start
    assert stream_model.cache_info()["entries"] == 1, "cache tee did not populate the cache"
    start = time.perf_counter()
    second = stream_model.bounds(list(_TARGETS))
    stream_second_seconds = time.perf_counter() - start

    for bounds in (first, second):
        for mine, reference in zip(bounds, batch_cached):
            assert mine.lower == reference.lower
            assert mine.upper == reference.upper
    records.update(
        {
            "batch_cached_seconds": batch_cached_seconds,
            "stream_first_seconds": stream_first_seconds,
            "stream_second_seconds": stream_second_seconds,
        }
    )
    lines.append(
        f"cache tee: streamed query {stream_first_seconds:.3f}s populates the cache; "
        f"repeat {stream_second_seconds:.3f}s vs batch-cached {batch_cached_seconds:.3f}s"
    )
    if not TINY:
        # The tee's promise: a repeated streamed query runs at batch-cached
        # speed (same code path), within a generous noise margin.
        assert stream_second_seconds <= 2.0 * batch_cached_seconds + 0.25, (
            stream_second_seconds,
            batch_cached_seconds,
        )


def test_arena_dispatch(bench_once):
    assert shared_memory_available(), "multiprocessing.shared_memory missing on this host"
    records: dict = {}
    lines: list[str] = []

    def run_all():
        _measure_dispatch_bytes(records)
        _measure_pool_queries(records, lines)
        _measure_cache_tee(records, lines)

    bench_once(run_all)
    lines.insert(
        0,
        f"pedestrian depth={records['depth']} ({records['path_count']} paths, "
        f"{records['chunk_count']} chunks): table jobs {records['arena_ref_bytes']} B "
        f"per query; segment {records['arena_segment_bytes']} B and context "
        f"{records['arena_context_bytes']} B written once",
    )
    lines.insert(
        1,
        f"dispatch time: first {records['arena_first_dispatch_seconds']:.4f}s | cached "
        f"{records['arena_cached_dispatch_seconds']:.5f}s",
    )
    emit("arena_dispatch", lines, data=records)
