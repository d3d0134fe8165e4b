"""Parallel bound-analysis: chunked fan-out of the per-path hot loop.

The GuBPI engine reduces posterior-bound computation to analysing a finite
set of symbolic interval paths and summing their contributions (Theorem 6.1).
The per-path analyses are completely independent — the classic
embarrassingly-parallel shape — yet the paper's workloads sit exactly in the
regime where it matters: path explosion (Section 7.5) produces tens of
thousands of paths, each of which runs a polytope volume computation or an
exponential box grid.

This module fans that loop out as **table jobs**:

* :func:`partition_paths` cuts the path set into *deterministic, contiguous,
  cost-balanced* chunks (using :meth:`SymbolicPath.analysis_cost_hint`), so
  the same workload always produces the same partition;
* a :class:`~repro.analysis.transport.TableJob` — a path table, a query
  context and a ``[start, stop)`` range or an explicit index list — is the
  only unit of work on every backend.  Process pools receive the name of a
  shared-memory segment holding the ``PathTable`` image (or, where
  publishing fails, the image itself), socket workers receive the image as
  a content-addressed resource, and in-process backends receive the compiled
  ``PathTable`` object.  Analyzers travel as registry *specs* inside the
  context and are re-resolved by name in the worker (see
  :func:`repro.analysis.registry.ensure_analyzers_registered`);
* :func:`run_table_job` resolves a job and runs :func:`analyze_table_slice`,
  the one chunk body every backend, the socket workers and the default
  ``workers=1`` loop share;
* :class:`ParallelAnalysisExecutor` owns the pools.  Batch, refinement and
  streamed queries are job producers over one submit per backend and one
  collect loop, and the per-job results merge through
  :func:`repro.analysis.engine.reduce_contributions` in canonical path order
  — the bounds are therefore **bit-identical** to a serial run, independent
  of the backend, the worker count, the chunk size and the order in which
  workers finish.

Exceptions raised inside a worker (including
:class:`~repro.symbolic.PathExplosionError` and analyzer failures) are
re-raised in the parent.  A socket job that exhausts its retries, or whose
queue loses every worker, takes the degradation ladder: it is re-run as an
inline-image job on a local process pool, then serially.

Backend guidance: the ``"process"`` executor is the right default for
CPU-bound bound analysis (the per-path work is pure Python and NumPy, so the
GIL serialises threads); ``"thread"`` suits environments that forbid
subprocesses; ``"serial"`` runs the identical jobs in-process (handy for
debugging a parallel run).

Analyzers that implement ``analyze_table`` (box, linear) sweep the table's
node/CSR arrays without materialising ``SymbolicPath`` objects; analyzers
without the hook transparently receive decoded paths.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import os
import pickle
import time
import warnings
from typing import Callable, Iterable, Optional, Sequence

from collections import OrderedDict

from .. import faults
from ..intervals import Interval
from ..symbolic import (
    PathExplosionError,
    SymbolicExecutionResult,
    SymbolicPath,
)
from ..symbolic.arena import PathTable, encode_paths
from .config import (
    DEFAULT_IO_TIMEOUT,
    DEFAULT_SOCKET_ENDPOINT,
    EXECUTOR_KINDS,
    AnalysisOptions,
    _require_positive,
)
from .engine import (
    AnalysisReport,
    DenotationBounds,
    PathContribution,
    analyze_single_path,
    reduce_contributions,
)
from .registry import (
    AnalyzerSpec,
    analyzer_specs,
    ensure_analyzers_registered,
    resolve_analyzers,
)
from .transport import (
    ArenaSegment,
    ContextSegment,
    TableJob,
    attach_context,
    create_arena_segment,
    create_context_segment,
    job_table,
    publish_arena_image,
    register_worker_reset,
)

__all__ = [
    "ParallelAnalysisExecutor",
    "TableJob",
    "analyze_table_slice",
    "close_shared_executors",
    "partition_paths",
    "run_table_job",
    "shared_executor",
]

#: How many chunks to create per worker when no explicit chunk size is set.
#: Oversubscription lets the pool rebalance when per-chunk cost estimates are
#: off, at the price of slightly more dispatch overhead.
_OVERSUBSCRIPTION = 4

#: Default number of paths per streaming chunk when the caller sets no
#: explicit ``chunk_size``.  Streaming cannot cost-balance (the total cost is
#: unknown while the stream is live), so it uses fixed-size chunks: small
#: enough that the first chunk dispatches early (time-to-first-bound), large
#: enough to amortise per-job overhead.
_STREAM_CHUNK_SIZE = 32

#: How often (seconds) a wait on socket jobs re-checks that the work queue
#: still has workers.
_SOCKET_POLL = 0.25


def partition_paths(
    paths: Sequence[SymbolicPath],
    workers: int,
    chunk_size: Optional[int] = None,
) -> list[range]:
    """Cut ``paths`` into deterministic contiguous index ranges.

    With an explicit ``chunk_size`` the cut is a plain fixed-size slicing.
    Otherwise the partition targets ``workers × 4`` chunks of roughly equal
    *estimated cost* (not equal length): box-grid analysis is exponential in
    the path dimension, so a handful of deep paths can dominate a workload
    and fixed-length chunks would leave most workers idle.  The partition
    depends only on the path sequence and the arguments — never on timing —
    so repeated runs fan out identically.
    """
    count = len(paths)
    if count == 0:
        return []
    if chunk_size is not None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        return [range(start, min(start + chunk_size, count)) for start in range(0, count, chunk_size)]
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")

    target_chunks = min(count, workers * _OVERSUBSCRIPTION)
    if target_chunks <= 1:
        return [range(0, count)]
    costs = [path.analysis_cost_hint() for path in paths]
    total_cost = sum(costs)
    target_cost = total_cost / target_chunks if total_cost > 0 else 0.0

    chunks: list[range] = []
    start = 0
    accumulated = 0.0
    for index, cost in enumerate(costs):
        accumulated += cost
        is_last = index == count - 1
        if is_last or (accumulated >= target_cost and target_cost > 0.0):
            chunks.append(range(start, index + 1))
            start = index + 1
            accumulated = 0.0
    return chunks


def _batch_results(analyzer, batch, paths, targets, options):
    """Run ``analyze_batch`` (validated) or the per-path loop for a group."""
    if batch is not None and len(paths) > 1:
        results = batch(paths, targets, options)
        if len(results) != len(paths):
            raise RuntimeError(
                f"analyzer {analyzer.name!r}.analyze_batch returned "
                f"{len(results)} results for {len(paths)} paths; one result "
                "per path is required (a shortfall would silently drop "
                "path contributions and break soundness)"
            )
        return results
    return [analyzer.analyze(path, targets, options) for path in paths]


def analyze_table_slice(
    table,
    start: int,
    stop: int,
    targets: tuple[Interval, ...],
    options: AnalysisOptions,
    analyzers,
    paths: Optional[Sequence[SymbolicPath]] = None,
    indices: Optional[Sequence[int]] = None,
) -> list[PathContribution]:
    """Analyse one ``[start, stop)`` slice of a ``PathTable`` (resolved form).

    The one chunk body: process and socket workers, in-process backends and
    the engine's default ``workers=1`` loop all run it, so every consumer
    holding a table and resolved analyzers produces the exact same
    contribution records.

    Every path index is routed to the first applicable analyzer — via its
    ``applicable_table`` hook when it has one, otherwise by asking
    ``applicable`` on the materialised path.  ``paths`` (optional) is the
    already-materialised path sequence the table was built from — the
    serial loop passes ``execution.paths`` so analyzers without the
    columnar hooks receive the original objects for free; jobs leave it
    ``None`` and decode on demand (memoised per call).  Consecutive
    same-analyzer indices form a group:

    * analyzers with ``analyze_table`` receive the index group directly and
      sweep the table's node/CSR arrays — **no** ``SymbolicPath`` objects
      are materialised for them;
    * analyzers without the hook receive the decoded paths through their
      ``analyze_batch`` or per-path ``analyze``.

    ``indices`` (optional) replaces the contiguous ``[start, stop)`` range
    with an explicit index list (the refinement scheduler's scattered
    worst-gap subsets); results follow the given order.
    """
    contributions: list[PathContribution] = []
    decoded: dict[int, SymbolicPath] = {}

    def path_at(index: int) -> SymbolicPath:
        if paths is not None:
            return paths[index]
        path = decoded.get(index)
        if path is None:
            path = decoded[index] = table.decode_path(index)
        return path

    def pick(index: int):
        for analyzer in analyzers:
            table_pred = getattr(analyzer, "applicable_table", None)
            if table_pred is not None:
                if table_pred(table, index, options):
                    return analyzer
            elif analyzer.applicable(path_at(index), options):
                return analyzer
        return None

    group: list[int] = []
    group_analyzer = None

    def flush() -> None:
        nonlocal group, group_analyzer
        if not group:
            return
        analyzer = group_analyzer
        table_batch = getattr(analyzer, "analyze_table", None)
        if table_batch is not None:
            results = table_batch(table, tuple(group), targets, options)
            if len(results) != len(group):
                raise RuntimeError(
                    f"analyzer {analyzer.name!r}.analyze_table returned "
                    f"{len(results)} results for {len(group)} paths; one result "
                    "per path is required (a shortfall would silently drop "
                    "path contributions and break soundness)"
                )
        else:
            group_paths = [path_at(index) for index in group]
            results = _batch_results(
                analyzer, getattr(analyzer, "analyze_batch", None), group_paths, targets, options
            )
        for index, result in zip(group, results):
            contributions.append(
                PathContribution(
                    analyzer_name=analyzer.name,
                    truncated=table.is_truncated(index),
                    contributions=tuple(result),
                )
            )
        group = []
        group_analyzer = None

    for index in (indices if indices is not None else range(start, stop)):
        analyzer = pick(index)
        if analyzer is None:
            flush()
            # Delegate to the shared single-path helper for the canonical
            # "no applicable analyzer" error.
            contributions.append(analyze_single_path(path_at(index), analyzers, targets, options))
            continue
        if analyzer is not group_analyzer:
            flush()
            group_analyzer = analyzer
        group.append(index)
    flush()
    return contributions


#: Worker-side cache of *resolved* query contexts, keyed by the context
#: segment name (which uniquely identifies one query shape): the decoded
#: targets/options plus the analyzer instances, with
#: ``ensure_analyzers_registered`` already applied.  Without it every job of
#: a query re-decoded the context and re-resolved the registry.  Context
#: segments are published once per query shape and shared by every table of
#: the query (batch *and* streamed per-chunk segments), so the context name
#: alone is the right key.
_RESOLVED_CONTEXTS: "OrderedDict[str, tuple]" = OrderedDict()
_RESOLVED_CONTEXT_CAP = 16

# The transport teardown helper is the documented full reset of per-worker
# state; the resolved-context cache participates.
register_worker_reset(_RESOLVED_CONTEXTS.clear)


def _resolved_context(context) -> tuple:
    """``(targets, options, analyzers)`` of a job's context (segments cached)."""
    if not isinstance(context, str):
        targets, options, specs = context
        ensure_analyzers_registered(specs)
        return targets, options, resolve_analyzers(options)
    entry = _RESOLVED_CONTEXTS.get(context)
    if entry is not None:
        _RESOLVED_CONTEXTS.move_to_end(context)
        return entry
    targets, options, specs = attach_context(context)
    ensure_analyzers_registered(specs)
    entry = (targets, options, resolve_analyzers(options))
    _RESOLVED_CONTEXTS[context] = entry
    while len(_RESOLVED_CONTEXTS) > _RESOLVED_CONTEXT_CAP:
        _RESOLVED_CONTEXTS.popitem(last=False)
    return entry


def run_table_job(job: TableJob) -> tuple[int, list[PathContribution]]:
    """Analyse one :class:`TableJob` (runs in the parent or in a worker).

    A segment-name table is attached once per worker and cached across jobs
    and queries (see :func:`repro.analysis.transport.attach_arena`), with its
    decoded-node memo and analyzer scratch space.  The scratch space is how
    analyzer memos travel: the linear analyzer keeps its cross-path
    :class:`~repro.analysis.linear_analyzer.GeometryCache` there.  Its
    exact-bytes keying returns identical float64s on a hit, so bounds do not
    depend on which jobs landed on which worker.
    """
    targets, options, analyzers = _resolved_context(job.context)
    return job.index, analyze_table_slice(
        job_table(job.table), job.start, job.stop, targets, options, analyzers,
        indices=job.indices,
    )


def _run_inline(job: TableJob) -> concurrent.futures.Future:
    """Run ``job`` now; its outcome as an already-finished future."""
    future: concurrent.futures.Future = concurrent.futures.Future()
    try:
        future.set_result(run_table_job(job))
    except Exception as error:  # noqa: BLE001 - re-raised by future.result()
        future.set_exception(error)
    return future


def _deadline(options: AnalysisOptions) -> Optional[float]:
    """The absolute socket-job deadline of ``options.time_budget`` (or None)."""
    if options.time_budget is None:
        return None
    return time.monotonic() + options.time_budget


def _worker_lost(queue):
    """The socket tier's ``WorkerLost``, or ``()`` — which catches nothing.

    Imported lazily: :mod:`repro.service` imports this module for the shared
    chunk body, so a module-level import would be circular.
    """
    if queue is None:
        return ()
    from ..service.protocol import WorkerLost

    return WorkerLost


#: Process-wide executor cache for callers without their own pool lifecycle
#: (the deprecated ``bound_*`` shims, direct ``analyze_execution`` calls).
#: ``Model`` owns and closes its pools explicitly and does not use this.
_SHARED_EXECUTORS: dict[tuple[str, int], "ParallelAnalysisExecutor"] = {}


def shared_executor(options: AnalysisOptions) -> "ParallelAnalysisExecutor":
    """A process-wide pool matching ``options``' executor kind and worker count.

    Created lazily and reused for every subsequent query with the same
    ``(kind, workers)`` — without this, each engine-level call with parallel
    options would fork and tear down a fresh pool.  Shared pools live until
    :func:`close_shared_executors` or interpreter exit (``concurrent.futures``
    joins them atexit).
    """
    key = options.executor_key()
    executor = _SHARED_EXECUTORS.get(key)
    if executor is None or executor._closed:
        executor = ParallelAnalysisExecutor(
            workers=options.workers,
            kind=options.effective_executor,
            socket_endpoint=options.socket_endpoint,
            socket_spawn_workers=options.socket_spawn_workers,
            io_timeout=options.io_timeout,
        )
        _SHARED_EXECUTORS[key] = executor
    return executor


def close_shared_executors() -> None:
    """Shut down every process-wide shared pool (they re-create on demand)."""
    for executor in _SHARED_EXECUTORS.values():
        executor.close()
    _SHARED_EXECUTORS.clear()


# Deterministic teardown at interpreter exit: shared pools, their published
# shared-memory segments and any socket work-queue servers (with the local
# worker processes they spawned) are released even when no caller ever
# invoked close_shared_executors() — without this, an aborted script run
# could leave /dev/shm segments and orphaned worker processes behind.
atexit.register(close_shared_executors)


class ParallelAnalysisExecutor:
    """A reusable worker pool for chunked bound analysis.

    The executor is cheap to construct — the underlying pool is created
    lazily on the first parallel query and reused across queries, which is
    how :class:`repro.Model` amortises pool start-up over a whole evaluation
    scenario.  It is a context manager; :meth:`close` shuts the pool down.

    ``kind`` is one of ``"process"`` (default; true CPU parallelism),
    ``"thread"`` (no pickling, but GIL-bound), ``"serial"`` (the identical
    jobs without a pool, for debugging) or ``"socket"`` (a TCP work queue
    dispatching jobs to ``python -m repro.service.worker`` processes — local
    ones it spawns itself and/or remote ones that connect to
    ``socket_endpoint``; see :mod:`repro.service.queue`).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        kind: str = "process",
        chunk_size: Optional[int] = None,
        socket_endpoint: Optional[str] = None,
        socket_spawn_workers: Optional[int] = None,
        io_timeout: Optional[float] = None,
    ) -> None:
        if kind not in EXECUTOR_KINDS:
            kinds = ", ".join(repr(k) for k in EXECUTOR_KINDS)
            raise ValueError(f"executor kind must be one of {kinds}, got {kind!r}")
        if workers is None:
            workers = os.cpu_count() or 1
        _require_positive("workers", workers)
        if chunk_size is not None:
            _require_positive("chunk_size", chunk_size)
        self.workers = workers
        self.kind = kind
        self.chunk_size = chunk_size
        self.socket_endpoint = socket_endpoint
        self.socket_spawn_workers = socket_spawn_workers
        #: Socket-level patience (seconds): the queue's handshake/liveness
        #: window, and the grace this executor grants a workerless queue
        #: before walking down the degradation ladder.
        self.io_timeout = DEFAULT_IO_TIMEOUT if io_timeout is None else io_timeout
        #: The lazily-started work-queue server of the ``"socket"`` backend
        #: (see :meth:`_ensure_queue`), plus LRU key caches mirroring the
        #: arena/context segment caches of the shared-memory transport.
        self._queue = None
        self._socket_tables: "OrderedDict[int, tuple[tuple, str, bytes]]" = OrderedDict()
        self._socket_contexts: "OrderedDict[tuple, str]" = OrderedDict()
        self._pool: Optional[concurrent.futures.Executor] = None
        self._closed = False
        #: Published arena segments, keyed by ``id`` of the path tuple they
        #: encode (each segment pins its tuple, so keys cannot alias).  The
        #: cache is what lets repeated queries over the same compiled path
        #: set dispatch with zero re-encoding and zero per-job path bytes.
        self._arena_segments: "OrderedDict[int, ArenaSegment]" = OrderedDict()
        #: Published query-context segments, keyed by the context value
        #: (targets, options, specs — all hashable), so a repeated query
        #: re-uses the published context just like it re-uses the arena.
        self._context_segments: "OrderedDict[tuple, ContextSegment]" = OrderedDict()
        #: Flipped when segment creation fails at runtime (e.g. exhausted
        #: /dev/shm): later queries skip straight to inline table images
        #: instead of re-encoding the image per query only to fail
        #: publishing it again.
        self._arena_degraded = False
        #: The degradation ladder's local process pool, created lazily the
        #: first time the socket backend has to hand work back (see
        #: :meth:`_run_locally`).
        self._fallback_pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self.chunks_dispatched = 0
        self.paths_analyzed = 0
        self.arena_segments_created = 0
        #: Ladder telemetry: how many jobs were re-run locally, and the
        #: lowest rung reached ("process" or "serial"; None = no
        #: degradation yet).
        self.degraded_chunks = 0
        self.degraded_to: Optional[str] = None
        #: High-water mark of paths resident in the parent during the last
        #: streamed query (fill buffer + chunks in flight).  Batch queries
        #: leave it untouched; streamed queries reset it at entry.
        self.peak_path_buffer = 0

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> Optional[concurrent.futures.Executor]:
        if self._closed:
            raise RuntimeError("ParallelAnalysisExecutor is closed")
        if self.kind in ("serial", "socket"):
            return None
        if self._pool is None:
            if self.kind == "thread":
                self._pool = concurrent.futures.ThreadPoolExecutor(max_workers=self.workers)
            else:
                self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _ensure_queue(self):
        """The lazily-started work-queue server of the ``"socket"`` backend.

        Binds ``socket_endpoint`` (default: loopback, ephemeral port) on
        first use and spawns ``socket_spawn_workers`` local worker
        processes (default: ``workers`` of them; ``0`` relies entirely on
        external workers connecting to :attr:`queue_address`).
        """
        if self._closed:
            raise RuntimeError("ParallelAnalysisExecutor is closed")
        if self._queue is None:
            # Imported lazily: repro.service imports this module for the
            # shared chunk body, so a module-level import would be circular.
            from ..service.queue import WorkQueueServer

            self._queue = WorkQueueServer(
                endpoint=self.socket_endpoint or DEFAULT_SOCKET_ENDPOINT,
                io_timeout=self.io_timeout,
            )
            spawn = self.socket_spawn_workers
            if spawn is None:
                spawn = self.workers
            if spawn:
                self._queue.spawn_local_workers(spawn)
        return self._queue

    @property
    def queue_address(self) -> Optional[str]:
        """The bound ``host:port`` of the socket backend's queue (or None)."""
        return self._queue.endpoint if self._queue is not None else None

    def close(self) -> None:
        """Shut the worker pool down and unlink its arena segments (idempotent)."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._fallback_pool is not None:
            self._fallback_pool.shutdown(wait=True, cancel_futures=True)
            self._fallback_pool = None
        if self._queue is not None:
            self._queue.close()
            self._queue = None
        self._socket_tables.clear()
        self._socket_contexts.clear()
        while self._arena_segments:
            _, segment = self._arena_segments.popitem(last=False)
            segment.unlink()
        while self._context_segments:
            _, context = self._context_segments.popitem(last=False)
            context.unlink()

    def __enter__(self) -> "ParallelAnalysisExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("warm" if self._pool else "cold")
        return (
            f"ParallelAnalysisExecutor(kind={self.kind!r}, workers={self.workers}, "
            f"chunk_size={self.chunk_size}, arenas={len(self._arena_segments)}, {state})"
        )

    # ------------------------------------------------------------------
    # Table and context carriers
    # ------------------------------------------------------------------
    #: How many per-query arena segments the executor keeps published.  One
    #: per cached compiled program is the common case; the small LRU bounds
    #: shared-memory usage when a model sweeps execution limits.
    _ARENA_CACHE_CAP = 4

    def _arena_for(self, execution: SymbolicExecutionResult) -> Optional[ArenaSegment]:
        """The published segment of ``execution``'s table (created on miss).

        The compiled program's ``PathTable`` serialises straight to the
        segment image — no re-interning, no encode walk.  Returns ``None``
        (and stays degraded) once publishing has failed.
        """
        if self._arena_degraded:
            return None
        paths = execution.paths
        key = id(paths)
        segment = self._arena_segments.get(key)
        if segment is not None and segment.paths is paths:
            self._arena_segments.move_to_end(key)
            return segment
        segment = publish_arena_image(execution.table().to_bytes(), paths)
        if segment is None:
            self._arena_degraded = True
            return None
        self._arena_segments[key] = segment
        self.arena_segments_created += 1
        while len(self._arena_segments) > self._ARENA_CACHE_CAP:
            _, old = self._arena_segments.popitem(last=False)
            old.unlink()
        return segment

    def prime_arena(self, execution: SymbolicExecutionResult) -> bool:
        """Publish (and cache) the arena segment of ``execution`` ahead of a query.

        Used by the streamed-query cache tee: once a streamed query has
        materialised its path set into the compile cache, priming makes the
        segment the cached dispatch representation too — the next query
        attaches workers to it without re-encoding.  Returns False when
        this is no process pool or publishing is unavailable.
        """
        if self.kind != "process" or self._closed:
            return False
        return self._arena_for(execution) is not None

    def arena_segment_names(self) -> tuple[str, ...]:
        """Names of the currently published per-query segments (telemetry)."""
        return tuple(segment.name for segment in self._arena_segments.values())

    #: How many query-context segments stay published (they are tiny — one
    #: pickled (targets, options, specs) tuple each).
    _CONTEXT_CACHE_CAP = 8

    def _process_context(self, context: tuple):
        """A process job's context: its published segment's name (cached).

        Falls back to the ``(targets, options, specs)`` tuple itself once
        publishing has failed.
        """
        if self._arena_degraded:
            return context
        segment = self._context_segments.get(context)
        if segment is not None:
            self._context_segments.move_to_end(context)
            return segment.name
        segment = create_context_segment(*context)
        if segment is None:
            self._arena_degraded = True
            return context
        self._context_segments[context] = segment
        while len(self._context_segments) > self._CONTEXT_CACHE_CAP:
            _, old = self._context_segments.popitem(last=False)
            old.unlink()
        return segment.name

    #: How many path-table resources stay registered with the work queue
    #: (mirrors the arena segment cache: one per cached compiled program).
    _SOCKET_TABLE_CAP = 4
    #: How many query-context resources stay registered (tiny pickles).
    _SOCKET_CONTEXT_CAP = 8

    def _socket_table(self, execution: SymbolicExecutionResult, queue) -> tuple[str, bytes]:
        """``(key, image)`` of ``execution``'s table, registered with the queue.

        The content hash of the table bytes is the resource key, so the
        image is encoded once per compiled path set, shipped at most once
        per worker connection, and naturally deduplicated when two
        executions encode equal tables.  The image doubles as the table of
        the inline jobs the degradation ladder re-runs locally.
        """
        from ..service.protocol import hash_bytes

        paths = execution.paths
        ident = id(paths)
        entry = self._socket_tables.get(ident)
        if entry is not None and entry[0] is paths:
            self._socket_tables.move_to_end(ident)
            return entry[1], entry[2]
        image = execution.table().to_bytes()
        key = hash_bytes(image)
        queue.add_resource(key, image, "table")
        self._socket_tables[ident] = (paths, key, image)
        while len(self._socket_tables) > self._SOCKET_TABLE_CAP:
            _, (_, old_key, _) = self._socket_tables.popitem(last=False)
            queue.discard_resource(old_key)
        return key, image

    def _socket_context_key(self, queue, context: tuple) -> str:
        """Register one query shape's pickled context with the queue (cached)."""
        from ..service.protocol import hash_bytes

        key = self._socket_contexts.get(context)
        if key is not None:
            self._socket_contexts.move_to_end(context)
            return key
        payload = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        key = hash_bytes(payload)
        queue.add_resource(key, payload, "context")
        self._socket_contexts[context] = key
        while len(self._socket_contexts) > self._SOCKET_CONTEXT_CAP:
            _, old_key = self._socket_contexts.popitem(last=False)
            queue.discard_resource(old_key)
        return key

    # ------------------------------------------------------------------
    # Submit, collect, and the degradation ladder
    # ------------------------------------------------------------------
    def _submit(
        self,
        job: TableJob,
        pool,
        queue,
        options: AnalysisOptions,
        deadline: Optional[float] = None,
        table_key: Optional[str] = None,
    ) -> concurrent.futures.Future:
        """Start ``job`` on the socket ``queue``, on ``pool``, or inline.

        Every future resolves to ``(job.index, contributions)``.  A socket
        job carries its table as an image (``table_key`` is that image's
        queue resource) and its context as a tuple, so the degradation
        ladder can re-run the very same job locally.
        """
        if queue is not None:
            return queue.submit_chunk(
                index=job.index,
                table=table_key,
                start=job.start,
                stop=job.stop,
                context=self._socket_context_key(queue, job.context),
                timeout=options.job_timeout,
                retries=options.job_retries,
                indices=job.indices,
                deadline=deadline,
            )
        if pool is None:
            return _run_inline(job)
        return pool.submit(run_table_job, job)

    def _wait_any(self, futures, queue) -> set:
        """Block until one of ``futures`` finishes.

        A socket job's timeout is only armed once a worker picks it up, so
        a queue that has lost every worker would otherwise pend forever:
        the wait polls, grants a workerless queue ``io_timeout`` seconds of
        grace (workers may be mid-reconnect) and then raises ``WorkerLost``
        so the caller can take the degradation ladder.
        """
        workerless_since: Optional[float] = None
        while True:
            done, _ = concurrent.futures.wait(
                futures,
                timeout=_SOCKET_POLL if queue is not None else None,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            if done:
                return done
            if queue.worker_count() > 0:
                workerless_since = None
                continue
            now = time.monotonic()
            if workerless_since is None:
                workerless_since = now
            elif now - workerless_since >= self.io_timeout:
                raise _worker_lost(queue)(
                    f"work queue has had no connected workers for "
                    f"{self.io_timeout:.1f}s"
                )

    def _collect(self, pending: list, queue) -> list[tuple[int, list[PathContribution]]]:
        """Gather ``(job, future)`` pairs into results sorted by job index.

        When the socket tier runs out of attempts or workers, the rest of
        the pending jobs are salvaged (:meth:`_salvage`) and the loop stops.
        """
        lost = _worker_lost(queue)
        results: list[tuple[int, list[PathContribution]]] = []
        for position, (_, future) in enumerate(pending):
            try:
                self._wait_any((future,), queue)
                results.append(future.result())  # re-raises worker exceptions
            except lost as error:
                results.extend(self._salvage(pending[position:], str(error)))
                break
        results.sort(key=lambda item: item[0])
        return results

    def _salvage(self, pending: Sequence, reason: str) -> list[tuple[int, list[PathContribution]]]:
        """Keep the socket results that landed; re-run the other jobs locally."""
        results, leftovers = [], []
        for job, future in pending:
            future.cancel()
            if future.done() and not future.cancelled() and future.exception() is None:
                results.append(future.result())
            else:
                leftovers.append(job)
        return results + self._run_locally(leftovers, reason)

    def _ensure_fallback_pool(self) -> Optional[concurrent.futures.ProcessPoolExecutor]:
        """The ladder's local process pool (lazily created, best-effort)."""
        if self._closed:
            return None
        if self._fallback_pool is None:
            try:
                self._fallback_pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers
                )
            except OSError:  # pragma: no cover - no subprocess support
                return None
        return self._fallback_pool

    def _run_locally(
        self, jobs: Sequence[TableJob], reason: str
    ) -> list[tuple[int, list[PathContribution]]]:
        """The degradation ladder: run socket jobs the queue failed, locally.

        First the lazily-created local process pool, and when that is broken
        too, the serial in-process loop.  Both rungs run the same inline-image
        jobs through :func:`run_table_job`, and the caller merges the results
        through the same canonical-order reduction as undisturbed ones — so a
        degraded query's bounds are **bit-identical** to a fault-free run.
        """
        if not jobs:
            return []
        warnings.warn(
            f"socket backend degraded ({reason}); re-dispatching "
            f"{len(jobs)} chunk(s) on the local process pool "
            "(falling back to serial if that fails too) — bounds are "
            "unaffected, only latency",
            RuntimeWarning,
            stacklevel=3,
        )
        self.degraded_chunks += len(jobs)
        pool = self._ensure_fallback_pool()
        if pool is not None:
            try:
                futures = [pool.submit(run_table_job, job) for job in jobs]
                results = [future.result() for future in futures]
                self.degraded_to = self.degraded_to or "process"
                return results
            except Exception:  # noqa: BLE001 - broken pool: take the last rung
                pass
        self.degraded_to = "serial"
        return [run_table_job(job) for job in jobs]

    # ------------------------------------------------------------------
    # Batch and refinement
    # ------------------------------------------------------------------
    def _run_jobs(
        self,
        execution: SymbolicExecutionResult,
        targets: tuple[Interval, ...],
        work: Sequence[tuple[int, int, Optional[tuple[int, ...]], AnalysisOptions]],
        kind: str,
    ) -> list[tuple[int, list[PathContribution]]]:
        """One table job per ``(start, stop, indices, options)`` of ``work``.

        The producer behind batch and refinement queries: the table is
        carried once per call in the form ``kind`` needs, each job gets its
        options' context, and the results come back sorted by job index.
        ``kind="serial"`` runs the jobs inline on any executor.
        """
        pool = self._ensure_pool() if kind in ("thread", "process") else None
        queue = self._ensure_queue() if kind == "socket" else None
        table_key = None
        if queue is not None:
            table_key, table = self._socket_table(execution, queue)
        elif kind == "process":
            segment = self._arena_for(execution)
            table = segment.name if segment is not None else execution.table().to_bytes()
        else:
            table = execution.table()
        pending = []
        for index, (start, stop, indices, options) in enumerate(work):
            context = (targets, options, analyzer_specs(options.analyzer_names))
            if kind == "process":
                context = self._process_context(context)
            job = TableJob(index, table, context, start, stop, indices)
            future = self._submit(job, pool, queue, options, _deadline(options), table_key)
            pending.append((job, future))
        return self._collect(pending, queue)

    def analyze(
        self,
        execution: SymbolicExecutionResult,
        targets: Sequence[Interval],
        options: Optional[AnalysisOptions] = None,
        report: Optional[AnalysisReport] = None,
    ) -> list[DenotationBounds]:
        """Denotation bounds for ``targets``, fanned out over the pool.

        The per-chunk results are reassembled in chunk order and folded in
        canonical path order, so the bounds are bit-identical to a serial
        :func:`repro.analysis.engine.analyze_execution` run.  Worker
        exceptions propagate to the caller.
        """
        target_tuple = tuple(targets)
        contributions = self.analyze_contributions(execution, target_tuple, options)
        return reduce_contributions(contributions, target_tuple, report)

    def analyze_contributions(
        self,
        execution: SymbolicExecutionResult,
        targets: Sequence[Interval],
        options: Optional[AnalysisOptions] = None,
    ) -> list[PathContribution]:
        """Per-path contribution records for ``targets``, in canonical order.

        The dispatch body behind :meth:`analyze`, exposed separately because
        the refinement scheduler needs the *per-path* records (to key its
        gap heap) rather than the reduced sums.  Chunk results are
        reassembled in chunk order, so ``reduce_contributions`` over the
        returned list reproduces :meth:`analyze` bit for bit.
        """
        if self._closed:
            raise RuntimeError("ParallelAnalysisExecutor is closed")
        options = options or AnalysisOptions()
        paths = execution.paths
        # chunk_size is a per-call knob: the caller's options win, the
        # executor's own value is only a default.
        chunk_size = options.chunk_size if options.chunk_size is not None else self.chunk_size
        chunks = partition_paths(paths, self.workers, chunk_size)
        self.chunks_dispatched += len(chunks)
        self.paths_analyzed += len(paths)
        # Empty or single-chunk work always runs inline: it is bit-identical
        # (same job) and avoids forking a pool (or binding a work queue) for
        # trivial path sets — e.g. one-path models under a process-wide
        # REPRO_ANALYSIS_WORKERS default.
        kind = self.kind if len(chunks) > 1 else "serial"
        work = [(chunk.start, chunk.stop, None, options) for chunk in chunks]
        results = self._run_jobs(execution, tuple(targets), work, kind)
        return [record for _, records in results for record in records]

    def analyze_refinement_jobs(
        self,
        execution: SymbolicExecutionResult,
        jobs: Sequence[tuple[tuple[int, ...], AnalysisOptions]],
        targets: Sequence[Interval],
    ) -> list[list[PathContribution]]:
        """Re-analyse explicit path-index groups, each under its own options.

        The refinement scheduler's dispatch primitive: every job is a
        ``(indices, options)`` pair — a scattered worst-gap subset of
        ``execution``'s path table plus the scaled split budgets of its
        refinement level.  Each becomes a table job with an index list, and
        the per-path records come back in job order with each job's records
        following its index order — so the scheduler's merge is
        deterministic on every backend.

        Returns one contribution list per job.
        """
        if self._closed:
            raise RuntimeError("ParallelAnalysisExecutor is closed")
        if not jobs:
            return []
        self.chunks_dispatched += len(jobs)
        self.paths_analyzed += sum(len(indices) for indices, _ in jobs)
        work = [(0, 0, tuple(indices), options) for indices, options in jobs]
        results = self._run_jobs(execution, tuple(targets), work, self.kind)
        return [records for _, records in results]

    # ------------------------------------------------------------------
    # Streaming analysis
    # ------------------------------------------------------------------
    def _stream_job(self, index: int, chunk_paths: tuple, context: tuple):
        """The table job of one streamed chunk, plus its cleanup (or None).

        A process pool gets a short-lived per-chunk segment (the full path
        set is unknown while the stream is live), unlinked by the cleanup;
        the socket tier and failed publishes get the chunk's table image.
        In-process backends get the chunk's ``PathTable``, built without
        the interning walk: nothing is serialised, so sharing equal
        sub-expressions would only cost time.
        """
        count = len(chunk_paths)
        if self.kind in ("serial", "thread"):
            table = PathTable.from_paths(chunk_paths, intern=False)
            return TableJob(index, table, context, 0, count), None
        if self.kind == "process":
            context = self._process_context(context)
            segment = None if self._arena_degraded else create_arena_segment(chunk_paths)
            if segment is not None:
                return TableJob(index, segment.name, context, 0, count), segment.unlink
            self._arena_degraded = True
        return TableJob(index, encode_paths(chunk_paths), context, 0, count), None

    def analyze_stream(
        self,
        paths: Iterable[SymbolicPath],
        targets: Sequence[Interval],
        options: Optional[AnalysisOptions] = None,
        report: Optional[AnalysisReport] = None,
        progress: Optional[Callable[[list[DenotationBounds], int], None]] = None,
        contribution_sink: Optional[list] = None,
    ) -> list[DenotationBounds]:
        """Denotation bounds from a *stream* of paths, pipelined over the pool.

        ``paths`` is consumed incrementally (typically the generator of
        :meth:`repro.symbolic.SymbolicExecutor.iter_paths`): paths are
        buffered into fixed-size chunks and each chunk is submitted as a
        table job as soon as it fills, so workers analyse the first chunks
        while exploration is still enumerating the rest.  The buffer is
        bounded — at most ``workers × options.prefetch`` jobs are in flight;
        when the bound is hit, chunk production blocks until a worker
        finishes.  Peak parent memory is therefore O(chunk size × prefetch ×
        workers) paths instead of the whole path set.

        Per-chunk results are reassembled in chunk order and folded in
        canonical path order, so streamed bounds are **bit-identical** to a
        batch :meth:`analyze` run and to the serial loop.  Exceptions from
        the path generator (e.g. a mid-stream
        :class:`~repro.symbolic.PathExplosionError`) and from workers
        propagate to the caller.

        ``progress`` (optional) is the anytime first-bound hook: it is
        invoked **once**, with ``(partial_bounds, paths_done)``, the moment
        the first chunk's contributions are collected.  Partial lower
        bounds are sound (contributions are non-negative); partial upper
        bounds cover only the paths analysed so far.

        ``contribution_sink`` (optional) receives the full canonical-order
        per-path contribution list once the stream completes — the
        refinement scheduler seeds from it without re-sweeping the paths
        (contribution records are a few floats per path, so retaining them
        does not undo the bounded path buffer).

        Under the ``"socket"`` backend each chunk's table image is
        registered with the work queue under its content hash and discarded
        the moment its result lands — the TCP analogue of the per-chunk
        segments.
        """
        if self._closed:
            raise RuntimeError("ParallelAnalysisExecutor is closed")
        options = options or AnalysisOptions()
        target_tuple = tuple(targets)
        chunk_size = options.chunk_size if options.chunk_size is not None else self.chunk_size
        if chunk_size is None:
            chunk_size = _STREAM_CHUNK_SIZE
        max_inflight = self.workers * options.prefetch
        context = (target_tuple, options, analyzer_specs(options.analyzer_names))

        start = time.perf_counter()
        self.peak_path_buffer = 0
        pool = self._ensure_pool()
        queue = self._ensure_queue() if self.kind == "socket" else None
        lost = _worker_lost(queue)
        #: The whole stream shares one deadline, like a batch query's jobs.
        deadline = _deadline(options)
        #: Flipped once the ladder fires: later chunks skip the dead socket
        #: tier and go straight to the local backend.
        socket_dead = False
        results: list[tuple[int, list[PathContribution]]] = []
        inflight: dict[concurrent.futures.Future, TableJob] = {}
        #: Per-chunk cleanups (segment unlink, queue resource discard), run
        #: when the chunk's result is collected or the stream dies.
        cleanups: dict[concurrent.futures.Future, Callable[[], None]] = {}
        buffer: list[SymbolicPath] = []
        progress_pending = progress is not None
        #: Completion timestamps recorded by done-callbacks (which fire the
        #: moment a worker finishes, possibly from the pool's result thread) —
        #: collecting a result later would overstate time-to-first-bound when
        #: the in-flight cap is never reached.
        done_at: list[float] = []
        path_count = 0
        chunk_index = 0

        def note_buffer() -> None:
            resident = len(buffer) + sum(job.stop - job.start for job in inflight.values())
            if resident > self.peak_path_buffer:
                self.peak_path_buffer = resident

        def fire_progress() -> None:
            """Invoke the anytime first-bound hook once, on the first result."""
            nonlocal progress_pending
            if not progress_pending or not results:
                return
            progress_pending = False
            ordered = sorted(results, key=lambda item: item[0])
            partial = [record for _, records in ordered for record in records]
            progress(reduce_contributions(partial, target_tuple, None), len(partial))

        def release(future: concurrent.futures.Future) -> None:
            cleanup = cleanups.pop(future, None)
            if cleanup is not None:
                cleanup()

        def collect(future: concurrent.futures.Future) -> None:
            nonlocal socket_dead
            job = inflight.pop(future)
            try:
                results.append(future.result())  # re-raises worker exceptions
            except lost as error:
                # Socket job out of attempts: this chunk takes the ladder;
                # the stream keeps flowing and the merge stays canonical.
                socket_dead = queue.worker_count() == 0
                results.extend(self._salvage([(job, future)], str(error)))
            finally:
                release(future)
            fire_progress()

        def wait_some() -> None:
            """Collect at least one in-flight job (ladder on a dead queue)."""
            nonlocal socket_dead
            try:
                done = self._wait_any(tuple(inflight), queue)
            except lost as error:
                # Every worker is gone and none came back: salvage the whole
                # in-flight set locally.
                socket_dead = True
                stranded = list(inflight.items())
                inflight.clear()
                for future, _ in stranded:
                    release(future)
                results.extend(self._salvage(
                    [(job, future) for future, job in stranded], str(error)
                ))
                fire_progress()
                return
            for finished in done:
                collect(finished)

        def dispatch() -> None:
            nonlocal chunk_index
            chunk_paths = tuple(buffer)
            index = chunk_index
            chunk_index += 1
            self.chunks_dispatched += 1
            buffer.clear()
            job, cleanup = self._stream_job(index, chunk_paths, context)
            if socket_dead:
                # The ladder already fired: skip the dead socket tier.
                results.extend(self._run_locally([job], "socket backend previously lost"))
                fire_progress()
                return
            table_key = None
            if queue is not None:
                from ..service.protocol import hash_bytes

                table_key = hash_bytes(job.table)
                queue.add_resource(table_key, job.table, "table")
                cleanup = lambda: queue.discard_resource(table_key)  # noqa: E731
            future = self._submit(job, pool, queue, options, deadline, table_key)
            inflight[future] = job
            if cleanup is not None:
                cleanups[future] = cleanup
            future.add_done_callback(lambda _: done_at.append(time.perf_counter()))
            note_buffer()
            if pool is None and queue is None:
                # Serial kind: collect at once, so the buffer stays bounded
                # by one chunk.
                collect(future)
            # Bounded buffer: block until a slot frees up.
            while len(inflight) >= max_inflight:
                wait_some()

        fault_plan = faults.active()
        try:
            for path in paths:
                if fault_plan is not None:
                    action = fault_plan.decide("stream.paths")
                    if action is not None and action.kind == "explode":
                        raise PathExplosionError(
                            "injected mid-stream path explosion "
                            f"(after {path_count} paths)"
                        )
                buffer.append(path)
                path_count += 1
                note_buffer()
                if len(buffer) >= chunk_size:
                    dispatch()
            if buffer:
                dispatch()
            while inflight:
                wait_some()
        finally:
            # On a mid-stream error, drop references to outstanding futures
            # and unlink their segments / discard their queue resources
            # (attached workers keep their mappings until they evict them;
            # the kernel reclaims the memory with the last detach).  The
            # pool itself stays usable for subsequent queries.
            inflight.clear()
            while cleanups:
                _, cleanup = cleanups.popitem()
                cleanup()

        self.paths_analyzed += path_count
        results.sort(key=lambda item: item[0])
        contributions = [record for _, records in results for record in records]
        if contribution_sink is not None:
            contribution_sink.extend(contributions)
        if report is not None:
            report.path_count += path_count
            report.truncated_paths += sum(int(c.truncated) for c in contributions)
            if done_at:
                report.first_result_seconds = min(done_at) - start
            report.peak_path_buffer = max(report.peak_path_buffer, self.peak_path_buffer)
        return reduce_contributions(contributions, target_tuple, report)
