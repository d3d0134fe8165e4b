"""Parallel bound-analysis: chunked fan-out of the per-path hot loop.

The GuBPI engine reduces posterior-bound computation to analysing a finite
set of symbolic interval paths and summing their contributions (Theorem 6.1).
The per-path analyses are completely independent — the classic
embarrassingly-parallel shape — yet the paper's workloads sit exactly in the
regime where it matters: path explosion (Section 7.5) produces tens of
thousands of paths, each of which runs a polytope volume computation or an
exponential box grid.

This module fans that loop out over a ``concurrent.futures`` pool:

* :func:`partition_paths` cuts the path set into *deterministic, contiguous,
  cost-balanced* chunks (using :meth:`SymbolicPath.analysis_cost_hint`), so
  the same workload always produces the same partition;
* :func:`analyze_chunk` / :func:`analyze_arena_chunk` are the units of work
  — the former receives plain pickled paths, the latter an
  :class:`~repro.analysis.transport.ArenaChunkRef` into a shared-memory
  arena segment (see :mod:`repro.analysis.transport`); both carry analyzer
  *names* (re-resolved through the registry inside the worker, see
  :func:`repro.analysis.registry.ensure_analyzers_registered`) and return
  raw :class:`~repro.analysis.engine.PathContribution` records;
* :class:`ParallelAnalysisExecutor` owns the pool, dispatches chunks and
  merges the results with :func:`repro.analysis.engine.reduce_contributions`,
  which always folds contributions in canonical path order — the merged
  bounds are therefore **bit-identical** to a serial run, independent of the
  worker count, the chunk size and the order in which workers finish.

Exceptions raised inside a worker (including
:class:`~repro.symbolic.PathExplosionError` and analyzer failures) are
re-raised in the parent by ``concurrent.futures``.

Backend guidance: the ``"process"`` executor is the right default for
CPU-bound bound analysis (the per-path work is pure Python and NumPy, so the
GIL serialises threads); ``"thread"`` is useful when the paths are cheap to
analyse but the payloads are large to pickle, or inside environments that
forbid subprocesses; ``"serial"`` runs the identical chunked pipeline
in-process (handy for debugging a parallel run).

Process payload transport is a knob (``payload_transport``): ``"arena"``
(the default) publishes the path set once as a shared-memory path-table
segment (cached across queries, unlinked on
:meth:`ParallelAnalysisExecutor.close`) and ships tiny index-range
references; ``"pickle"`` ships interned object graphs per chunk.  In-process
backends pass direct references and never intern.

The **columnar fast path** (``options.columnar``, on by default) analyses
chunks straight from the shared :class:`~repro.symbolic.arena.PathTable`:
arena workers run :func:`_analyze_table_range` over their attached segment,
and the in-process (serial/thread) backends run the identical loop over the
compiled program's own table — analyzers that implement ``analyze_table``
(box, linear) sweep the node/CSR arrays without materialising
``SymbolicPath`` objects, while analyzers without the hook transparently
receive decoded paths.  Bounds are bit-identical across every
transport/backend/columnar combination.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import os
import pickle
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from collections import OrderedDict

from .. import faults
from ..intervals import Interval
from ..symbolic import (
    PathExplosionError,
    SymbolicExecutionResult,
    SymbolicPath,
    intern_paths,
)
from ..symbolic.arena import encode_paths
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
    ArenaChunkRef,
    ArenaSegment,
    ContextSegment,
    attach_arena,
    attach_context,
    create_arena_segment,
    create_context_segment,
    publish_arena_image,
    register_worker_reset,
    shared_memory_available,
)

__all__ = [
    "ChunkPayload",
    "ParallelAnalysisExecutor",
    "analyze_arena_chunk",
    "analyze_chunk",
    "analyze_table_slice",
    "close_shared_executors",
    "partition_paths",
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
#: enough to amortise pickling overhead.
_STREAM_CHUNK_SIZE = 32


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


@dataclass(frozen=True)
class ChunkPayload:
    """Everything one worker needs to analyse one chunk of paths.

    The payload is deliberately *value-only*: paths, targets and options are
    plain picklable data, and analyzers travel as registry specs rather than
    instances (resolved by name inside the worker).
    """

    index: int
    paths: tuple[SymbolicPath, ...]
    targets: tuple[Interval, ...]
    options: AnalysisOptions
    specs: tuple[AnalyzerSpec, ...]


def _analyze_paths(
    paths: Sequence[SymbolicPath],
    targets: tuple[Interval, ...],
    options: AnalysisOptions,
    specs: tuple[AnalyzerSpec, ...],
) -> list[PathContribution]:
    """The worker-side per-chunk loop over materialised paths.

    Resolves the analyzer selection and delegates to
    :func:`_analyze_paths_resolved` (the pickled-payload transports arrive
    here; the arena transport resolves once per query shape instead, see
    :func:`analyze_arena_chunk`).
    """
    ensure_analyzers_registered(specs)
    return _analyze_paths_resolved(paths, targets, options, resolve_analyzers(options))


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


def _analyze_paths_resolved(
    paths: Sequence[SymbolicPath],
    targets: tuple[Interval, ...],
    options: AnalysisOptions,
    analyzers,
) -> list[PathContribution]:
    """The materialised per-chunk loop, shared by every payload transport.

    Consecutive paths handled by the same analyzer are grouped and handed to
    the analyzer's ``analyze_batch`` when it provides one, amortising
    per-call overhead (e.g. the box analyser's vectorised grid sweep) over
    the whole run; analyzers without batch support fall back to per-path
    calls.  Both routes produce the same per-path contribution records.
    """
    contributions: list[PathContribution] = []

    group: list[SymbolicPath] = []
    group_analyzer = None

    def flush() -> None:
        nonlocal group, group_analyzer
        if not group:
            return
        results = _batch_results(
            group_analyzer,
            getattr(group_analyzer, "analyze_batch", None),
            group,
            targets,
            options,
        )
        for path, result in zip(group, results):
            contributions.append(
                PathContribution(
                    analyzer_name=group_analyzer.name,
                    truncated=path.truncated,
                    contributions=tuple(result),
                )
            )
        group = []
        group_analyzer = None

    for path in paths:
        for analyzer in analyzers:
            if analyzer.applicable(path, options):
                if analyzer is not group_analyzer:
                    flush()
                    group_analyzer = analyzer
                group.append(path)
                break
        else:
            flush()
            # Delegate to the shared single-path helper for the canonical
            # "no applicable analyzer" error.
            contributions.append(analyze_single_path(path, analyzers, targets, options))
    flush()
    return contributions


def analyze_chunk(payload: ChunkPayload) -> tuple[int, list[PathContribution]]:
    """Analyse one pickled chunk of paths (runs inside a worker)."""
    return payload.index, _analyze_paths(
        payload.paths, payload.targets, payload.options, payload.specs
    )


def _analyze_table_range(
    table,
    start: int,
    stop: int,
    targets: tuple[Interval, ...],
    options: AnalysisOptions,
    analyzers,
    paths: Optional[Sequence[SymbolicPath]] = None,
    indices: Optional[Sequence[int]] = None,
) -> list[PathContribution]:
    """The columnar per-chunk loop over a ``PathTable`` slice.

    Every path index is routed to the first applicable analyzer — via its
    ``applicable_table`` hook when it has one, otherwise by asking
    ``applicable`` on the materialised path.  ``paths`` (optional) is the
    already-materialised path sequence the table was built from — in-process
    backends pass ``execution.paths`` so analyzers without the columnar
    hooks receive the original objects for free; workers over a
    shared-memory attachment leave it ``None`` and decode on demand
    (memoised per call).  Consecutive same-analyzer indices form a group:

    * analyzers with ``analyze_table`` receive the index group directly and
      sweep the table's node/CSR arrays — **no** ``SymbolicPath`` objects
      are materialised for them;
    * analyzers without the hook transparently receive the decoded paths
      through the same batch/per-path calls as the materialised loop.

    Contribution records (analyzer name, truncated flag, per-target bounds)
    are identical to :func:`_analyze_paths_resolved` over the decoded
    slice — the columnar route never moves a bound.

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
            paths = [path_at(index) for index in group]
            results = _batch_results(
                analyzer, getattr(analyzer, "analyze_batch", None), paths, targets, options
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
#: ``ensure_analyzers_registered`` already applied.  Without it every chunk
#: of a query re-decoded the context and re-resolved the registry — pure
#: per-chunk overhead for multi-chunk queries.  Context segments are
#: published once per query shape and shared by every arena segment of the
#: query (batch *and* streamed per-chunk segments), so the context name
#: alone is the right key — keying by arena segment too would miss on every
#: streamed chunk.
_RESOLVED_CONTEXTS: "OrderedDict[str, tuple]" = OrderedDict()
_RESOLVED_CONTEXT_CAP = 16

# The transport teardown helper is the documented full reset of per-worker
# state; the resolved-context cache participates.
register_worker_reset(_RESOLVED_CONTEXTS.clear)


def _resolved_context(context: str) -> tuple:
    """``(targets, options, analyzers)`` for one query shape (cached)."""
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

    The transport-independent chunk body: the columnar sweep under
    ``options.columnar``, the materialised loop otherwise — the same two
    routes every backend runs, so any consumer holding a table and resolved
    analyzers (process workers, the socket tier's remote workers, in-process
    backends, the engine's default ``workers=1`` loop) produces the exact
    same contribution records.

    ``indices`` (optional) overrides ``[start, stop)`` with an explicit
    path-index list — the refinement scheduler's scattered worst-gap
    subsets travel through the very same chunk body on every backend.
    """
    if options.columnar:
        return _analyze_table_range(
            table, start, stop, targets, options, analyzers, paths=paths, indices=indices
        )
    if indices is not None:
        decoded = (
            [paths[index] for index in indices]
            if paths is not None
            else [table.decode_path(index) for index in indices]
        )
    else:
        decoded = paths[start:stop] if paths is not None else table.decode_range(start, stop)
    return _analyze_paths_resolved(decoded, targets, options, analyzers)


def analyze_arena_chunk(ref: ArenaChunkRef) -> tuple[int, list[PathContribution]]:
    """Analyse one chunk referenced into a shared-memory path-table segment.

    The worker attaches the table segment on first sight (the attachment —
    with its decoded-node memo and analyzer scratch space — is cached across
    chunks and queries, see :func:`repro.analysis.transport.attach_arena`)
    and resolves the query context once per query shape instead of once per
    chunk.  The scratch space is how analyzer memos travel on this transport:
    the linear analyzer keeps its cross-path
    :class:`~repro.analysis.linear_analyzer.GeometryCache` there, so LP
    sweeps and exact volumes warm up across every chunk and query a worker
    sees — safely, because the cache's exact-bytes keying returns identical
    float64s on a hit, keeping bounds independent of which chunks landed on
    which worker.  With ``options.columnar`` (the default) the
    ``[start, stop)`` slice runs the columnar loop
    (:func:`_analyze_table_range`); otherwise the slice is decoded and runs
    the materialised loop.  Both compute bit-identical contributions, and
    both match the pickle transport.
    """
    targets, options, analyzers = _resolved_context(ref.context)
    table = attach_arena(ref.segment)
    return ref.index, analyze_table_slice(
        table, ref.start, ref.stop, targets, options, analyzers, indices=ref.indices
    )


def _gathered(results: list[tuple[int, list[PathContribution]]]) -> list[PathContribution]:
    """Reassemble per-chunk results into one canonical-order contribution list."""
    results.sort(key=lambda item: item[0])
    contributions: list[PathContribution] = []
    for _, chunk_contributions in results:
        contributions.extend(chunk_contributions)
    return contributions


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
    chunked pipeline without a pool, for debugging) or ``"socket"`` (a TCP
    work queue dispatching chunks to ``python -m repro.service.worker``
    processes — local ones it spawns itself and/or remote ones that connect
    to ``socket_endpoint``; see :mod:`repro.service.queue`).
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
        self._socket_tables: "OrderedDict[int, tuple[tuple, str]]" = OrderedDict()
        self._socket_contexts: "OrderedDict[tuple, str]" = OrderedDict()
        self._pool: Optional[concurrent.futures.Executor] = None
        self._closed = False
        #: Published arena segments, keyed by ``id`` of the path tuple they
        #: encode (each segment pins its tuple, so keys cannot alias).  The
        #: cache is what lets repeated queries over the same compiled path
        #: set dispatch with zero re-encoding and zero per-chunk path bytes.
        self._arena_segments: "OrderedDict[int, ArenaSegment]" = OrderedDict()
        #: Published query-context segments, keyed by the context value
        #: (targets, options, specs — all hashable), so a repeated query
        #: re-uses the published context just like it re-uses the arena.
        self._context_segments: "OrderedDict[tuple, ContextSegment]" = OrderedDict()
        #: Flipped when segment creation fails at runtime (e.g. exhausted
        #: /dev/shm): later queries skip straight to pickled payloads
        #: instead of re-encoding the whole arena image per query only to
        #: fail publishing it again.
        self._arena_degraded = False
        #: The degradation ladder's local process pool, created lazily the
        #: first time the socket backend has to hand work back (see
        #: :meth:`_complete_payloads_locally`).
        self._fallback_pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self.chunks_dispatched = 0
        self.paths_analyzed = 0
        self.arena_segments_created = 0
        #: Ladder telemetry: how many chunks were re-dispatched locally, and
        #: the lowest rung reached ("process" or "serial"; None = no
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
            # shared chunk loop, so a module-level import would be circular.
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
    # Arena segment lifecycle
    # ------------------------------------------------------------------
    #: How many per-query arena segments the executor keeps published.  One
    #: per cached compiled program is the common case; the small LRU bounds
    #: shared-memory usage when a model sweeps execution limits.
    _ARENA_CACHE_CAP = 4

    def _arena_for(self, execution: SymbolicExecutionResult) -> Optional[ArenaSegment]:
        """The published segment encoding ``execution.paths`` (created on miss).

        When the execution already carries a finalised columnar table (the
        batch collector or a previous in-process columnar query built it),
        its bytes are published directly; otherwise the paths are encoded
        through :func:`create_arena_segment`.  Either way the segment is
        just a backing store for the same table bytes.
        """
        if self._arena_degraded:
            return None
        paths = execution.paths
        key = id(paths)
        segment = self._arena_segments.get(key)
        if segment is not None and segment.paths is paths:
            self._arena_segments.move_to_end(key)
            return segment
        if shared_memory_available() and hasattr(execution, "table"):
            # The compiled program's columnar table (built by the run()
            # collector, or finalised here on first use) serialises straight
            # to the wire image — no re-interning, no encode walk.
            segment = publish_arena_image(execution.table().to_bytes(), paths)
        else:
            segment = create_arena_segment(paths)
        if segment is None:
            self._arena_degraded = True
            return None
        self._register_arena(key, segment)
        return segment

    def _register_arena(self, key: int, segment: ArenaSegment) -> None:
        self._arena_segments[key] = segment
        self.arena_segments_created += 1
        while len(self._arena_segments) > self._ARENA_CACHE_CAP:
            _, old = self._arena_segments.popitem(last=False)
            old.unlink()

    def prime_arena(
        self,
        paths: tuple[SymbolicPath, ...],
        intern: bool = True,
        image: Optional[bytes] = None,
    ) -> bool:
        """Publish (and cache) the arena segment for ``paths`` ahead of a query.

        Used by the streamed-query cache tee: once a streamed query has
        materialised its path set into the compile cache, priming makes the
        arena segment itself the cached dispatch representation — the next
        query over those paths attaches workers to the existing segment
        without re-encoding.  ``image`` (optional) is the already-encoded
        table bytes — the tee's builder serialises its columns directly, so
        priming never re-walks the paths.  Returns False when the arena
        transport is unavailable (the query will fall back to pickled
        payloads).
        """
        if self.kind != "process" or self._closed or self._arena_degraded:
            return False
        key = id(paths)
        existing = self._arena_segments.get(key)
        if existing is not None and existing.paths is paths:
            return True
        if image is not None and shared_memory_available():
            segment = publish_arena_image(image, paths)
        else:
            segment = create_arena_segment(paths, intern=intern)
        if segment is None:
            self._arena_degraded = True
            return False
        self._register_arena(key, segment)
        return True

    def arena_segment_names(self) -> tuple[str, ...]:
        """Names of the currently published per-query segments (telemetry)."""
        return tuple(segment.name for segment in self._arena_segments.values())

    #: How many query-context segments stay published (they are tiny — one
    #: pickled (targets, options, specs) tuple each).
    _CONTEXT_CACHE_CAP = 8

    def _context_for(
        self,
        targets: tuple[Interval, ...],
        options: AnalysisOptions,
        specs: tuple[AnalyzerSpec, ...],
    ) -> Optional[ContextSegment]:
        """The published context segment for one query shape (cached)."""
        key = (targets, options, specs)
        context = self._context_segments.get(key)
        if context is not None:
            self._context_segments.move_to_end(key)
            return context
        context = create_context_segment(targets, options, specs)
        if context is None:
            self._arena_degraded = True
            return None
        self._context_segments[key] = context
        while len(self._context_segments) > self._CONTEXT_CACHE_CAP:
            _, old = self._context_segments.popitem(last=False)
            old.unlink()
        return context

    # ------------------------------------------------------------------
    # Socket-backend resource registration
    # ------------------------------------------------------------------
    #: How many path-table resources stay registered with the work queue
    #: (mirrors the arena segment cache: one per cached compiled program).
    _SOCKET_TABLE_CAP = 4
    #: How many query-context resources stay registered (tiny pickles).
    _SOCKET_CONTEXT_CAP = 8

    def _socket_table_key(self, execution: SymbolicExecutionResult, queue) -> str:
        """Register ``execution``'s path-table image with the queue (cached).

        The content hash of the table bytes is the resource key, so the
        image is encoded once per compiled path set, shipped at most once
        per worker connection, and naturally deduplicated when two
        executions encode equal tables.
        """
        from ..service.protocol import hash_bytes

        paths = execution.paths
        ident = id(paths)
        entry = self._socket_tables.get(ident)
        if entry is not None and entry[0] is paths:
            self._socket_tables.move_to_end(ident)
            return entry[1]
        image = execution.table().to_bytes()
        key = hash_bytes(image)
        queue.add_resource(key, image, "table")
        self._socket_tables[ident] = (paths, key)
        while len(self._socket_tables) > self._SOCKET_TABLE_CAP:
            _, (_, old_key) = self._socket_tables.popitem(last=False)
            queue.discard_resource(old_key)
        return key

    def _socket_context_key(
        self,
        queue,
        targets: tuple[Interval, ...],
        options: AnalysisOptions,
        specs: tuple[AnalyzerSpec, ...],
    ) -> str:
        """Register one query shape's pickled context with the queue (cached)."""
        from ..service.protocol import hash_bytes

        cache_key = (targets, options, specs)
        key = self._socket_contexts.get(cache_key)
        if key is not None:
            self._socket_contexts.move_to_end(cache_key)
            return key
        payload = pickle.dumps(cache_key, protocol=pickle.HIGHEST_PROTOCOL)
        key = hash_bytes(payload)
        queue.add_resource(key, payload, "context")
        self._socket_contexts[cache_key] = key
        while len(self._socket_contexts) > self._SOCKET_CONTEXT_CAP:
            _, old_key = self._socket_contexts.popitem(last=False)
            queue.discard_resource(old_key)
        return key

    # ------------------------------------------------------------------
    # Degradation ladder (socket -> local process pool -> serial)
    # ------------------------------------------------------------------
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

    def _complete_payloads_locally(
        self, payloads: Sequence[ChunkPayload], reason: str
    ) -> list[tuple[int, list[PathContribution]]]:
        """Run chunks the socket backend failed on a local backend.

        The degradation ladder: first the lazily-created local process pool,
        and when that is broken too, the serial in-process loop.  Every rung
        runs the identical chunk body (:func:`analyze_chunk`), and the
        caller merges the returned ``(index, contributions)`` pairs through
        the same canonical-order reduction as undisturbed results — so a
        degraded query's bounds are **bit-identical** to a fault-free run.
        """
        if not payloads:
            return []
        warnings.warn(
            f"socket backend degraded ({reason}); re-dispatching "
            f"{len(payloads)} chunk(s) on the local process pool "
            "(falling back to serial if that fails too) — bounds are "
            "unaffected, only latency",
            RuntimeWarning,
            stacklevel=3,
        )
        self.degraded_chunks += len(payloads)
        pool = self._ensure_fallback_pool()
        if pool is not None:
            try:
                futures = [pool.submit(analyze_chunk, payload) for payload in payloads]
                results = [future.result() for future in futures]
                self.degraded_to = self.degraded_to or "process"
                return results
            except Exception:  # noqa: BLE001 - broken pool: take the last rung
                pass
        self.degraded_to = "serial"
        return [analyze_chunk(payload) for payload in payloads]

    def _socket_future_result(self, queue, future):
        """Wait on one socket-job future, policing a workerless queue.

        A socket job's timeout is only armed once a worker picks it up, so
        a queue that has lost every worker would otherwise pend forever.
        The poll loop grants a workerless queue ``io_timeout`` seconds of
        grace (workers may be mid-reconnect) and then raises ``WorkerLost``
        so the caller can take the degradation ladder.
        """
        from ..service.protocol import WorkerLost

        workerless_since: Optional[float] = None
        while True:
            try:
                return future.result(timeout=0.25)
            except concurrent.futures.TimeoutError:
                if queue.worker_count() > 0:
                    workerless_since = None
                    continue
                now = time.monotonic()
                if workerless_since is None:
                    workerless_since = now
                elif now - workerless_since >= self.io_timeout:
                    future.cancel()
                    raise WorkerLost(
                        f"work queue has had no connected workers for "
                        f"{self.io_timeout:.1f}s"
                    ) from None

    def _analyze_socket(
        self,
        execution: SymbolicExecutionResult,
        target_tuple: tuple[Interval, ...],
        options: AnalysisOptions,
        specs: tuple[AnalyzerSpec, ...],
        chunks: list[range],
    ) -> list[PathContribution]:
        """Batch dispatch over the TCP work queue.

        The distributed analogue of the arena branch in :meth:`analyze`:
        the table image and the query context are content-addressed
        resources registered once, every chunk travels as a tiny index
        range, and the futures merge through the same canonical-order
        reduction — socket bounds are bit-identical to serial bounds.

        When the queue exhausts a job's retries or loses every worker, the
        unfinished chunks ride the degradation ladder
        (:meth:`_complete_payloads_locally`); already-collected socket
        results are kept, and the merge stays canonical, so the recovered
        bounds match the undisturbed run bit for bit.
        """
        from ..service.protocol import WorkerLost

        queue = self._ensure_queue()
        table_key = self._socket_table_key(execution, queue)
        context_key = self._socket_context_key(queue, target_tuple, options, specs)
        deadline = (
            time.monotonic() + options.time_budget
            if options.time_budget is not None
            else None
        )
        futures = [
            queue.submit_chunk(
                index=chunk_index,
                table=table_key,
                start=chunk.start,
                stop=chunk.stop,
                context=context_key,
                timeout=options.job_timeout,
                retries=options.job_retries,
                deadline=deadline,
            )
            for chunk_index, chunk in enumerate(chunks)
        ]
        paths = execution.paths

        def payload_for(chunk_index: int) -> ChunkPayload:
            chunk = chunks[chunk_index]
            return ChunkPayload(
                index=chunk_index,
                paths=tuple(paths[chunk.start : chunk.stop]),
                targets=target_tuple,
                options=options,
                specs=specs,
            )

        results: list[tuple[int, list[PathContribution]]] = []
        for chunk_index, future in enumerate(futures):
            try:
                results.append(self._socket_future_result(queue, future))
            except WorkerLost as error:
                # The socket tier is out of attempts or out of workers:
                # salvage whatever later chunks already finished, hand the
                # rest down the ladder.
                leftovers = [payload_for(chunk_index)]
                for later_index in range(chunk_index + 1, len(futures)):
                    later = futures[later_index]
                    later.cancel()
                    if later.done() and not later.cancelled() and later.exception() is None:
                        results.append(later.result())
                    else:
                        leftovers.append(payload_for(later_index))
                results.extend(self._complete_payloads_locally(leftovers, str(error)))
                break
        return _gathered(results)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
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
        target_tuple = tuple(targets)
        paths = execution.paths
        # chunk_size is a per-call knob: the caller's options win, the
        # executor's own value is only a default.
        chunk_size = options.chunk_size if options.chunk_size is not None else self.chunk_size
        chunks = partition_paths(paths, self.workers, chunk_size)
        # Custom analyzers must be resolvable by name inside remote workers
        # (process pool or socket queue); fail fast in the parent when a
        # name is simply unknown.
        remote = self.kind in ("process", "socket")
        specs = analyzer_specs(options.analyzer_names) if remote else ()
        if not remote:
            resolve_analyzers(options)
        self.chunks_dispatched += len(chunks)
        self.paths_analyzed += len(paths)

        # Empty or single-chunk work always runs inline: it is bit-identical
        # (same per-chunk loop) and avoids forking a pool (or binding a work
        # queue) for trivial path sets — e.g. one-path models under a
        # process-wide REPRO_ANALYSIS_WORKERS default.
        if self.kind == "socket" and len(chunks) > 1:
            return self._analyze_socket(execution, target_tuple, options, specs, chunks)
        pooled = len(chunks) > 1 and self.kind != "serial"
        pool = self._ensure_pool() if pooled else None
        pooled = pool is not None

        if pooled and self.kind == "process" and options.effective_transport == "arena":
            segment = self._arena_for(execution)
            context = (
                self._context_for(target_tuple, options, specs)
                if segment is not None
                else None
            )
            if segment is not None and context is not None:
                # Zero-copy dispatch: the arena segment is written (or cache
                # hit) once per path set and the query context once per query
                # shape; each chunk ships as a tiny index range into the
                # arena's path table.
                refs = [
                    ArenaChunkRef(
                        index=chunk_index,
                        segment=segment.name,
                        nbytes=segment.nbytes,
                        start=chunk.start,
                        stop=chunk.stop,
                        context=context.name,
                    )
                    for chunk_index, chunk in enumerate(chunks)
                ]
                futures = [pool.submit(analyze_arena_chunk, ref) for ref in refs]
                results = [future.result() for future in futures]
                return _gathered(results)

        # In-process columnar fast path: serial/thread backends (and inline
        # single-chunk runs on any backend) analyse the compiled program's
        # shared PathTable — the identical columnar sweep the process
        # workers run over their shared-memory attachment, including its
        # per-table memo reuse across chunks and queries.  Nothing is
        # interned, pickled or published.
        if options.columnar and (pool is None or self.kind == "thread"):
            table = execution.table()
            analyzers = resolve_analyzers(options)

            def run_table_chunk(chunk_index: int, chunk: range):
                return chunk_index, _analyze_table_range(
                    table, chunk.start, chunk.stop, target_tuple, options, analyzers,
                    paths=paths,
                )

            if pool is None:
                results = [run_table_chunk(i, chunk) for i, chunk in enumerate(chunks)]
            else:
                futures = [pool.submit(run_table_chunk, i, chunk) for i, chunk in enumerate(chunks)]
                results = [future.result() for future in futures]
            return _gathered(results)

        # Pickle transport (and the remaining in-process routes).  Interning
        # only pays for itself when chunks are actually pickled to a process
        # pool; serial/thread backends and inline runs pass direct
        # references, so they skip the memo walk entirely.
        memo: Optional[dict] = {} if pooled and self.kind == "process" else None
        payloads = [
            ChunkPayload(
                index=chunk_index,
                paths=(
                    intern_paths(paths[chunk.start : chunk.stop], memo)
                    if memo is not None
                    else tuple(paths[chunk.start : chunk.stop])
                ),
                targets=target_tuple,
                options=options,
                specs=specs,
            )
            for chunk_index, chunk in enumerate(chunks)
        ]
        if not pooled:
            results = [analyze_chunk(payload) for payload in payloads]
        else:
            futures = [pool.submit(analyze_chunk, payload) for payload in payloads]
            results = [future.result() for future in futures]
        return _gathered(results)

    # ------------------------------------------------------------------
    # Refinement dispatch
    # ------------------------------------------------------------------
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
        refinement level.  Jobs ride the executor's regular chunk machinery
        (arena refs / pickled payloads / socket index jobs, depending on
        backend and transport), and the per-path records come back in job
        order with each job's records following its index order — so the
        scheduler's merge is deterministic on every backend.

        Returns one contribution list per job.
        """
        if self._closed:
            raise RuntimeError("ParallelAnalysisExecutor is closed")
        if not jobs:
            return []
        target_tuple = tuple(targets)
        paths = execution.paths
        self.chunks_dispatched += len(jobs)
        self.paths_analyzed += sum(len(indices) for indices, _ in jobs)

        if self.kind == "socket":
            from ..service.protocol import WorkerLost

            queue = self._ensure_queue()
            table_key = self._socket_table_key(execution, queue)
            futures = []
            for job_index, (indices, options) in enumerate(jobs):
                specs = analyzer_specs(options.analyzer_names)
                context_key = self._socket_context_key(queue, target_tuple, options, specs)
                deadline = (
                    time.monotonic() + options.time_budget
                    if options.time_budget is not None
                    else None
                )
                futures.append(
                    queue.submit_chunk(
                        index=job_index,
                        table=table_key,
                        start=0,
                        stop=0,
                        context=context_key,
                        timeout=options.job_timeout,
                        retries=options.job_retries,
                        indices=indices,
                        deadline=deadline,
                    )
                )

            def job_payload(job_index: int) -> ChunkPayload:
                indices, options = jobs[job_index]
                return ChunkPayload(
                    index=job_index,
                    paths=tuple(paths[i] for i in indices),
                    targets=target_tuple,
                    options=options,
                    specs=analyzer_specs(options.analyzer_names),
                )

            results: list[tuple[int, list[PathContribution]]] = []
            for job_index, future in enumerate(futures):
                try:
                    results.append(self._socket_future_result(queue, future))
                except WorkerLost as error:
                    leftovers = [job_payload(job_index)]
                    for later_index in range(job_index + 1, len(futures)):
                        later = futures[later_index]
                        later.cancel()
                        if later.done() and not later.cancelled() and later.exception() is None:
                            results.append(later.result())
                        else:
                            leftovers.append(job_payload(later_index))
                    results.extend(self._complete_payloads_locally(leftovers, str(error)))
                    break
            results.sort(key=lambda item: item[0])
            return [contributions for _, contributions in results]

        pool = self._ensure_pool() if self.kind in ("thread", "process") else None

        if (
            pool is not None
            and self.kind == "process"
            and jobs[0][1].effective_transport == "arena"
        ):
            segment = self._arena_for(execution)
            if segment is not None:
                refs = []
                for job_index, (indices, options) in enumerate(jobs):
                    specs = analyzer_specs(options.analyzer_names)
                    context = self._context_for(target_tuple, options, specs)
                    if context is None:
                        refs = None
                        break
                    refs.append(
                        ArenaChunkRef(
                            index=job_index,
                            segment=segment.name,
                            nbytes=segment.nbytes,
                            start=0,
                            stop=0,
                            context=context.name,
                            indices=tuple(indices),
                        )
                    )
                if refs is not None:
                    futures = [pool.submit(analyze_arena_chunk, ref) for ref in refs]
                    return [future.result()[1] for future in futures]

        if pool is not None and self.kind == "process":
            # Pickle fallback: the selected paths travel as an interned
            # object graph per job (one fresh memo each — jobs are small).
            payloads = [
                ChunkPayload(
                    index=job_index,
                    paths=intern_paths(tuple(paths[i] for i in indices), {}),
                    targets=target_tuple,
                    options=options,
                    specs=analyzer_specs(options.analyzer_names),
                )
                for job_index, (indices, options) in enumerate(jobs)
            ]
            futures = [pool.submit(analyze_chunk, payload) for payload in payloads]
            return [future.result()[1] for future in futures]

        # In-process backends run the shared table slice body directly over
        # the compiled program's own table (honouring options.columnar).
        table = execution.table()

        def run_job(indices: tuple[int, ...], options: AnalysisOptions):
            analyzers = resolve_analyzers(options)
            return analyze_table_slice(
                table, 0, 0, target_tuple, options, analyzers,
                paths=paths, indices=indices,
            )

        if pool is None:
            return [run_job(tuple(indices), options) for indices, options in jobs]
        futures = [pool.submit(run_job, tuple(indices), options) for indices, options in jobs]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Streaming analysis
    # ------------------------------------------------------------------
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
        buffered into fixed-size chunks and dispatched as soon as a chunk
        fills, so workers analyse the first chunks while exploration is still
        enumerating the rest.  The buffer is bounded — at most
        ``workers × options.prefetch`` chunks are in flight; when the bound
        is hit, chunk production blocks until a worker finishes.  Peak parent
        memory is therefore O(chunk size × prefetch × workers) paths instead
        of the whole path set.

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

        Under the ``"socket"`` backend each chunk is encoded as its own
        small path-table image, registered with the work queue under its
        content hash, dispatched as an index-range job, and discarded the
        moment its result lands — the TCP analogue of the per-chunk arena
        segments below.
        """
        if self._closed:
            raise RuntimeError("ParallelAnalysisExecutor is closed")
        options = options or AnalysisOptions()
        target_tuple = tuple(targets)
        chunk_size = options.chunk_size if options.chunk_size is not None else self.chunk_size
        if chunk_size is None:
            chunk_size = _STREAM_CHUNK_SIZE
        max_inflight = self.workers * options.prefetch

        remote = self.kind in ("process", "socket")
        specs = analyzer_specs(options.analyzer_names) if remote else ()
        if not remote:
            resolve_analyzers(options)

        start = time.perf_counter()
        self.peak_path_buffer = 0
        pool = self._ensure_pool()
        queue = self._ensure_queue() if self.kind == "socket" else None
        queue_context: Optional[str] = None
        if queue is not None:
            queue_context = self._socket_context_key(queue, target_tuple, options, specs)
        # Streamed arena dispatch publishes one short-lived segment per chunk
        # (the full path set is unknown while the stream is live); a segment
        # is unlinked the moment its chunk's result is collected, and the
        # ``finally`` below sweeps whatever is outstanding when the stream
        # dies mid-way (e.g. a PathExplosionError).
        use_arena = (
            pool is not None
            and self.kind == "process"
            and options.effective_transport == "arena"
            and shared_memory_available()
            and not self._arena_degraded
        )
        stream_segments: dict[concurrent.futures.Future, ArenaSegment] = {}
        #: Socket streaming: per-chunk table resources retired on collection
        #: (the work-queue analogue of the per-chunk arena segments).
        stream_resources: dict[concurrent.futures.Future, str] = {}
        #: Socket streaming: the local re-dispatch payload of every in-flight
        #: chunk, so a chunk whose socket job is lost rides the degradation
        #: ladder instead of failing the query.  Bounded by ``max_inflight``.
        stream_chunk_payloads: dict[concurrent.futures.Future, ChunkPayload] = {}
        #: Absolute deadline derived from ``options.time_budget`` (the whole
        #: stream shares it, like a batch query's chunks do).
        stream_deadline = (
            time.monotonic() + options.time_budget
            if options.time_budget is not None
            else None
        )
        #: Flipped once the ladder fires: later chunks skip the dead socket
        #: tier and go straight to the local backend.
        socket_dead = False
        workerless_since: Optional[float] = None
        results: list[tuple[int, list[PathContribution]]] = []
        inflight: dict[concurrent.futures.Future, int] = {}  # future -> path count
        buffer: list[SymbolicPath] = []
        progress_pending = progress is not None
        #: Completion timestamps recorded by done-callbacks (which fire the
        #: moment a worker finishes, possibly from the pool's result thread) —
        #: collecting a result later would overstate time-to-first-bound when
        #: the in-flight cap is never reached.
        done_at: list[float] = []
        first_result_seconds: Optional[float] = None
        path_count = 0
        chunk_index = 0

        def note_buffer() -> None:
            resident = len(buffer) + sum(inflight.values())
            if resident > self.peak_path_buffer:
                self.peak_path_buffer = resident

        def note_done(_future: concurrent.futures.Future) -> None:
            done_at.append(time.perf_counter())

        def fire_progress() -> None:
            """Invoke the anytime first-bound hook once, on the first result."""
            nonlocal progress_pending
            if not progress_pending or not results:
                return
            progress_pending = False
            ordered = sorted(results, key=lambda item: item[0])
            partial: list[PathContribution] = []
            for _, chunk_contributions in ordered:
                partial.extend(chunk_contributions)
            progress(reduce_contributions(partial, target_tuple, None), len(partial))

        def collect(future: concurrent.futures.Future) -> None:
            nonlocal socket_dead
            from ..service.protocol import WorkerLost

            inflight.pop(future)
            segment = stream_segments.pop(future, None)
            resource = stream_resources.pop(future, None)
            payload = stream_chunk_payloads.pop(future, None)
            try:
                results.append(future.result())  # re-raises worker exceptions
            except WorkerLost as error:
                # Socket job out of attempts: this chunk takes the ladder;
                # the stream keeps flowing and the merge stays canonical.
                if payload is None:
                    raise
                socket_dead = queue.worker_count() == 0
                results.extend(self._complete_payloads_locally([payload], str(error)))
            finally:
                if segment is not None:
                    segment.unlink()
                if resource is not None:
                    queue.discard_resource(resource)
            fire_progress()

        def wait_some() -> None:
            """Collect at least one in-flight future (ladder on a dead queue).

            Pool futures always complete eventually, but socket futures on a
            workerless queue would pend forever (their timeouts arm at
            dispatch) — so the socket wait polls, grants a workerless queue
            ``io_timeout`` of reconnect grace, and then pulls every stranded
            chunk down the degradation ladder.
            """
            nonlocal socket_dead, workerless_since
            while inflight:
                done, _ = concurrent.futures.wait(
                    tuple(inflight),
                    timeout=0.25 if queue is not None else None,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                if done:
                    workerless_since = None
                    for finished in done:
                        collect(finished)
                    return
                if queue is None:
                    continue
                if queue.worker_count() > 0:
                    workerless_since = None
                    continue
                now = time.monotonic()
                if workerless_since is None:
                    workerless_since = now
                    continue
                if now - workerless_since < self.io_timeout:
                    continue
                # Every worker is gone and none came back: strand-collect
                # the whole in-flight set locally.
                socket_dead = True
                stranded = list(inflight)
                payloads: list[ChunkPayload] = []
                for future in stranded:
                    inflight.pop(future)
                    key = stream_resources.pop(future, None)
                    if key is not None:
                        queue.discard_resource(key)
                    payload = stream_chunk_payloads.pop(future, None)
                    future.cancel()
                    if future.done() and not future.cancelled() and future.exception() is None:
                        results.append(future.result())
                    elif payload is not None:
                        payloads.append(payload)
                results.extend(self._complete_payloads_locally(
                    payloads,
                    f"work queue has had no connected workers for {self.io_timeout:.1f}s",
                ))
                fire_progress()
                return

        def dispatch() -> None:
            nonlocal chunk_index, first_result_seconds, use_arena
            chunk_paths = tuple(buffer)
            index = chunk_index
            chunk_index += 1
            self.chunks_dispatched += 1
            buffer.clear()
            if pool is None and queue is None:
                # Serial kind: the identical chunked pipeline without a pool —
                # the buffer stays bounded by one chunk, and nothing is
                # pickled, so the paths travel as direct references.
                payload = ChunkPayload(
                    index=index, paths=chunk_paths, targets=target_tuple,
                    options=options, specs=specs,
                )
                self.peak_path_buffer = max(self.peak_path_buffer, len(chunk_paths))
                results.append(analyze_chunk(payload))
                if first_result_seconds is None:
                    first_result_seconds = time.perf_counter() - start
                fire_progress()
                return

            if queue is not None:
                payload = ChunkPayload(
                    index=index, paths=chunk_paths, targets=target_tuple,
                    options=options, specs=specs,
                )
                if socket_dead:
                    # The ladder already fired: skip the dead socket tier.
                    results.extend(self._complete_payloads_locally(
                        [payload], "socket backend previously lost"
                    ))
                    fire_progress()
                    return
                from ..service.protocol import hash_bytes

                image = encode_paths(chunk_paths)
                key = hash_bytes(image)
                queue.add_resource(key, image, "table")
                future = queue.submit_chunk(
                    index=index,
                    table=key,
                    start=0,
                    stop=len(chunk_paths),
                    context=queue_context,
                    timeout=options.job_timeout,
                    retries=options.job_retries,
                    deadline=stream_deadline,
                )
                stream_resources[future] = key
                stream_chunk_payloads[future] = payload
                inflight[future] = len(chunk_paths)
                future.add_done_callback(note_done)
                note_buffer()
                while len(inflight) >= max_inflight:
                    wait_some()
                return

            segment: Optional[ArenaSegment] = None
            context: Optional[ContextSegment] = None
            if use_arena:
                context = self._context_for(target_tuple, options, specs)
                segment = create_arena_segment(chunk_paths) if context is not None else None
                if segment is None:
                    use_arena = False  # degrade once, stay degraded
                    self._arena_degraded = True
            if segment is not None:
                future = pool.submit(
                    analyze_arena_chunk,
                    ArenaChunkRef(
                        index=index,
                        segment=segment.name,
                        nbytes=segment.nbytes,
                        start=0,
                        stop=len(chunk_paths),
                        context=context.name,
                    ),
                )
                stream_segments[future] = segment
            else:
                # Pickled chunk: intern against a fresh memo per chunk —
                # pickle's own memoisation is per-payload, so cross-chunk
                # sharing would not shrink payloads further, it would only
                # retain every unique expression of the whole stream in the
                # parent for the query's lifetime.  The thread backend passes
                # direct references and skips the memo walk.
                payload = ChunkPayload(
                    index=index,
                    paths=(
                        intern_paths(chunk_paths, {})
                        if self.kind == "process"
                        else chunk_paths
                    ),
                    targets=target_tuple,
                    options=options,
                    specs=specs,
                )
                future = pool.submit(analyze_chunk, payload)
            inflight[future] = len(chunk_paths)
            future.add_done_callback(note_done)
            note_buffer()
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
            # and unlink their arena segments (attached workers keep their
            # mappings until they evict them; the kernel reclaims the memory
            # with the last detach).  The pool itself stays usable for
            # subsequent queries.
            inflight.clear()
            stream_chunk_payloads.clear()
            while stream_segments:
                _, leftover = stream_segments.popitem()
                leftover.unlink()
            while stream_resources:
                _, leftover_key = stream_resources.popitem()
                queue.discard_resource(leftover_key)

        if done_at and first_result_seconds is None:
            first_result_seconds = min(done_at) - start
        self.paths_analyzed += path_count
        results.sort(key=lambda item: item[0])
        contributions: list[PathContribution] = []
        for _, chunk_contributions in results:
            contributions.extend(chunk_contributions)
        if contribution_sink is not None:
            contribution_sink.extend(contributions)
        if report is not None:
            report.path_count += path_count
            report.truncated_paths += sum(int(c.truncated) for c in contributions)
            if first_result_seconds is not None:
                report.first_result_seconds = first_result_seconds
            report.peak_path_buffer = max(report.peak_path_buffer, self.peak_path_buffer)
        return reduce_contributions(contributions, target_tuple, report)
