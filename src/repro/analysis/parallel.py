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
  only unit of work on every backend.  Its table and context travel as
  *carriers* that the executor picks in one table store and one context
  store: shared-memory segment names on process pools (inline images once
  publishing fails), content-addressed queue resource keys on the socket
  tier, and the compiled objects in-process.  Analyzers travel as registry
  *specs* inside the context and are re-resolved by name in the worker
  (:func:`repro.analysis.transport.resolve_context`);
* :func:`run_table_job` resolves a job and runs :func:`analyze_table_slice`,
  the one chunk body every backend and the socket workers share;
* :class:`ParallelAnalysisExecutor` owns the pools and is the only
  dispatch route: a ``workers=1`` query runs on its ``"serial"`` kind.
  Batch, refinement and streamed queries are job producers over one job
  loop, and the per-job results merge through
  :func:`repro.analysis.engine.reduce_contributions` in canonical path order
  — the bounds are therefore **bit-identical** to a serial run, independent
  of the backend, the worker count, the chunk size and the order in which
  workers finish.

Exceptions raised inside a worker (including
:class:`~repro.symbolic.PathExplosionError` and analyzer failures) are
re-raised in the parent.  A socket job that exhausts its retries, or whose
queue loses every worker, takes the degradation ladder: it is re-run on
its inline payloads on the executor's own local process pool, then
serially.

Backend guidance: the ``"process"`` executor is the right default for
CPU-bound bound analysis (the per-path work is pure Python and NumPy, so the
GIL serialises threads); ``"thread"`` suits environments that forbid
subprocesses; ``"serial"`` runs the identical jobs in-process, one at a
time.

Analyzers that implement ``analyze_table`` (box, linear) sweep the table's
node/CSR arrays without materialising ``SymbolicPath`` objects; analyzers
without the hook transparently receive decoded paths.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import dataclasses
import functools
import os
import pickle
import time
import warnings
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
    reduce_contributions,
)
from .registry import analyzer_specs
from .transport import (
    TableJob,
    create_arena_segment,
    create_context_segment,
    job_table,
    publish_arena_image,
    resolve_context,
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
    indices: Optional[Sequence[int]] = None,
) -> list[PathContribution]:
    """Analyse one ``[start, stop)`` slice of a ``PathTable`` (resolved form).

    The one chunk body: process and socket workers and the in-process
    backends (the serial kind included) all run it, so every consumer
    holding a table and resolved analyzers produces the exact same
    contribution records.

    Every path index is routed to the first applicable analyzer — via its
    ``applicable_table`` hook when it has one, otherwise by asking
    ``applicable`` on the path, decoded on demand (memoised per call).
    Consecutive same-analyzer indices form a group:

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
            names = ", ".join(options.analyzer_names)
            raise RuntimeError(
                f"no analyzer in ({names}) is applicable to a symbolic path; "
                "include the universal 'box' analyzer as a fallback"
            )
        if analyzer is not group_analyzer:
            flush()
            group_analyzer = analyzer
        group.append(index)
    flush()
    return contributions


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
    targets, options, analyzers = resolve_context(job.context)
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
#: (direct ``analyze_execution`` / ``analyze_path_stream`` calls).  ``Model``
#: owns and closes its executors explicitly and does not use this.
_SHARED_EXECUTORS: dict[tuple[str, int], "ParallelAnalysisExecutor"] = {}


def shared_executor(options: AnalysisOptions) -> "ParallelAnalysisExecutor":
    """A process-wide executor matching ``options``' kind and worker count.

    Created lazily and reused for every subsequent query with the same
    ``(kind, workers)`` — without this, each engine-level call with parallel
    options would fork and tear down a fresh pool (serial options get the
    shared ``"serial"`` executor).  Shared pools live until
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
    lazily on the first multi-job query and reused across queries, which is
    how :class:`repro.Model` amortises pool start-up over a whole evaluation
    scenario.  It is a context manager; :meth:`close` shuts the pool down.

    ``kind`` is one of ``"process"`` (default; true CPU parallelism),
    ``"thread"`` (no pickling, but GIL-bound), ``"serial"`` (the identical
    jobs in-process, one at a time: the ``workers=1`` route) or ``"socket"``
    (a TCP work queue dispatching jobs to ``python -m repro.service.worker``
    processes — local ones it spawns itself and/or remote ones that connect
    to ``socket_endpoint``; see :mod:`repro.service.queue`).

    Its one kind decides how tables and contexts travel: a table store and
    a context store (small LRUs) publish each resource once — segments on
    the process kind, queue resources on the socket kind — and release it
    on eviction or :meth:`close`.  An executor owns at most one pool: the
    socket kind's is the degradation ladder's local process pool.
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
        #: (see :meth:`_ensure_queue`).
        self._queue = None
        #: The lazily-created pool of the thread and process kinds; on the
        #: socket kind, the degradation ladder's local process pool.
        self._pool: Optional[concurrent.futures.Executor] = None
        self._closed = False
        #: The two published-resource stores (see :meth:`_stored`): path
        #: tables keyed by ``id`` of the path tuple they encode (each entry
        #: pins its tuple, so keys cannot alias), and query contexts keyed
        #: by the ``(targets, options, specs)`` value.  They are what lets
        #: repeated queries dispatch with zero re-encoding and zero per-job
        #: path bytes.
        self._tables: "OrderedDict[int, tuple]" = OrderedDict()
        self._contexts: "OrderedDict[tuple, tuple]" = OrderedDict()
        #: Flipped when segment creation fails at runtime (e.g. exhausted
        #: /dev/shm): later queries skip straight to inline table images
        #: instead of re-encoding the image per query only to fail
        #: publishing it again.
        self._arena_degraded = False
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
    def _ensure_pool(self) -> concurrent.futures.Executor:
        """The lazily-created pool of the ``"thread"`` and ``"process"`` kinds."""
        if self._closed:
            raise RuntimeError("ParallelAnalysisExecutor is closed")
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
        if self._queue is not None:
            self._queue.close()
            self._queue = None
        for store in (self._tables, self._contexts):
            while store:
                _, (_, _, release) = store.popitem(last=False)
                release()

    def __enter__(self) -> "ParallelAnalysisExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("warm" if self._pool else "cold")
        return (
            f"ParallelAnalysisExecutor(kind={self.kind!r}, workers={self.workers}, "
            f"chunk_size={self.chunk_size}, tables={len(self._tables)}, {state})"
        )

    # ------------------------------------------------------------------
    # Table and context carriers
    # ------------------------------------------------------------------
    #: How many path tables stay published.  One per cached compiled
    #: program is the common case; the small LRU bounds shared-memory (or
    #: queue) usage when a model sweeps execution limits.
    _TABLE_CACHE_CAP = 4
    #: How many query contexts stay published (they are tiny — one pickled
    #: (targets, options, specs) tuple each).
    _CONTEXT_CACHE_CAP = 8

    def _stored(self, store: OrderedDict, cap: int, key, pin, publish):
        """The carrier ``store`` holds under ``key``, published on a miss.

        ``publish()`` returns ``(carrier, release)``; an inline carrier
        (``release`` is None: nothing was published) is not stored.  The
        entry pins ``pin``.  Past ``cap`` entries the least recently used
        one is released, unless another entry shares its carrier (equal
        tables share one content-addressed queue key).
        """
        entry = store.get(key)
        if entry is not None:
            store.move_to_end(key)
            return entry[1]
        carrier, release = publish()
        if release is not None:
            store[key] = (pin, carrier, release)
            while len(store) > cap:
                _, (_, old, old_release) = store.popitem(last=False)
                if all(entry[1] != old for entry in store.values()):
                    old_release()
        return carrier

    def _queue_resource(self, payload: bytes, kind: str) -> tuple:
        """Register ``payload`` with the work queue: ``(key, release)``.

        The content hash of the bytes is the key, so a payload ships at most
        once per worker connection and equal payloads share one resource.
        """
        from ..service.protocol import hash_bytes

        queue = self._ensure_queue()
        key = hash_bytes(payload)
        queue.add_resource(key, payload, kind)
        return key, functools.partial(queue.discard_resource, key)

    def _publish_table(self, paths: Sequence[SymbolicPath], image: Optional[bytes] = None):
        """Publish one path table on this executor's kind: ``(carrier, release)``.

        ``image`` is the table's byte image; without it ``paths`` are
        encoded (a streamed chunk).  The process kind publishes a segment,
        or carries the image inline once publishing has failed; the socket
        kind registers the image with the work queue.
        """
        if self.kind == "process" and not self._arena_degraded:
            segment = (
                create_arena_segment(paths) if image is None
                else publish_arena_image(image, paths)
            )
            if segment is not None:
                self.arena_segments_created += 1
                return segment.name, segment.unlink
            self._arena_degraded = True
        if image is None:
            image = encode_paths(paths)
        if self.kind == "socket":
            return self._queue_resource(image, "table")
        return image, None

    def _table(self, execution: SymbolicExecutionResult, kind: str):
        """The carrier of ``execution``'s table for ``kind``'s jobs.

        The compiled program's ``PathTable`` serialises straight to the
        published image — no re-interning, no encode walk — and the table
        store keeps it published for later queries.  In-process kinds get
        the ``PathTable`` itself.
        """
        if kind not in ("process", "socket"):
            return execution.table()
        paths = execution.paths
        return self._stored(
            self._tables, self._TABLE_CACHE_CAP, id(paths), paths,
            lambda: self._publish_table(paths, execution.table().to_bytes()),
        )

    def _context(self, context: tuple, kind: str):
        """The carrier of one query shape's ``(targets, options, specs)``.

        A context segment on the process kind (the tuple itself once
        publishing has failed), a queue resource on the socket kind, and
        the tuple in-process; the context store keeps it published.
        """
        if kind not in ("process", "socket"):
            return context

        def publish() -> tuple:
            if self.kind == "socket":
                image = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
                return self._queue_resource(image, "context")
            segment = None if self._arena_degraded else create_context_segment(*context)
            if segment is None:
                self._arena_degraded = True
                return context, None
            return segment.name, segment.unlink

        return self._stored(self._contexts, self._CONTEXT_CACHE_CAP, context, None, publish)

    def prime_arena(self, execution: SymbolicExecutionResult) -> bool:
        """Publish (and store) the arena segment of ``execution`` ahead of a query.

        Used by the streamed-query cache tee: once a streamed query has
        materialised its path set into the compile cache, priming makes the
        segment the cached dispatch representation too — the next query
        attaches workers to it without re-encoding.  Returns False when
        this is no process pool or publishing is unavailable.
        """
        if self.kind != "process" or self._closed or self._arena_degraded:
            return False
        return isinstance(self._table(execution, "process"), str)

    def arena_segment_names(self) -> tuple[str, ...]:
        """Names of the currently published table segments (telemetry)."""
        if self.kind != "process":
            return ()
        return tuple(carrier for _, carrier, _ in self._tables.values())

    # ------------------------------------------------------------------
    # Submit, the job loop, and the degradation ladder
    # ------------------------------------------------------------------
    def _submit(
        self,
        job: TableJob,
        pool,
        queue,
        options: AnalysisOptions,
        deadline: Optional[float] = None,
    ) -> concurrent.futures.Future:
        """Start ``job`` on the socket ``queue``, on ``pool``, or inline.

        Every future resolves to ``(job.index, contributions)``.  A socket
        job's table and context are queue resource keys.
        """
        if queue is not None:
            return queue.submit_chunk(
                index=job.index,
                table=job.table,
                start=job.start,
                stop=job.stop,
                context=job.context,
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

    def _job_loop(
        self,
        jobs: Iterable[tuple[TableJob, Optional[Callable[[], None]]]],
        kind: str,
        options: AnalysisOptions,
        max_inflight: Optional[int] = None,
        on_result: Optional[Callable[[list], None]] = None,
        done_at: Optional[list[float]] = None,
    ) -> list[tuple[int, list[PathContribution]]]:
        """Run ``(job, cleanup)`` pairs on ``kind``'s backend, sorted by job index.

        The one dispatch loop of batch, refinement and streamed queries.
        ``jobs`` is a list, or a generator that runs between submissions
        (the stream's chunker).  At most ``max_inflight`` jobs are in
        flight (``None``: no cap), and the serial kind runs one at a time.
        With a cap, :attr:`peak_path_buffer` records the high-water mark of
        paths in flight.  A job's ``cleanup`` (or ``None``) runs once its
        result is collected or the loop dies.

        ``options`` carries the socket knobs: job timeout, retries and one
        deadline for the whole loop.  Jobs arrive with their carriers
        published (see :meth:`_table` and :meth:`_context`).
        ``on_result(results)`` (optional) runs after every collection, and
        ``done_at`` (optional) receives every job's completion time.

        The degradation ladder: a socket job out of attempts is re-run
        locally (:meth:`_salvage`) while the rest flow on; a queue without
        workers hands back every job in flight, and later jobs skip it.
        """
        pool = self._ensure_pool() if kind in ("thread", "process") else None
        queue = self._ensure_queue() if kind == "socket" else None
        cap = 1 if pool is None and queue is None else max_inflight
        lost = _worker_lost(queue)
        budget = options.time_budget
        deadline = None if budget is None else time.monotonic() + budget
        results: list[tuple[int, list[PathContribution]]] = []
        inflight: dict[concurrent.futures.Future, tuple] = {}
        socket_dead = False

        def settle(future: concurrent.futures.Future) -> None:
            nonlocal socket_dead
            job, cleanup = inflight.pop(future)
            try:
                results.append(future.result())  # re-raises worker exceptions
            except lost as error:
                socket_dead = queue.worker_count() == 0
                results.extend(self._salvage([(job, future)], str(error), queue))
            finally:
                if cleanup is not None:
                    cleanup()

        def wait_some() -> None:
            nonlocal socket_dead
            try:
                done = self._wait_any(tuple(inflight), queue)
            except lost as error:
                socket_dead = True
                # Salvage before the cleanups: the local re-runs read the
                # jobs' payloads from the queue.
                results.extend(self._salvage(
                    [(job, future) for future, (job, _) in inflight.items()], str(error), queue
                ))
                for _, cleanup in inflight.values():
                    if cleanup is not None:
                        cleanup()
                inflight.clear()
                done = ()
            for future in done:
                settle(future)
            if on_result is not None:
                on_result(results)

        try:
            for job, cleanup in jobs:
                if socket_dead:
                    results.extend(
                        self._run_locally([job], "socket backend previously lost", queue)
                    )
                    if cleanup is not None:
                        cleanup()
                    if on_result is not None:
                        on_result(results)
                    continue
                future = self._submit(job, pool, queue, options, deadline)
                inflight[future] = (job, cleanup)
                if done_at is not None:
                    future.add_done_callback(lambda _: done_at.append(time.perf_counter()))
                if max_inflight is not None:
                    resident = sum(job.stop - job.start for job, _ in inflight.values())
                    self.peak_path_buffer = max(self.peak_path_buffer, resident)
                while cap is not None and len(inflight) >= cap:
                    wait_some()
            while inflight:
                wait_some()
        finally:
            # On an error, drop the outstanding futures and run their
            # cleanups (attached workers keep their mappings until they
            # evict them); the pool itself stays usable.
            for _, cleanup in inflight.values():
                if cleanup is not None:
                    cleanup()
            inflight.clear()
        results.sort(key=lambda item: item[0])
        return results

    def _salvage(
        self, pending: Sequence, reason: str, queue
    ) -> list[tuple[int, list[PathContribution]]]:
        """Keep the socket results that landed; re-run the other jobs locally."""
        results, leftovers = [], []
        for job, future in pending:
            future.cancel()
            if future.done() and not future.cancelled() and future.exception() is None:
                results.append(future.result())
            else:
                leftovers.append(job)
        return results + self._run_locally(leftovers, reason, queue)

    def _run_locally(
        self, jobs: Sequence[TableJob], reason: str, queue
    ) -> list[tuple[int, list[PathContribution]]]:
        """The degradation ladder: run socket jobs the queue failed, locally.

        Each job is re-run on the payloads its queue keys name — an inline
        table image and a pickled context.  First the executor's lazily
        created process pool, and when the executor is closed or the pool
        broken, the serial in-process loop.  Both rungs run the same jobs
        through :func:`run_table_job`, and the caller merges the results
        through the same canonical-order reduction as undisturbed ones — so
        a degraded query's bounds are **bit-identical** to a fault-free run.
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
        jobs = [
            dataclasses.replace(
                job, table=queue.resource(job.table), context=queue.resource(job.context)
            )
            for job in jobs
        ]
        try:
            pool = self._ensure_pool()  # raises once the executor is closed
            futures = [pool.submit(run_table_job, job) for job in jobs]
            results = [future.result() for future in futures]
            self.degraded_to = self.degraded_to or "process"
            return results
        except Exception:  # noqa: BLE001 - closed executor or broken pool: the last rung
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
        options' context, and the job loop runs them without an in-flight
        cap.  The jobs share one set of socket knobs: refinement levels
        scale split budgets only.
        """
        if not work:
            return []
        table = self._table(execution, kind)
        jobs = []
        for index, (start, stop, indices, options) in enumerate(work):
            specs = analyzer_specs(options.analyzer_names)
            context = self._context((targets, options, specs), kind)
            jobs.append((TableJob(index, table, context, start, stop, indices), None))
        return self._job_loop(jobs, kind, work[0][3])

    def analyze(
        self,
        execution: SymbolicExecutionResult,
        targets: Sequence[Interval],
        options: Optional[AnalysisOptions] = None,
        report: Optional[AnalysisReport] = None,
    ) -> list[DenotationBounds]:
        """Denotation bounds for ``targets``, fanned out over the pool.

        The per-chunk results are reassembled in chunk order and folded in
        canonical path order, so the bounds are bit-identical on every
        backend, worker count and chunk size.  Worker exceptions propagate
        to the caller.
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
        if chunk_size is None and self.kind == "serial":
            # No pool to balance: the whole table is one job.
            chunk_size = max(1, len(paths))
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
        self.chunks_dispatched += len(jobs)
        self.paths_analyzed += sum(len(indices) for indices, _ in jobs)
        work = [(0, 0, tuple(indices), options) for indices, options in jobs]
        results = self._run_jobs(execution, tuple(targets), work, self.kind)
        return [records for _, records in results]

    # ------------------------------------------------------------------
    # Streaming analysis
    # ------------------------------------------------------------------
    def _stream_job(self, index: int, chunk_paths: tuple, context):
        """The ``(job, cleanup)`` pair of one streamed chunk.

        The process and socket kinds publish each chunk on its own (the
        full path set is unknown while the stream is live) as a short-lived
        segment or queue resource, and the cleanup releases it once the
        result lands.  In-process kinds get the chunk's ``PathTable``, built
        without the interning walk: nothing is serialised, so sharing equal
        sub-expressions would only cost time.
        """
        self.chunks_dispatched += 1
        count = len(chunk_paths)
        if self.kind in ("serial", "thread"):
            table = PathTable.from_paths(chunk_paths, intern=False)
            return TableJob(index, table, context, 0, count), None
        table, release = self._publish_table(chunk_paths)
        return TableJob(index, table, context, 0, count), release

    def _stream_jobs(
        self, paths: Iterable[SymbolicPath], chunk_size: int, context
    ) -> Iterator[tuple[TableJob, Optional[Callable[[], None]]]]:
        """Chunk a path stream into table jobs, each as soon as it fills."""
        fault_plan = faults.active()
        buffer: list[SymbolicPath] = []
        index = path_count = 0
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
            if len(buffer) >= chunk_size:
                yield self._stream_job(index, tuple(buffer), context)
                index += 1
                buffer = []
        if buffer:
            yield self._stream_job(index, tuple(buffer), context)

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
        buffered into fixed-size chunks (``chunk_size``, by default
        ``_STREAM_CHUNK_SIZE``) and each chunk is submitted as a table job
        as soon as it fills, so workers analyse the first chunks while
        exploration is still enumerating the rest.  The buffer is bounded —
        at most ``workers × options.prefetch`` jobs are in flight (one on
        the serial kind); when the bound is hit, chunk production blocks
        until a job finishes.  Peak parent memory is therefore O(chunk size
        × prefetch × workers) paths instead of the whole path set.

        Per-chunk results are reassembled in chunk order and folded in
        canonical path order, so streamed bounds are **bit-identical** to a
        batch :meth:`analyze` run.  Exceptions from the path generator
        (e.g. a mid-stream :class:`~repro.symbolic.PathExplosionError`) and
        from workers propagate to the caller.

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

        Each chunk's table is published on its own and released the moment
        its result lands: a segment on the process kind, a work-queue
        resource on the socket kind.  The query context is published once.
        """
        if self._closed:
            raise RuntimeError("ParallelAnalysisExecutor is closed")
        options = options or AnalysisOptions()
        target_tuple = tuple(targets)
        chunk_size = options.chunk_size if options.chunk_size is not None else self.chunk_size
        context = self._context(
            (target_tuple, options, analyzer_specs(options.analyzer_names)), self.kind
        )
        #: Completion timestamps recorded by done-callbacks (which fire the
        #: moment a worker finishes) — collecting a result later would
        #: overstate time-to-first-bound when the in-flight cap is never
        #: reached.
        done_at: list[float] = []

        def first_bound(results: list) -> None:
            """Invoke the anytime first-bound hook once, on the first result."""
            nonlocal progress
            if progress is not None and results:
                hook, progress = progress, None
                ordered = sorted(results, key=lambda item: item[0])
                partial = [record for _, records in ordered for record in records]
                hook(reduce_contributions(partial, target_tuple, None), len(partial))

        start = time.perf_counter()
        self.peak_path_buffer = 0
        results = self._job_loop(
            self._stream_jobs(paths, chunk_size or _STREAM_CHUNK_SIZE, context),
            self.kind, options,
            max_inflight=self.workers * options.prefetch,
            on_result=first_bound,
            done_at=done_at,
        )
        contributions = [record for _, records in results for record in records]
        self.paths_analyzed += len(contributions)
        if contribution_sink is not None:
            contribution_sink.extend(contributions)
        if report is not None:
            report.path_count += len(contributions)
            report.truncated_paths += sum(int(c.truncated) for c in contributions)
            if done_at:
                report.first_result_seconds = min(done_at) - start
            report.peak_path_buffer = max(report.peak_path_buffer, self.peak_path_buffer)
        return reduce_contributions(contributions, target_tuple, report)
