"""The TCP work queue behind ``AnalysisOptions(executor="socket")``.

:class:`WorkQueueServer` is the parent-side half of the distributed bound
engine: it owns a listening socket, a deque of pending jobs and a registry
of content-addressed **resources** (path-table images and pickled query
contexts).  Worker processes (:mod:`repro.service.worker`) connect over
TCP; each connection gets a dedicated dispatcher thread that pulls jobs
off the queue, ships whatever resources the worker does not hold yet, and
waits for the result.

The design mirrors the shared-memory transport one layer out:

* a **chunk job** is the TCP form of a
  :class:`~repro.analysis.transport.TableJob` — a table key plus an
  ``[start, stop)`` index range plus a context key, a few hundred bytes
  regardless of chunk size;
* **resources** are sent at most once per worker connection and cached
  worker-side in a small LRU.  The dispatcher mirrors each worker's LRU
  (same capacity, same touch order), so it knows exactly which keys the
  worker still holds and never round-trips to find out.

Failure handling is what distinguishes a work queue from a socket-shaped
pool:

* **per-job timeout** — a job that produces no result within its deadline
  is requeued *to the front* of the queue and the wedged worker's
  connection is dropped (the worker reconnects when it comes back);
* **worker death** — a connection that dies with a job in flight requeues
  that job the same way;
* **bounded retry** — every requeue counts as a spent attempt; a job that
  fails ``retries + 1`` times surfaces :class:`JobRetriesExhausted` (or
  :class:`JobError` with the worker traceback, when the worker reported a
  real exception) on its future, so a job that can never succeed fails the
  query instead of cycling forever.

Results arrive on :class:`concurrent.futures.Future` objects, so callers
(:class:`repro.analysis.parallel.ParallelAnalysisExecutor`) collect them
with the exact machinery they use for process pools — which is how socket
bounds stay **bit-identical** to serial bounds: same chunk loop in the
worker, same canonical-order reduction in the parent.

**Durability** (optional): pass ``journal_path`` and the queue keeps a
write-ahead journal (:mod:`repro.service.journal`) of resource manifests,
job enqueues, dispatches and completions.  On construction over an
existing journal the queue *replays* it — re-registering resources and
requeuing every job that was enqueued but never completed (or
permanently failed) — so a ``kill -9`` loses at most the fsync batch
tail, never the backlog.  A clean :meth:`close` marks the journal so the
next start knows pending jobs were deliberately failed, not lost.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import os
import pathlib
import pickle
import socket
import subprocess
import sys
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .. import faults as _faults
from ..analysis.config import (
    DEFAULT_IO_TIMEOUT,
    DEFAULT_JOB_RETRIES,
    DEFAULT_JOB_TIMEOUT,
    parse_endpoint,
)
from .journal import Journal, JournalReplay, NullJournal
from .protocol import (
    ConnectionClosed,
    DeadlineExceeded,
    ProtocolError,
    WorkerLost,
    recv_frame,
    send_frame,
)

__all__ = [
    "HEARTBEAT_MISS_FACTOR",
    "JobError",
    "JobRetriesExhausted",
    "QueueClosed",
    "QueueRecovery",
    "WorkQueueServer",
    "replay_queue_journal",
]

#: How many heartbeat intervals may pass without *any* frame from a worker
#: before its connection is reaped as unresponsive.  Three intervals
#: tolerates scheduling jitter while still reaping a wedged worker in a
#: couple of seconds instead of waiting out the full job timeout.
HEARTBEAT_MISS_FACTOR = 3


class QueueClosed(RuntimeError):
    """The queue was shut down while the job was still pending."""


class JobError(RuntimeError):
    """A worker reported an exception for this job on every attempt.

    The message carries the worker-side exception type and traceback of the
    final attempt, so analyzer bugs surface with their real stack even
    though they happened in another process on (possibly) another host.
    """


class JobRetriesExhausted(WorkerLost):
    """The job timed out or lost its worker on every allowed attempt.

    A :class:`~repro.service.protocol.WorkerLost`: the failure is an
    infrastructure loss, not an analyzer error, so callers (the parallel
    executor's degradation ladder, service clients) can branch on the
    typed base class.
    """


class _WorkerUnresponsive(ConnectionClosed):
    """A heartbeating worker sent no frame for the whole liveness window."""


@dataclass
class _Job:
    """One unit of queued work and its delivery state."""

    job_id: int
    spec: dict  # wire header fields (sans type/job_id), e.g. table/start/stop
    resources: tuple[str, ...]
    timeout: Optional[float]
    retries: int
    #: Absolute ``time.monotonic()`` deadline of the *caller* — a job whose
    #: caller has already given up is failed fast instead of re-dispatched.
    deadline: Optional[float] = None
    future: concurrent.futures.Future = field(default_factory=concurrent.futures.Future)
    attempts: int = 0  # dispatches so far
    last_error: Optional[str] = None

    def fail(self, error: Exception) -> None:
        if not self.future.done():
            self.future.set_exception(error)


@dataclass
class QueueRecovery:
    """What a queue journal replays to (see :func:`replay_queue_journal`)."""

    #: key -> (kind, payload): every journaled resource manifest.
    resources: dict[str, tuple[str, bytes]] = field(default_factory=dict)
    #: Enqueue records (journal headers) to requeue, in enqueue order.
    pending: list[dict] = field(default_factory=list)
    completed: set[int] = field(default_factory=set)
    failed: set[int] = field(default_factory=set)
    #: The journal ended with a clean-shutdown marker: pending jobs were
    #: deliberately failed by close(), not lost — nothing is requeued.
    clean: bool = False
    records: int = 0
    torn: bool = False


def replay_queue_journal(replay: JournalReplay) -> QueueRecovery:
    """Fold a journal's accepted record prefix into recovery state.

    Pure and total over whatever :meth:`Journal.replay` accepted: a job is
    requeued iff its enqueue record survived and no completion, permanent
    failure or clean-shutdown marker did — so replay never resurrects a
    journaled completion and always requeues journaled-but-unfinished
    work.  (A crash inside the fsync batch window can lose *tail* records;
    that loses at most the last batch of enqueues, never reorders.)
    """
    recovery = QueueRecovery(records=len(replay.records), torn=replay.torn)
    enqueued: dict[int, dict] = {}
    for header, blob in replay.records:
        kind = header.get("type")
        recovery.clean = kind == "clean"
        if kind == "resource":
            recovery.resources[header["key"]] = (header["kind"], blob)
        elif kind == "enqueue":
            enqueued[int(header["job_id"])] = header
        elif kind == "complete":
            recovery.completed.add(int(header["job_id"]))
        elif kind == "failed":
            recovery.failed.add(int(header["job_id"]))
        elif kind == "clean":
            # Positional: close() failed everything still pending *at this
            # point*, so those jobs are resolved — records appended by a
            # later incarnation of the queue are unaffected.
            for job_id in enqueued:
                if job_id not in recovery.completed:
                    recovery.failed.add(job_id)
    recovery.pending = [
        record
        for job_id, record in sorted(enqueued.items())
        if job_id not in recovery.completed and job_id not in recovery.failed
    ]
    return recovery


class WorkQueueServer:
    """A TCP work-queue server feeding chunk jobs to remote workers.

    ``endpoint`` is a ``host:port`` string; port ``0`` binds an ephemeral
    port (the effective address is :attr:`address` / :attr:`endpoint`).
    The server starts listening immediately on construction; jobs submitted
    before any worker connects simply wait in the queue.
    """

    def __init__(
        self,
        endpoint: str = "127.0.0.1:0",
        job_timeout: Optional[float] = DEFAULT_JOB_TIMEOUT,
        job_retries: int = DEFAULT_JOB_RETRIES,
        io_timeout: float = DEFAULT_IO_TIMEOUT,
        journal_path: Optional[str] = None,
    ) -> None:
        host, port = parse_endpoint(endpoint)
        self.job_timeout = job_timeout
        self.job_retries = job_retries
        #: Socket-level patience: the handshake read timeout, and the
        #: liveness window for workers that do not heartbeat.
        self.io_timeout = io_timeout
        self._listener = socket.create_server((host, port))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._jobs_available = threading.Condition(self._lock)
        self._pending: deque[_Job] = deque()
        self._resources: dict[str, tuple[str, bytes]] = {}  # key -> (kind, payload)
        self._closed = False
        self._job_ids = itertools.count()
        self._connections: set[socket.socket] = set()
        self._threads: list[threading.Thread] = []
        self._spawned: list[subprocess.Popen] = []
        # Telemetry (under self._lock).
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_requeued = 0
        self.resources_sent = 0
        self.workers_reaped = 0
        self._running = 0
        self._workers = 0
        # Durability (optional): replay an existing journal before opening
        # it for append, so a restarted queue resumes its backlog.  Without
        # a journal path every append goes to a null journal.
        self._journal = NullJournal()
        self.journal_records_replayed = 0
        self.jobs_recovered = 0
        self.journal_clean: Optional[bool] = None
        #: job_id -> future of every job requeued from the journal, so a
        #: restarted owner can await recovered work.
        self.recovered_jobs: dict[int, concurrent.futures.Future] = {}
        if journal_path is not None:
            recovery = replay_queue_journal(Journal.replay(journal_path))
            self._journal = Journal(journal_path)  # truncates any torn tail
            self.journal_records_replayed = recovery.records
            self.journal_clean = recovery.clean
            self._resources.update(recovery.resources)
            for record in recovery.pending:
                job = _Job(
                    job_id=int(record["job_id"]),
                    spec=dict(record["spec"]),
                    resources=tuple(record.get("resources", ())),
                    timeout=record.get("timeout"),
                    retries=int(record.get("retries", self.job_retries)),
                )
                self._pending.append(job)
                self.recovered_jobs[job.job_id] = job.future
                self.jobs_submitted += 1
                self.jobs_recovered += 1
            seen_ids = (
                {int(record["job_id"]) for record in recovery.pending}
                | recovery.completed
                | recovery.failed
            )
            self._job_ids = itertools.count(max(seen_ids) + 1 if seen_ids else 0)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-queue-accept", daemon=True
        )
        self._accept_thread.start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def endpoint(self) -> str:
        """The bound ``host:port`` (with the real port when ``:0`` was asked)."""
        host, port = self.address
        return f"{host}:{port}"

    def add_resource(self, key: str, payload: bytes, kind: str) -> None:
        """Register a content-addressed payload workers may need (idempotent).

        ``kind`` is ``"table"`` (a path-table byte image) or ``"context"``
        (a pickled ``(targets, options, specs)`` tuple).  Registering an
        already-known key is a no-op — content addressing guarantees equal
        keys mean equal bytes.
        """
        with self._lock:
            known = key in self._resources
            self._resources.setdefault(key, (kind, payload))
        if not known:
            self._journal.append({"type": "resource", "key": key, "kind": kind}, blob=payload)

    def discard_resource(self, key: str) -> None:
        """Drop a registered payload (streamed chunks retire theirs eagerly)."""
        with self._lock:
            self._resources.pop(key, None)

    def submit_chunk(
        self,
        index: int,
        table: str,
        start: int,
        stop: int,
        context: str,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        indices: Optional[Sequence[int]] = None,
        deadline: Optional[float] = None,
    ) -> concurrent.futures.Future:
        """Queue one chunk job: analyse ``table[start:stop]`` under ``context``.

        ``indices`` (optional) replaces the contiguous range with an
        explicit path-index list — the refinement scheduler's scattered
        worst-gap subsets ride the same job kind (and the same resource
        caching) as regular chunks.  ``deadline`` (optional) is the caller's
        absolute ``time.monotonic()`` deadline: a job that has not been
        dispatched by then fails with
        :class:`~repro.service.protocol.DeadlineExceeded` instead of
        occupying a worker whose result nobody will read.

        Returns a future resolving to ``(index, [PathContribution, ...])`` —
        the exact shape process-pool chunk futures resolve to.
        """
        spec = {"kind": "chunk", "index": index, "table": table, "start": start,
                "stop": stop, "context": context}
        if indices is not None:
            spec["indices"] = [int(i) for i in indices]
        return self._submit(spec, resources=(table, context), timeout=timeout,
                            retries=retries, deadline=deadline)

    def submit_sleep(
        self,
        seconds: float,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> concurrent.futures.Future:
        """Queue a job that just sleeps in the worker (timeout/retry testing)."""
        return self._submit(
            {"kind": "sleep", "seconds": seconds}, resources=(), timeout=timeout,
            retries=retries, deadline=deadline,
        )

    def _submit(
        self,
        spec: dict,
        resources: tuple[str, ...],
        timeout: Optional[float],
        retries: Optional[int],
        deadline: Optional[float] = None,
    ) -> concurrent.futures.Future:
        job = _Job(
            job_id=next(self._job_ids),
            spec=spec,
            resources=resources,
            timeout=self.job_timeout if timeout is None else timeout,
            retries=self.job_retries if retries is None else retries,
            deadline=deadline,
        )
        with self._jobs_available:
            if self._closed:
                raise QueueClosed("work queue is closed")
            for key in resources:
                if key not in self._resources:
                    raise KeyError(f"unknown resource {key!r}; add_resource it first")
            # Journal *before* the job becomes visible to dispatchers, so a
            # completion record can never precede its enqueue.
            self._journal.append({
                "type": "enqueue",
                "job_id": job.job_id,
                "spec": spec,
                "resources": list(resources),
                "timeout": job.timeout,
                "retries": job.retries,
            })
            self.jobs_submitted += 1
            self._pending.append(job)
            self._jobs_available.notify()
        return job.future

    def spawn_local_workers(
        self,
        count: int,
        cache_cap: Optional[int] = None,
        faults: Optional[str] = None,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        """Launch ``count`` worker processes connected to this queue.

        Workers run ``python -m repro.service.worker`` with the current
        interpreter and environment (so ``PYTHONPATH`` arrangements carry
        over) and are terminated by :meth:`close`.  ``faults`` sets the
        child's ``REPRO_FAULTS`` plan (the chaos suite targets *one* worker
        this way, so a surviving worker's hit counters stay clean); ``None``
        inherits the parent's environment, ``""`` explicitly clears it.
        """
        argv = [sys.executable, "-m", "repro.service.worker", "--connect", self.endpoint]
        if cache_cap is not None:
            argv += ["--cache-cap", str(cache_cap)]
        if heartbeat_interval is not None:
            argv += ["--heartbeat", str(heartbeat_interval)]
        # The parent may have ``repro`` importable through sys.path edits
        # that the environment does not reflect (pytest's ``pythonpath``
        # ini option, editable installs): pin the package root onto the
        # child's PYTHONPATH so ``-m repro.service.worker`` resolves.
        package_root = str(pathlib.Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        if package_root not in (existing or "").split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root if not existing else package_root + os.pathsep + existing
            )
        first_env = env
        if faults is not None:
            first_env = dict(env)
            if faults:
                first_env[_faults.ENV_VAR] = faults
            else:
                first_env.pop(_faults.ENV_VAR, None)
        for index in range(count):
            self._spawned.append(
                subprocess.Popen(argv, env=first_env if index == 0 else env)
            )

    def worker_count(self) -> int:
        """How many workers are currently connected."""
        with self._lock:
            return self._workers

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> bool:
        """Block until ``count`` workers are connected (or ``timeout`` passes)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.worker_count() >= count:
                return True
            time.sleep(0.01)
        return self.worker_count() >= count

    def stats(self) -> dict:
        """A snapshot of queue health (pending/running/completed/failed...)."""
        with self._lock:
            return {
                "pending": len(self._pending),
                "running": self._running,
                "workers": self._workers,
                "submitted": self.jobs_submitted,
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
                "requeued": self.jobs_requeued,
                "reaped": self.workers_reaped,
                "resources": len(self._resources),
                "resources_sent": self.resources_sent,
                "journal_records_replayed": self.journal_records_replayed,
                "jobs_recovered": self.jobs_recovered,
                "journal_clean": self.journal_clean,
            }

    def close(self) -> None:
        """Stop accepting work, fail pending jobs, reap workers (idempotent)."""
        with self._jobs_available:
            if self._closed:
                return
            self._closed = True
            pending = list(self._pending)
            self._pending.clear()
            self._jobs_available.notify_all()
            connections = list(self._connections)
        for job in pending:
            job.fail(QueueClosed("work queue closed with the job still pending"))
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        for conn in connections:
            try:
                send_frame(conn, {"type": "shutdown"})
            except OSError:
                pass
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        for proc in self._spawned:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._spawned:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                proc.kill()
                proc.wait()
        self._spawned.clear()
        for thread in self._threads:
            thread.join(timeout=5.0)
        # The clean marker records that pending jobs were deliberately
        # failed above — the next start must not resurrect them.
        self._journal.close(clean=True)

    def __enter__(self) -> "WorkQueueServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"WorkQueueServer({self.endpoint!r}, {state}, workers={self.worker_count()})"

    # ------------------------------------------------------------------
    # Dispatch internals
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener closed
                return
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._connections.add(conn)
                thread = threading.Thread(
                    target=self._serve_worker, args=(conn,),
                    name="repro-queue-dispatch", daemon=True,
                )
                self._threads.append(thread)
            thread.start()

    def _next_job(self) -> Optional[_Job]:
        """Block until a job is available; ``None`` means the queue closed."""
        with self._jobs_available:
            while not self._pending and not self._closed:
                self._jobs_available.wait(timeout=0.5)
            if self._closed:
                return None
            self._running += 1
            return self._pending.popleft()

    def _requeue(self, job: _Job, reason: str) -> None:
        """Put a failed dispatch back at the queue's front, or fail the job.

        ``job.attempts`` already counts the dispatch that just failed; the
        job is allowed ``retries + 1`` dispatches in total.  Must be called
        with ``self._jobs_available`` held; the caller's ``_running`` slot
        is released here.
        """
        self._running -= 1
        if self._closed:
            self.jobs_failed += 1
            job.fail(QueueClosed("work queue closed with the job in flight"))
            return
        if job.attempts >= job.retries + 1:
            self.jobs_failed += 1
            self._journal.append({"type": "failed", "job_id": job.job_id})
            if job.last_error is not None:
                job.fail(JobError(
                    f"job {job.job_id} failed on all {job.attempts} attempts; "
                    f"last worker error:\n{job.last_error}"
                ))
            else:
                job.fail(JobRetriesExhausted(
                    f"job {job.job_id} exhausted {job.attempts} attempts ({reason})"
                ))
            return
        self.jobs_requeued += 1
        # Front of the queue: a requeued job is the oldest outstanding work
        # and blocking the overall query, so it must not wait behind the
        # backlog a second time.  (No journal record: the enqueue record is
        # still live, so a crash here still replays the job.)
        self._pending.appendleft(job)
        self._jobs_available.notify()

    def _serve_worker(self, conn: socket.socket) -> None:
        """Dispatcher loop of one worker connection (runs in its own thread)."""
        sent: "OrderedDict[str, bool]" = OrderedDict()
        registered = False
        try:
            conn.settimeout(self.io_timeout)
            hello, _ = recv_frame(conn)
            if hello.get("type") != "hello":
                raise ProtocolError(f"expected hello frame, got {hello.get('type')!r}")
            cache_cap = max(1, int(hello.get("cache_cap", 8)))
            # A heartbeating worker announces its interval; liveness is a
            # few missed beats, far tighter than any job timeout.  Workers
            # that do not heartbeat (interval 0/absent) fall back to the
            # coarse io_timeout-per-read behaviour.
            heartbeat_interval = float(hello.get("heartbeat_interval", 0.0) or 0.0)
            with self._lock:
                self._workers += 1
                registered = True
            while True:
                job = self._next_job()
                if job is None:
                    return
                if job.deadline is not None and time.monotonic() >= job.deadline:
                    # The caller has already given up: fail fast rather than
                    # burn a worker computing a result nobody will read.
                    with self._jobs_available:
                        self._running -= 1
                        self.jobs_failed += 1
                    job.fail(DeadlineExceeded(
                        f"job {job.job_id} missed its caller's deadline before dispatch"
                    ))
                    continue
                job.attempts += 1
                if job.future.done():  # failed (e.g. queue close race) while queued
                    with self._jobs_available:
                        self._running -= 1
                    continue
                self._journal.append(
                    {"type": "dispatch", "job_id": job.job_id, "attempt": job.attempts}
                )
                try:
                    self._send_job(conn, job, sent, cache_cap)
                    outcome = self._await_result(conn, job, heartbeat_interval)
                except (ConnectionClosed, ProtocolError, OSError) as error:
                    # Timeout, worker death or protocol corruption: requeue
                    # the in-flight job and drop this connection — a wedged
                    # worker's late result must not race the retry (the
                    # worker reconnects on its own when it recovers).
                    if isinstance(error, _WorkerUnresponsive):
                        reason = f"worker stopped heartbeating ({error})"
                        with self._lock:
                            self.workers_reaped += 1
                    elif isinstance(error, socket.timeout):
                        reason = f"no result within {job.timeout}s"
                    else:
                        reason = f"worker connection lost ({error})"
                    with self._jobs_available:
                        self._requeue(job, reason)
                    return
                if outcome == "ok":
                    # Synced: a completion must never be lost to the fsync
                    # batch window, or a restart would re-run delivered work.
                    self._journal.append(
                        {"type": "complete", "job_id": job.job_id}, sync=True
                    )
                with self._jobs_available:
                    if outcome == "ok":
                        self._running -= 1
                        self.jobs_completed += 1
                    else:
                        # The worker reported a job exception but is itself
                        # healthy: requeue (bounded) and keep the connection.
                        self._requeue(job, "worker reported an error")
        except (ConnectionClosed, ProtocolError, OSError):
            return  # handshake failed or idle worker hung up
        finally:
            with self._lock:
                self._connections.discard(conn)
                if registered:
                    self._workers -= 1
            conn.close()

    def _send_job(
        self,
        conn: socket.socket,
        job: _Job,
        sent: "OrderedDict[str, bool]",
        cache_cap: int,
    ) -> None:
        """Ship missing resources, then the job frame.

        ``sent`` mirrors the worker's resource LRU: same capacity, same
        touch order (insert on receive, touch on use, evict oldest on
        overflow).  The mirror is what lets the dispatcher know — without a
        round trip — which keys the worker still holds.
        """
        for key in job.resources:
            if key in sent:
                sent.move_to_end(key)
                continue
            with self._lock:
                resource = self._resources.get(key)
            if resource is None:
                raise ProtocolError(f"resource {key!r} was discarded while a job needed it")
            kind, payload = resource
            send_frame(
                conn, {"type": "resource", "key": key, "kind": kind}, payload,
                site="queue.send.resource",
            )
            with self._lock:
                self.resources_sent += 1
            sent[key] = True
            while len(sent) > cache_cap:
                sent.popitem(last=False)
        send_frame(
            conn, {"type": "job", "job_id": job.job_id, **job.spec},
            site="queue.send.job",
        )

    def _await_result(
        self, conn: socket.socket, job: _Job, heartbeat_interval: float = 0.0
    ) -> str:
        """Wait for this job's result or error frame, policing liveness.

        Two clocks run here.  The **wall clock** is the job's own deadline:
        ``job.timeout`` seconds from now, tightened by the caller's absolute
        ``job.deadline`` — expiry raises ``socket.timeout`` so the caller
        requeues.  The **liveness clock** applies to heartbeating workers:
        each read waits at most ``heartbeat_interval * HEARTBEAT_MISS_FACTOR``
        for *any* frame, so a worker that dies mid-job is reaped within a
        few beats (:class:`_WorkerUnresponsive`) instead of holding the job
        hostage for the full timeout.  Heartbeat frames themselves are
        consumed and skipped.

        Returns ``"ok"`` (future resolved) or ``"error"`` (the worker
        reported an exception; ``job.last_error`` records it).
        """
        now = time.monotonic()
        wall_deadline: Optional[float] = None
        if job.timeout is not None:
            wall_deadline = now + job.timeout
        if job.deadline is not None:
            wall_deadline = job.deadline if wall_deadline is None else min(
                wall_deadline, job.deadline
            )
        liveness = (
            heartbeat_interval * HEARTBEAT_MISS_FACTOR if heartbeat_interval > 0 else None
        )
        while True:
            now = time.monotonic()
            remaining = None if wall_deadline is None else wall_deadline - now
            if remaining is not None and remaining <= 0:
                raise socket.timeout(f"job {job.job_id} produced no result in time")
            if liveness is not None:
                wait = liveness if remaining is None else min(liveness, remaining)
            else:
                wait = remaining  # None = block forever (no timeout, no heartbeat)
            conn.settimeout(wait)
            try:
                header, blob = recv_frame(conn)
            except socket.timeout:
                if remaining is not None and time.monotonic() >= wall_deadline:
                    raise
                raise _WorkerUnresponsive(
                    f"no frame from worker for {wait:.3f}s "
                    f"({HEARTBEAT_MISS_FACTOR} heartbeat intervals)"
                ) from None
            kind = header.get("type")
            if kind == "heartbeat":
                continue
            if kind == "result" and header.get("job_id") == job.job_id:
                job.future.set_result(pickle.loads(blob) if blob else None)
                return "ok"
            if kind == "error" and header.get("job_id") == job.job_id:
                job.last_error = f"{header.get('exc_type')}: {header.get('error')}"
                return "error"
            # Anything else is out of protocol for a worker with one job in
            # flight; frames for other job ids cannot legitimately appear.
            raise ProtocolError(f"unexpected frame {kind!r} while awaiting job {job.job_id}")
