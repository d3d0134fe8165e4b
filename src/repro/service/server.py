"""The multi-tenant asyncio bounds front end: ``python -m repro.service.server``.

The server wraps :class:`repro.Model` behind a TCP endpoint speaking the
frame protocol of :mod:`repro.service.protocol` with pure-JSON headers (no
pickles cross this boundary).  One request computes guaranteed posterior
bounds for an SPCF program:

.. code-block:: json

    {"type": "bounds",
     "program": "<SPCF source text>",
     "targets": [[0.0, 1.0], [1.0, 2.0]],
     "options": {"max_fixpoint_depth": 4, "stream": true},
     "stream": true}

and the reply is a ``result`` frame carrying the bounds (floats encoded
via ``repr``, so they are **bit-identical** to a local serial run), the
canonical program hash, and whether the compiled program came out of the
shared cache.  With ``"stream": true`` the server additionally emits
``partial`` frames as soon as the engine's first path contributions land —
the anytime bound, surfaced over the wire before exploration finishes —
and after every refinement round.

Multi-tenancy happens in :class:`ProgramCache`: compiled programs (whole
``Model`` instances, with their compile caches and worker pools) are
shared across connections, keyed by the **canonical program hash** — a
structural fingerprint of the parsed term plus the execution limits
(:func:`repro.analysis.model.program_hash`), so textually different
spellings of the same program still share one compiled path set.  The
cache is LRU-bounded; evicted models are closed.  Two tenants submitting
the same program concurrently serialise on a per-program lock — the second
query is served from the model's compile cache instead of re-exploring.
On top of it sits a whole-query **result cache** (program hash + targets +
options → final result frame): a repeated identical query skips the
analyzers entirely and is answered in microseconds, which is what makes
cache-hit latency ≪ cold latency for a long-lived service.

Every bounds request takes one flow: validate, apply the deadline, parse,
look the result up (memory LRU, then the store), attach to an identical
in-flight query, take an engine slot, compute with :meth:`Model.bounds`,
persist and journal the result, reply.  Partial frames carry a ``seq``
number — 1 for the streamed first-paths preview, ``r + 1`` after
refinement round ``r`` — so a client re-issuing a query with an
idempotency ``query_id`` and the ``partials_seen`` it holds receives only
the partials it missed.

``--state-dir`` only picks the store.  With it, a write-ahead journal
(:mod:`repro.service.journal`) and a content-addressed on-disk store
(:mod:`repro.service.store`) keep compiled-program images, whole-query
results and refinement checkpoints: a restarted server answers repeat
queries without recompiling, rebuilds compiled programs from stored
path-table images, and **resumes** a refined (``refine="gap"``) query
from its last journaled round — with floats bit-identical to an
uninterrupted run, because rounds are deterministic and checkpoints
round-trip every double exactly.  Without it the same flow runs over a
null store and journal that keep nothing.

Blocking engine work runs on a thread pool; the asyncio side stays
responsive, and partial-bound callbacks marshal onto the event loop via
``call_soon_threadsafe``.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from .. import faults
from ..analysis.config import AnalysisOptions, parse_endpoint
from ..analysis.engine import AnalysisReport
from ..analysis.model import Model, program_hash
from ..analysis.refine import RefinementCheckpoint
from ..lang import ParseError, Term, parse
from .journal import Journal, NullJournal
from .protocol import (
    DeadlineExceeded,
    ProtocolError,
    ServerBusy,
    ServiceError,
    bounds_to_wire,
    encode_frame,
    frame_decoder,
    hash_bytes,
    targets_from_wire,
)
from .store import NullStore, StateStore

__all__ = ["BoundsServer", "ProgramCache", "serve_in_background", "main"]

#: Largest request blob the server buffers.  Requests carry no blob at all,
#: so this only stops an untrusted client from making it read gigabytes.
_MAX_REQUEST_BLOB_BYTES = 64 * 1024 * 1024

#: AnalysisOptions fields clients may set per request.  Derived from the
#: dataclass itself so new engine knobs become available without touching
#: the service tier.
_OPTION_FIELDS = frozenset(field.name for field in dataclasses.fields(AnalysisOptions))


class ProgramCache:
    """A shared, LRU-bounded cache of compiled programs keyed by program hash.

    Entries are whole :class:`repro.Model` instances — each carries its own
    compiled-program cache (per execution limits) and worker pools, so a
    cache hit skips parsing, symbolic execution *and* pool warm-up.  Every
    entry has a :class:`threading.Lock`: concurrent queries for the same
    program serialise (the model's caches are not thread-safe), while
    distinct programs run fully in parallel on the server's thread pool.
    """

    def __init__(self, limit: int = 8) -> None:
        if limit < 1:
            raise ValueError(f"cache limit must be positive, got {limit}")
        self.limit = limit
        self._mutex = threading.Lock()
        self._entries: "OrderedDict[str, tuple[Model, threading.Lock]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def entries(self) -> list[tuple[str, Model]]:
        """A snapshot of ``(key, model)`` pairs (shutdown-time persistence)."""
        with self._mutex:
            return [(key, model) for key, (model, _) in self._entries.items()]

    def touch(self, key: str) -> bool:
        """Count a hit and refresh recency if ``key``'s program is cached.

        What a result-cache hit calls: it reports whether the program is
        warm without ever creating a ``Model``.
        """
        with self._mutex:
            entry = self._entries.get(key)
            if entry is None:
                return False
            self._entries.move_to_end(key)
            self.hits += 1
            entry[0].note_program_cache(hit=True)
            return True

    def lookup(self, term: Term, key: str):
        """``(model, lock, hit)`` for a parsed program and its canonical hash.

        The key is the canonical program hash of the *parsed term* under
        the query's execution limits — whitespace, comments and other
        spelling differences never cause a second compile.
        """
        with self._mutex:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                model, lock = entry
                model.note_program_cache(hit=True)
                return model, lock, True
            self.misses += 1
            model = Model(term)
            model.note_program_cache(hit=False)
            lock = threading.Lock()
            self._entries[key] = (model, lock)
            evicted = []
            while len(self._entries) > self.limit:
                _, old = self._entries.popitem(last=False)
                evicted.append(old)
        for old_model, old_lock in evicted:
            with old_lock:  # let an in-flight query on the evictee finish
                old_model.close()
        return model, lock, False

    def stats(self) -> dict:
        with self._mutex:
            models = {
                key: model.cache_info() for key, (model, _) in self._entries.items()
            }
            return {
                "entries": len(self._entries),
                "limit": self.limit,
                "hits": self.hits,
                "misses": self.misses,
                "models": models,
            }

    def close(self) -> None:
        with self._mutex:
            entries = list(self._entries.values())
            self._entries.clear()
        for model, lock in entries:
            with lock:
                model.close()


class _QueryCheckpoint(RefinementCheckpoint):
    """One refined query's rounds, kept in the server's store and journal.

    Also the source of partial ``seq`` numbers: :attr:`rounds` counts the
    rounds done so far, restored ones included.
    """

    def __init__(
        self, server: "BoundsServer", model: Model, options: AnalysisOptions,
        key: str, stream: bool, partials_seen: int,
    ) -> None:
        self.server = server
        self.model = model
        self.options = options
        self.key = key
        self.stream = stream
        self.partials_seen = partials_seen
        self.rounds = 0
        self.restored = 0

    def load(self) -> Optional[bytes]:
        return self.server.store.load_checkpoint(self.key)

    def resumed(self, scheduler) -> None:
        server = self.server
        self.rounds = self.restored = scheduler.rounds_run
        server._journal.append(
            {"type": "resume", "query": self.key, "rounds": self.rounds}, sync=True
        )
        with server._durability_mutex:
            server.rounds_resumed += self.rounds
            if self.stream and self.partials_seen <= self.rounds:
                # The restored bound goes out as ONE partial summarising
                # every checkpointed round the client has not seen.
                server.partials_replayed += 1

    def round_done(self, scheduler) -> None:
        server = self.server
        self.rounds = scheduler.rounds_run
        # The program image goes first, so a restart resumes this
        # checkpoint without exploring the program again.
        server.store.save_compiled(self.model.compiled_for(self.options))
        server.store.save_checkpoint(self.key, scheduler)
        with server._durability_mutex:
            server.checkpoints_saved += int(server.store.persistent)
        server._journal.append(
            {"type": "round", "query": self.key, "round": self.rounds}, sync=True
        )
        action = faults.decide("server.crash")
        if action is not None and action.kind == "die":
            os._exit(1)

    def finished(self, scheduler) -> None:
        with self.server._durability_mutex:
            self.server.rounds_recomputed += scheduler.rounds_run - self.restored
        self.server.store.drop_checkpoint(self.key)


class BoundsServer:
    """The asyncio server: accept loop, per-connection frame dispatch."""

    def __init__(
        self,
        endpoint: str = "127.0.0.1:0",
        cache_limit: int = 8,
        query_threads: int = 4,
        result_cache_limit: int = 256,
        max_inflight_queries: int = 0,
        io_timeout: Optional[float] = None,
        state_dir: Optional[str] = None,
    ) -> None:
        self._host, self._port = parse_endpoint(endpoint)
        self.cache = ProgramCache(limit=cache_limit)
        self._pool = ThreadPoolExecutor(
            max_workers=query_threads, thread_name_prefix="repro-bounds"
        )
        #: Backpressure: at most this many engine queries in flight at once
        #: (0 = unbounded).  Requests past the limit get a typed ``BUSY``
        #: error with a retry-after hint instead of queueing without bound
        #: behind the thread pool.  Result-cache hits are exempt — they cost
        #: microseconds and hold no engine thread.
        self._max_inflight = max(0, int(max_inflight_queries))
        self._active = 0
        self._active_mutex = threading.Lock()
        #: Server-side default for the engine's ``io_timeout`` knob,
        #: injected into requests that do not set it themselves.
        self._io_timeout = io_timeout
        self.queries_rejected = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self.address: Optional[tuple[str, int]] = None
        self.queries_served = 0
        # Whole-query result cache: the engine caches *compiled programs*,
        # but a repeated identical query (same canonical program, targets
        # and options) still re-runs the analyzers — in a long-lived
        # service that repeat is the common case, so the final result
        # frame is memoised too.  Keyed per (program hash, targets,
        # canonical options); the floats are position-independent data, so
        # entries stay valid even after the compiled program is evicted.
        self._results_limit = max(0, int(result_cache_limit))
        self._results: "OrderedDict[tuple, dict]" = OrderedDict()
        self._results_mutex = threading.Lock()
        self.result_hits = 0
        self.result_misses = 0
        # Durability: the program/result/checkpoint store and the journal
        # of query progress — on disk with --state-dir, null otherwise.
        self.journal_records_replayed = 0
        self.journal_clean: Optional[bool] = None
        self.result_store_hits = 0
        self.program_store_hits = 0
        self.rounds_resumed = 0
        self.rounds_recomputed = 0
        self.checkpoints_saved = 0
        self.partials_replayed = 0
        self.partials_skipped = 0
        self._durability_mutex = threading.Lock()
        if state_dir is None:
            self.store, self._journal = NullStore(), NullJournal()
        else:
            self.store = StateStore(state_dir)
            replay = Journal.replay(self.store.journal_path)
            self.journal_records_replayed = len(replay.records)
            self.journal_clean = bool(
                replay.records and replay.records[-1][0].get("type") == "clean"
            )
            self._journal = Journal(self.store.journal_path)
        # In-flight coalescing for idempotent re-issues: result_key -> a
        # future resolved when the original computation finishes, so a
        # client that lost its connection (but not the server) attaches to
        # the running query instead of recomputing it.
        self._inflight: dict[tuple, asyncio.Future] = {}

    @property
    def endpoint(self) -> str:
        if self.address is None:
            raise RuntimeError("server is not started")
        host, port = self.address
        return f"{host}:{port}"

    # ------------------------------------------------------------------
    # asyncio lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self.address = self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=True)
        self.cache.close()
        self._journal.close()

    async def graceful_shutdown(self, grace: float = 30.0) -> None:
        """SIGTERM semantics: drain in-flight queries, snapshot, mark clean.

        Stops accepting connections, waits up to ``grace`` seconds for
        running engine queries to finish, persists every compiled program
        the state store does not hold yet, appends a clean-shutdown marker
        to the journal and shuts the caches down.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + max(0.0, grace)
        while time.monotonic() < deadline:
            with self._active_mutex:
                active = self._active
            if active == 0:
                break
            await asyncio.sleep(0.05)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._snapshot_programs)
        self._journal.close(clean=True)
        self._pool.shutdown(wait=True)
        self.cache.close()

    def _snapshot_programs(self) -> None:
        """Persist every cached compilation the store is missing (shutdown)."""
        for _key, model in self.cache.entries():
            for compiled in list(model._compiled.values()):
                self.store.save_compiled(compiled)

    # ------------------------------------------------------------------
    # Frame IO (asyncio streams, the codec of repro.service.protocol)
    # ------------------------------------------------------------------
    @staticmethod
    async def _read_frame(reader: asyncio.StreamReader) -> tuple[dict, bytes]:
        decoder = frame_decoder(_MAX_REQUEST_BLOB_BYTES)
        try:
            need = next(decoder)
            while True:
                need = decoder.send(await reader.readexactly(need))
        except StopIteration as done:
            return done.value

    @staticmethod
    async def _write_frame(writer: asyncio.StreamWriter, header: dict) -> None:
        writer.write(encode_frame(header))
        await writer.drain()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    @staticmethod
    def _error_frame(error: Exception) -> dict:
        frame = {"type": "error", "exc_type": type(error).__name__, "error": str(error)}
        code = getattr(error, "code", None)
        if code is None and isinstance(error, faults.FaultInjected):
            code = "FAULT"
        if code:
            frame["code"] = code
        if isinstance(error, ServerBusy):
            frame["retry_after"] = error.retry_after
        return frame

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    header, _blob = await self._read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # client hung up
                except ProtocolError as error:
                    # A corrupted or malformed request frame loses the frame
                    # boundary: reply with a typed error, then drop the
                    # connection (FrameCorrupted carries code=FAULT).
                    try:
                        await self._write_frame(writer, self._error_frame(error))
                    except (ConnectionError, OSError):  # pragma: no cover
                        pass
                    return
                kind = header.get("type")
                try:
                    if kind == "bounds":
                        await self._handle_bounds(writer, header)
                    elif kind == "stats":
                        await self._write_frame(writer, self._stats_frame())
                    elif kind == "ping":
                        await self._write_frame(writer, {"type": "pong"})
                    else:
                        raise ProtocolError(f"unknown request type {kind!r}")
                except (
                    ProtocolError, ParseError, ServiceError, faults.FaultInjected,
                    ValueError, KeyError, TypeError,
                ) as error:
                    await self._write_frame(writer, self._error_frame(error))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    # Result cache
    # ------------------------------------------------------------------
    @staticmethod
    def _result_key(program_key: str, header: dict) -> tuple:
        return (
            program_key,
            json.dumps(header.get("targets"), sort_keys=True),
            json.dumps(header.get("options") or {}, sort_keys=True),
            # A deadline caps the refinement budget, which can change the
            # exact refined floats — deadline-capped and uncapped runs must
            # not share a cache entry.
            header.get("deadline"),
        )

    @staticmethod
    def _result_disk_key(result_key: tuple) -> str:
        """Content address of a whole-query result (state-store file name)."""
        return hash_bytes(json.dumps(list(result_key)).encode())

    def _result_lookup(self, result_key: tuple, disk_key: str) -> Optional[dict]:
        """The memory tier, then the store (whose hits refill the memory tier)."""
        if self._results_limit:
            with self._results_mutex:
                cached = self._results.get(result_key)
                if cached is not None:
                    self._results.move_to_end(result_key)
                    self.result_hits += 1
                    return dict(cached)
                self.result_misses += 1
        stored = self.store.load_result(disk_key)
        if stored is None:
            return None
        with self._durability_mutex:
            self.result_store_hits += 1
        self._remember(result_key, stored)
        return dict(stored)

    def _remember(self, result_key: tuple, result: dict) -> None:
        """Insert a result into the memory tier (a no-op when it is disabled)."""
        if self._results_limit:
            with self._results_mutex:
                self._results[result_key] = result
                self._results.move_to_end(result_key)
                while len(self._results) > self._results_limit:
                    self._results.popitem(last=False)

    def _result_stats(self) -> dict:
        with self._results_mutex:
            return {
                "entries": len(self._results),
                "limit": self._results_limit,
                "hits": self.result_hits,
                "misses": self.result_misses,
            }

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _executor_stats(self) -> dict:
        """Degradation/reaping telemetry aggregated over the cached models."""
        workers_reaped = 0
        degraded_chunks = 0
        degraded_to: list[str] = []
        for _key, model in self.cache.entries():
            for executor in model._executors.values():
                degraded_chunks += getattr(executor, "degraded_chunks", 0)
                to = getattr(executor, "degraded_to", None)
                if to and to not in degraded_to:
                    degraded_to.append(to)
                queue = getattr(executor, "_queue", None)
                if queue is not None:
                    workers_reaped += getattr(queue, "workers_reaped", 0)
        return {
            "workers_reaped": workers_reaped,
            "degraded_chunks": degraded_chunks,
            "degraded_to": degraded_to,
        }

    def _durability_stats(self) -> dict:
        with self._durability_mutex:
            return {
                "enabled": self.store.persistent,
                "journal_records_replayed": self.journal_records_replayed,
                "journal_clean": self.journal_clean,
                "result_store_hits": self.result_store_hits,
                "program_store_hits": self.program_store_hits,
                "rounds_resumed": self.rounds_resumed,
                "rounds_recomputed": self.rounds_recomputed,
                "checkpoints_saved": self.checkpoints_saved,
                "partials_replayed": self.partials_replayed,
                "partials_skipped": self.partials_skipped,
                "store": self.store.stats(),
            }

    def _stats_frame(self) -> dict:
        return {
            "type": "stats",
            "cache": self.cache.stats(),
            "results": self._result_stats(),
            "queries": self.queries_served,
            "inflight": self._active,
            "rejected": self.queries_rejected,
            "executors": self._executor_stats(),
            "durability": self._durability_stats(),
        }

    def _acquire_slot(self) -> None:
        """Claim one in-flight engine slot or raise a typed ``BUSY`` error."""
        with self._active_mutex:
            if self._max_inflight and self._active >= self._max_inflight:
                self.queries_rejected += 1
                raise ServerBusy(
                    f"server is at its in-flight query limit "
                    f"({self._max_inflight}); retry shortly",
                    retry_after=0.25,
                )
            self._active += 1

    @staticmethod
    def _consult_query_faults() -> None:
        """The ``server.query`` fault site, consulted once per engine query."""
        action = faults.decide("server.query")
        if action is not None:
            if action.kind == "fail":
                raise faults.FaultInjected("injected query failure")
            if action.kind == "delay":
                # Holds this engine thread (and its backpressure slot)
                # for a deterministic while — the chaos suite's lever
                # for provoking a BUSY reply without timing races.
                plan = faults.active()
                time.sleep(
                    action.param if action.param is not None
                    else (plan.default_param() if plan else 0.0)
                )

    def _request_options(self, header: dict) -> AnalysisOptions:
        raw = header.get("options") or {}
        if not isinstance(raw, dict):
            raise ProtocolError("options must be a JSON object")
        unknown = set(raw) - _OPTION_FIELDS
        if unknown:
            raise ProtocolError(f"unknown analysis options: {sorted(unknown)}")
        # JSON has no tuples; analyzers arrive as a list.
        if isinstance(raw.get("analyzers"), list):
            raw = dict(raw, analyzers=tuple(raw["analyzers"]))
        if self._io_timeout is not None and "io_timeout" not in raw:
            raw = dict(raw, io_timeout=self._io_timeout)
        return AnalysisOptions(**raw)

    async def _write_partial(
        self, writer: asyncio.StreamWriter, item: tuple, partials_seen: int
    ) -> None:
        """Emit one seq-numbered partial frame, skipping already-seen seqs.

        A resuming client reports the highest ``seq`` it already holds
        (``partials_seen``); partials at or below it are suppressed, so a
        reconnection replays only what was actually missed.
        """
        partial_bounds, paths_done, seq = item
        if seq <= partials_seen:
            with self._durability_mutex:
                self.partials_skipped += 1
            return
        await self._write_frame(
            writer,
            {"type": "partial", "bounds": partial_bounds,
             "paths_done": paths_done, "seq": seq},
        )

    async def _handle_bounds(self, writer: asyncio.StreamWriter, header: dict) -> None:
        """One bounds query, through the tiers in order (module docstring)."""
        source = header.get("program")
        if not isinstance(source, str) or not source.strip():
            raise ProtocolError("bounds request needs a non-empty 'program' string")
        targets = targets_from_wire(header.get("targets") or ())
        if not targets:
            raise ProtocolError("bounds request needs at least one target interval")
        options = self._request_options(header)
        want_stream = bool(header.get("stream"))
        if want_stream and not options.stream:
            options = options.with_updates(stream=True)

        # Deadline propagation: a client-supplied relative deadline (seconds)
        # caps the engine's whole-query time budget, the socket tier's
        # per-job timeout and the refinement budget — one number, threaded
        # all the way down, so no query outlives its caller.
        deadline_s = header.get("deadline")
        deadline_at: Optional[float] = None
        if deadline_s is not None:
            deadline_s = float(deadline_s)
            if deadline_s <= 0:
                raise DeadlineExceeded("deadline must be a positive number of seconds")
            deadline_at = time.monotonic() + deadline_s
            updates: dict = {
                "time_budget": (
                    deadline_s if options.time_budget is None
                    else min(options.time_budget, deadline_s)
                ),
            }
            if options.job_timeout is None or options.job_timeout > deadline_s:
                updates["job_timeout"] = deadline_s
            if options.refine_enabled:
                updates["refine_time_budget"] = (
                    deadline_s if options.refine_time_budget is None
                    else min(options.refine_time_budget, deadline_s)
                )
            options = options.with_updates(**updates)

        term = parse(source)
        key = program_hash(term, options.execution_limits())
        result_key = self._result_key(key, header)
        disk_key = self._result_disk_key(result_key)
        cached = self._result_lookup(result_key, disk_key)
        existing = self._inflight.get(result_key)
        if cached is None and existing is not None:
            # Idempotent re-issue: a client that lost its connection (but
            # not the server) re-sends the same query — attach to the
            # running computation instead of recomputing it.
            await asyncio.shield(existing)
            cached = self._result_lookup(result_key, disk_key)
        if cached is not None:
            # Served straight from a result tier: same exact floats, no
            # analyzer run, no partial frames (there is nothing to
            # anticipate).  ``seconds`` reports *this* serve, not the
            # original compute.
            self.queries_served += 1
            await self._write_frame(
                writer,
                dict(
                    cached,
                    cache="hit" if self.cache.touch(key) else "miss",
                    result_cache="hit",
                    seconds=0.0,
                    first_result_seconds=None,
                ),
            )
            return

        # Backpressure: reject rather than queue without bound.  The slot is
        # held until the engine thread finishes — even when a deadline makes
        # us abandon the reply early, the thread is still busy.
        self._acquire_slot()
        model, lock, cache_hit = self.cache.lookup(term, key)
        loop = asyncio.get_running_loop()
        partials: asyncio.Queue = asyncio.Queue()
        partials_seen = int(header.get("partials_seen") or 0)
        checkpoint = _QueryCheckpoint(
            self, model, options, disk_key, want_stream, partials_seen
        )

        def on_progress(partial_bounds, paths_done: int) -> None:
            loop.call_soon_threadsafe(
                partials.put_nowait,
                (bounds_to_wire(partial_bounds), paths_done, checkpoint.rounds + 1),
            )

        def run_query():
            self._consult_query_faults()
            report = AnalysisReport()
            with lock:
                if model.compiled_for(options) is None:
                    stored = self.store.load_compiled(term, options.execution_limits())
                    if stored is not None:
                        model.install_compiled(stored)
                        with self._durability_mutex:
                            self.program_store_hits += 1
                bounds = model.bounds(
                    targets,
                    options=options,
                    report=report,
                    progress=on_progress if want_stream else None,
                    checkpoint=checkpoint,
                )
                compiled = model.compiled_for(options)
                if compiled is not None:
                    self.store.save_compiled(compiled)
            return bounds, report

        query = loop.run_in_executor(self._pool, run_query)

        def release_slot(finished: asyncio.Future) -> None:
            with self._active_mutex:
                self._active -= 1
            if not finished.cancelled():
                finished.exception()  # mark retrieved (abandoned queries)

        query.add_done_callback(release_slot)
        inflight: asyncio.Future = loop.create_future()
        self._inflight[result_key] = inflight
        try:
            waiter = asyncio.ensure_future(partials.get())
            try:
                while True:
                    wait_timeout = None
                    if deadline_at is not None:
                        wait_timeout = max(0.0, deadline_at - time.monotonic())
                    done, _pending = await asyncio.wait(
                        {query, waiter},
                        timeout=wait_timeout,
                        return_when=asyncio.FIRST_COMPLETED,
                    )
                    if not done:
                        # Deadline expired with the engine still working:
                        # reply now with a typed error and abandon the
                        # thread — the propagated time budget makes its
                        # remaining socket jobs fail fast.
                        raise DeadlineExceeded(
                            f"query exceeded its {deadline_s}s deadline"
                        )
                    if waiter in done:
                        await self._write_partial(writer, waiter.result(), partials_seen)
                        waiter = asyncio.ensure_future(partials.get())
                    if query in done:
                        break
            finally:
                waiter.cancel()
            bounds, report = await query  # re-raises engine errors
            # A partial that raced the final result is still worth
            # delivering (clients treat partials as strictly-before-result).
            while not partials.empty():
                await self._write_partial(writer, partials.get_nowait(), partials_seen)
            self.queries_served += 1
            result = {
                "type": "result",
                "bounds": bounds_to_wire(bounds),
                "program_hash": key,
                "cache": "hit" if cache_hit else "miss",
                "paths": report.path_count,
                "seconds": report.seconds,
                "first_result_seconds": report.first_result_seconds,
                "refine_rounds": report.refine_rounds,
                "result_cache": "miss",
            }
            # Persist + journal *before* the reply: a crash between the two
            # (the ``server.ack`` site) leaves a completed result the
            # restarted server serves straight from the store.
            self._remember(result_key, result)
            self.store.save_result(disk_key, result)
            self._journal.append({"type": "done", "query": disk_key}, sync=True)
            action = faults.decide("server.ack")
            if action is not None and action.kind == "die":
                os._exit(1)
            await self._write_frame(writer, result)
        finally:
            self._inflight.pop(result_key, None)
            if not inflight.done():
                inflight.set_result(True)


class _BackgroundServer:
    """A bounds server running on a dedicated event-loop thread."""

    def __init__(self, server: BoundsServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def endpoint(self) -> str:
        return self.server.endpoint

    def stop(self) -> None:
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop).result(10)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
        self._loop.close()

    def stop_gracefully(self, grace: float = 10.0) -> None:
        """Drain, snapshot and mark the journal clean (SIGTERM semantics)."""
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.server.graceful_shutdown(grace), self._loop
            ).result(grace + 10)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
        self._loop.close()

    def __enter__(self) -> "_BackgroundServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_background(
    endpoint: str = "127.0.0.1:0",
    cache_limit: int = 8,
    query_threads: int = 4,
    result_cache_limit: int = 256,
    max_inflight_queries: int = 0,
    io_timeout: Optional[float] = None,
    state_dir: Optional[str] = None,
) -> _BackgroundServer:
    """Start a :class:`BoundsServer` on a daemon thread and return a handle.

    The embedding entry point (tests, notebooks, the demo script): the
    caller gets ``handle.endpoint`` to hand to :class:`ServiceClient` and
    ``handle.stop()`` for teardown.
    """
    server = BoundsServer(
        endpoint,
        cache_limit=cache_limit,
        query_threads=query_threads,
        result_cache_limit=result_cache_limit,
        max_inflight_queries=max_inflight_queries,
        io_timeout=io_timeout,
        state_dir=state_dir,
    )
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)

        async def boot() -> None:
            try:
                await server.start()
            except BaseException as error:  # pragma: no cover - bind failures
                failure.append(error)
            finally:
                started.set()

        loop.run_until_complete(boot())
        if not failure:
            loop.run_forever()

    thread = threading.Thread(target=run, name="repro-bounds-server", daemon=True)
    thread.start()
    started.wait(timeout=10)
    if failure:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        raise failure[0]
    return _BackgroundServer(server, loop, thread)


def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.server",
        description="Guaranteed-posterior-bounds service over TCP.",
    )
    parser.add_argument("--bind", default="127.0.0.1:7753", metavar="HOST:PORT")
    parser.add_argument("--cache-limit", type=int, default=8,
                        help="how many compiled programs to keep cached")
    parser.add_argument("--query-threads", type=int, default=4,
                        help="concurrent blocking engine queries")
    parser.add_argument("--result-cache-limit", type=int, default=256,
                        help="memoised whole-query results (0 disables)")
    parser.add_argument("--max-inflight", type=int, default=0,
                        help="reject (BUSY) past this many in-flight queries (0 = unbounded)")
    parser.add_argument("--io-timeout", type=float, default=None,
                        help="default engine io_timeout in seconds (socket liveness window)")
    parser.add_argument("--state-dir", default=None, metavar="DIR",
                        help="durable state directory (WAL + program/result/"
                             "checkpoint store); restarts resume from it")
    parser.add_argument("--grace", type=float, default=30.0,
                        help="graceful-shutdown drain window in seconds "
                             "(SIGTERM/SIGINT)")
    args = parser.parse_args(argv)
    server = BoundsServer(
        args.bind,
        cache_limit=args.cache_limit,
        query_threads=args.query_threads,
        result_cache_limit=args.result_cache_limit,
        max_inflight_queries=args.max_inflight,
        io_timeout=args.io_timeout,
        state_dir=args.state_dir,
    )

    async def run() -> None:
        await server.start()
        print(f"bounds service listening on {server.endpoint}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, ValueError):  # pragma: no cover
                pass  # non-POSIX platforms fall back to KeyboardInterrupt
        serving = asyncio.ensure_future(server.serve_forever())
        stopping = asyncio.ensure_future(stop.wait())
        done, _pending = await asyncio.wait(
            {serving, stopping}, return_when=asyncio.FIRST_COMPLETED
        )
        if stopping in done:
            # SIGTERM/SIGINT: drain in-flight queries, snapshot unpersisted
            # programs, mark the journal clean — the crash/kill path simply
            # never reaches this and recovers from the WAL instead.
            serving.cancel()
            try:
                await serving
            except asyncio.CancelledError:
                pass
            await server.graceful_shutdown(grace=args.grace)
        else:
            stopping.cancel()
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    main()
