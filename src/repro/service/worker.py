"""The remote bound-analysis worker: ``python -m repro.service.worker``.

A worker connects to a :class:`~repro.service.queue.WorkQueueServer`,
announces its resource-cache capacity, and then serves jobs one at a time:

* ``resource`` frames populate a small LRU of decoded payloads — path
  tables reconstructed zero-copy with
  :meth:`~repro.symbolic.arena.PathTable.from_buffer` over the received
  bytes, and query contexts decoded into
  ``(targets, options, resolved analyzers)`` by
  :func:`~repro.analysis.transport.resolve_context`, the decoder
  shared-memory pool workers run too, one network hop out;
* ``chunk`` jobs run :func:`repro.analysis.parallel.analyze_table_slice`
  over the referenced ``[start, stop)`` table range (or over an explicit
  ``indices`` list — the refinement scheduler's scattered worst-gap
  subsets) — the **identical** columnar loop the in-process backends run,
  which is what keeps socket bounds bit-identical to serial bounds;
* ``sleep`` jobs idle for a requested duration (the queue's
  deterministic timeout/retry test vehicle);
* ``shutdown`` frames end the process.

The LRU's eviction discipline (insert on receive, touch on use, evict
oldest past capacity) is mirrored by the dispatcher on the other end of
the connection, so the server always knows which resources this worker
still holds and never sends a table twice while it is cached.

Workers are crash-isolated by design: job failures are reported as
``error`` frames (with the worker traceback) and the worker keeps
serving; a lost connection triggers bounded reconnection, so a server
restart or a dropped wedged connection self-heals.
"""

from __future__ import annotations

import argparse
import os
import pickle
import random
import socket
import threading
import time
import traceback
from collections import OrderedDict
from typing import Optional

from .. import faults
from ..symbolic.arena import PathTable
from .protocol import ConnectionClosed, ProtocolError, recv_frame, send_frame

__all__ = ["BoundWorker", "main"]

#: Default number of decoded resources (tables + contexts) one worker keeps.
DEFAULT_CACHE_CAP = 8

#: Default heartbeat interval (seconds).  Heartbeats let the queue reap a
#: worker that dies or wedges mid-job within a few intervals instead of
#: waiting out the whole job timeout; ``0`` disables them (the queue then
#: falls back to its coarse per-read timeout).
DEFAULT_HEARTBEAT_INTERVAL = 0.5


class BoundWorker:
    """One worker process's connection-and-serve loop.

    ``reconnect_attempts`` bounds how many consecutive failed connection
    attempts the worker tolerates before giving up.  The wait between
    attempts grows exponentially from ``reconnect_delay`` up to
    ``reconnect_max_delay``, with full jitter (a uniform draw over
    ``[0, backoff]``) so a fleet of workers losing one server does not
    reconnect in lockstep; a successful connection resets the count, so a
    worker dropped by a job timeout keeps coming back for the lifetime of
    the queue.  ``jitter_seed`` pins the jitter RNG for deterministic
    tests.
    """

    def __init__(
        self,
        endpoint: str,
        cache_cap: int = DEFAULT_CACHE_CAP,
        reconnect_attempts: int = 50,
        reconnect_delay: float = 0.1,
        reconnect_max_delay: float = 5.0,
        jitter_seed: Optional[int] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    ) -> None:
        from ..analysis.config import parse_endpoint

        self.address = parse_endpoint(endpoint)
        self.cache_cap = max(1, cache_cap)
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_delay = reconnect_delay
        self.reconnect_max_delay = reconnect_max_delay
        self.heartbeat_interval = max(0.0, heartbeat_interval)
        self._jitter = random.Random(jitter_seed)
        #: Serialises heartbeat frames against result/error frames so the
        #: two sender threads never interleave bytes mid-frame.
        self._send_lock = threading.Lock()
        #: key -> decoded resource: ("table", PathTable) or
        #: ("context", (targets, options, analyzers)).
        self._cache: "OrderedDict[str, tuple[str, object]]" = OrderedDict()
        self.jobs_done = 0

    def _reconnect_delay(self, failures: int) -> float:
        """Backoff before reconnect attempt ``failures`` (1-based).

        Exponential with full jitter: ``uniform(0, min(max_delay,
        base * 2**(failures-1)))``.  Full jitter (rather than a +/- fudge)
        is what actually de-synchronises a worker fleet: any two workers'
        waits are independent draws over the whole window.
        """
        backoff = min(self.reconnect_max_delay, self.reconnect_delay * (2 ** (failures - 1)))
        return self._jitter.uniform(0.0, backoff)

    # ------------------------------------------------------------------
    # Resource cache (mirrored by the server-side dispatcher)
    # ------------------------------------------------------------------
    def _store(self, key: str, kind: str, blob: bytes) -> None:
        action = faults.decide("worker.attach")
        if action is not None and action.kind == "fail":
            # Models a shared-memory/table attach failure: the job that
            # needed this resource errors, the queue retries elsewhere.
            raise faults.FaultInjected(f"injected attach failure for resource {key!r}")
        if kind == "table":
            # bytes are immutable and owned by this frame: the table's array
            # views alias them directly, no copy.
            value: object = PathTable.from_buffer(memoryview(blob), keep_alive=blob)
        elif kind == "context":
            from ..analysis.transport import resolve_context

            value = resolve_context(blob)
        else:
            raise ProtocolError(f"unknown resource kind {kind!r}")
        self._cache[key] = (kind, value)
        while len(self._cache) > self.cache_cap:
            _, (old_kind, old_value) = self._cache.popitem(last=False)
            if old_kind == "table":
                old_value.release()  # type: ignore[union-attr]

    def _fetch(self, key: str, kind: str):
        entry = self._cache.get(key)
        if entry is None or entry[0] != kind:
            # The server believed this worker still held the resource (LRU
            # mirror drift can only come from a worker restart mid-frame);
            # reporting an error makes the queue retry, and the retry's
            # fresh dispatch re-sends the payload.
            raise KeyError(f"resource {key!r} ({kind}) not cached")
        self._cache.move_to_end(key)
        return entry[1]

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def _run_job(self, header: dict) -> bytes:
        """Execute one job frame, returning the pickled result payload."""
        action = faults.decide("worker.job")
        if action is not None:
            if action.kind == "die":
                # The SIGKILL primitive: no cleanup, no goodbye frame — the
                # queue sees the connection drop with the job in flight.
                os._exit(1)
            if action.kind == "fail":
                raise faults.FaultInjected("injected job failure")
            if action.kind == "delay":
                plan = faults.active()
                time.sleep(
                    action.param if action.param is not None
                    else (plan.default_param() if plan else 0.0)
                )
        kind = header.get("kind")
        if kind == "chunk":
            from ..analysis.parallel import analyze_table_slice

            table = self._fetch(header["table"], "table")
            targets, options, analyzers = self._fetch(header["context"], "context")
            raw_indices = header.get("indices")
            contributions = analyze_table_slice(
                table, int(header["start"]), int(header["stop"]),
                targets, options, analyzers,
                indices=tuple(int(i) for i in raw_indices) if raw_indices is not None else None,
            )
            result = (int(header["index"]), contributions)
            self.jobs_done += 1
            return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        if kind == "sleep":
            time.sleep(float(header["seconds"]))
            self.jobs_done += 1
            return pickle.dumps(None)
        raise ProtocolError(f"unknown job kind {kind!r}")

    # ------------------------------------------------------------------
    # Connection loop
    # ------------------------------------------------------------------
    def _heartbeat_loop(self, sock: socket.socket, stop: threading.Event) -> None:
        """Send ``heartbeat`` frames every interval until told to stop.

        Runs on its own thread so a long-running job still proves the
        process is alive; the send lock keeps beats from interleaving with
        result frames.  Any send error just ends the loop — the dispatcher
        notices the dead connection through its own reads.
        """
        while not stop.wait(self.heartbeat_interval):
            try:
                with self._send_lock:
                    send_frame(sock, {"type": "heartbeat"}, site="worker.send.heartbeat")
            except OSError:
                return

    def _serve_connection(self, sock: socket.socket) -> bool:
        """Serve one connection; returns True when the server said shutdown."""
        with self._send_lock:
            send_frame(sock, {
                "type": "hello",
                "cache_cap": self.cache_cap,
                "pid": os.getpid(),
                "heartbeat_interval": self.heartbeat_interval,
            })
        stop_heartbeat = threading.Event()
        heartbeat: Optional[threading.Thread] = None
        if self.heartbeat_interval > 0:
            heartbeat = threading.Thread(
                target=self._heartbeat_loop, args=(sock, stop_heartbeat),
                name="repro-worker-heartbeat", daemon=True,
            )
            heartbeat.start()
        try:
            while True:
                header, blob = recv_frame(sock)
                kind = header.get("type")
                if kind == "resource":
                    self._store(header["key"], header["kind"], blob)
                elif kind == "job":
                    try:
                        payload = self._run_job(header)
                    except Exception as error:  # noqa: BLE001 - reported to the queue
                        with self._send_lock:
                            send_frame(sock, {
                                "type": "error",
                                "job_id": header.get("job_id"),
                                "exc_type": type(error).__name__,
                                "error": f"{error}\n{traceback.format_exc()}",
                            }, site="worker.send.error")
                    else:
                        with self._send_lock:
                            send_frame(
                                sock,
                                {"type": "result", "job_id": header.get("job_id")},
                                payload,
                                site="worker.send.result",
                            )
                elif kind == "shutdown":
                    return True
                else:
                    raise ProtocolError(f"unknown frame type {kind!r}")
        finally:
            stop_heartbeat.set()
            if heartbeat is not None:
                heartbeat.join(timeout=2.0)

    def run(self) -> None:
        """Connect (and reconnect) to the queue until it shuts us down."""
        failures = 0
        while True:
            try:
                action = faults.decide("worker.connect")
                if action is not None and action.kind == "fail":
                    raise OSError("injected connect failure")
                sock = socket.create_connection(self.address, timeout=10.0)
            except OSError:
                failures += 1
                if failures > self.reconnect_attempts:
                    return
                time.sleep(self._reconnect_delay(failures))
                continue
            failures = 0
            # Connections are long-lived: no per-recv timeout (a worker may
            # legitimately idle for minutes between queries).
            sock.settimeout(None)
            try:
                if self._serve_connection(sock):
                    return
            except (ConnectionClosed, ConnectionError, ProtocolError, OSError):
                # Server gone, or it dropped us (job timeout): the resource
                # cache survives, but its server-side mirror does not — a
                # fresh connection starts with an empty mirror, so the
                # server simply re-sends what it needs to.
                pass
            finally:
                sock.close()


def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.worker",
        description="Bound-analysis worker for a repro work-queue server.",
    )
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="endpoint of the WorkQueueServer to serve",
    )
    parser.add_argument(
        "--cache-cap", type=int, default=DEFAULT_CACHE_CAP,
        help="how many decoded resources (path tables, contexts) to cache",
    )
    parser.add_argument(
        "--reconnect-attempts", type=int, default=50,
        help="consecutive failed connection attempts before giving up",
    )
    parser.add_argument(
        "--reconnect-delay", type=float, default=0.1,
        help="base reconnect backoff in seconds (doubles per failure, with jitter)",
    )
    parser.add_argument(
        "--reconnect-max-delay", type=float, default=5.0,
        help="cap on the reconnect backoff in seconds",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=DEFAULT_HEARTBEAT_INTERVAL,
        help="heartbeat interval in seconds (0 disables heartbeats)",
    )
    args = parser.parse_args(argv)
    BoundWorker(
        args.connect,
        cache_cap=args.cache_cap,
        reconnect_attempts=args.reconnect_attempts,
        reconnect_delay=args.reconnect_delay,
        reconnect_max_delay=args.reconnect_max_delay,
        heartbeat_interval=args.heartbeat,
    ).run()


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    main()
