"""The blocking client library of the bounds service.

:class:`ServiceClient` talks to a :class:`repro.service.server.BoundsServer`
over one persistent connection:

.. code-block:: python

    from repro.service import ServiceClient

    with ServiceClient("127.0.0.1:7753") as client:
        reply = client.bounds(
            "sample uniform(0, 1)",
            targets=[(0.0, 0.5)],
            stream=True,
            on_partial=lambda bounds, done: print("first bound:", bounds),
        )
        print(reply.bounds, reply.cache)

Replies carry bounds decoded to the exact floats the server computed
(see :mod:`repro.service.protocol` for why the wire is lossless), the
canonical program hash, and — for streamed queries — every anytime
partial bound the server emitted before the final result.
"""

from __future__ import annotations

import argparse
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

from ..analysis.config import parse_endpoint
from ..analysis.engine import DenotationBounds
from ..intervals import Interval
from .protocol import (
    DeadlineExceeded,
    ProtocolError,
    ServerBusy,
    ServiceError,
    ServiceFault,
    WorkerLost,
    bounds_from_wire,
    error_from_frame,
    recv_frame,
    send_frame,
)

__all__ = [
    "BoundsReply",
    "DeadlineExceeded",
    "ServerBusy",
    "ServiceClient",
    "ServiceError",
    "ServiceFault",
    "WorkerLost",
    "main",
]

TargetLike = Union[Interval, Sequence[float]]


@dataclass
class BoundsReply:
    """One completed bounds query as seen by the client."""

    bounds: list[DenotationBounds]
    program_hash: str
    cache: str  # "hit" | "miss" — the compiled-program cache
    paths: int
    seconds: float
    first_result_seconds: Optional[float]
    #: "hit" when the whole query (program + targets + options) was served
    #: from the server's memoised result cache without re-running analyzers.
    result_cache: str = "miss"
    #: Every anytime partial emitted before the result:
    #: ``(partial_bounds, paths_done)`` in arrival order.
    partials: list[tuple[list[DenotationBounds], int]] = field(default_factory=list)
    #: Gap-directed refinement rounds the server ran for this result
    #: (0 for ``refine="off"`` queries and result-cache hits).
    refine_rounds: int = 0

    @property
    def cache_hit(self) -> bool:
        return self.cache == "hit"


def _as_targets(targets: Iterable[TargetLike]) -> list[list[float]]:
    wire = []
    for target in targets:
        if isinstance(target, Interval):
            wire.append([target.lo, target.hi])
        else:
            lo, hi = target
            wire.append([float(lo), float(hi)])
    return wire


class ServiceClient:
    """A thread-safe blocking client for the bounds service.

    One TCP connection is opened lazily and reused across calls; requests
    are serialised by an internal lock (the protocol is strictly
    request/response per connection).  ``timeout`` bounds each wait for a
    reply frame — generous by default, since a cold query runs full
    symbolic execution server-side.
    """

    def __init__(self, endpoint: str, timeout: float = 300.0) -> None:
        self.address = parse_endpoint(endpoint)
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------
    def _connection(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(self.address, timeout=self.timeout)
        return self._sock

    def _reset(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._sock = None

    def close(self) -> None:
        with self._lock:
            self._reset()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _roundtrip(self, request: dict, on_frame) -> dict:
        """Send one request and feed reply frames to ``on_frame`` until done.

        ``on_frame(header)`` returns the final header to deliver, or None
        to keep reading (partial frames).  Any transport failure resets the
        connection so the next call reconnects cleanly.
        """
        with self._lock:
            sock = self._connection()
            try:
                send_frame(sock, request)
                while True:
                    header, _blob = recv_frame(sock)
                    if header.get("type") == "error":
                        # Typed taxonomy: BUSY -> ServerBusy (with
                        # retry_after), DEADLINE_EXCEEDED, WORKER_LOST,
                        # FAULT; untyped frames stay plain ServiceError.
                        raise error_from_frame(header)
                    final = on_frame(header)
                    if final is not None:
                        return final
            except (ConnectionError, OSError, ProtocolError):
                self._reset()
                raise

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        """True when the server answers (raises on connection failure)."""
        reply = self._roundtrip(
            {"type": "ping"},
            lambda header: header if header.get("type") == "pong" else None,
        )
        return reply.get("type") == "pong"

    def stats(self) -> dict:
        """The server's program-cache statistics snapshot."""
        return self._roundtrip(
            {"type": "stats"},
            lambda header: header if header.get("type") == "stats" else None,
        )

    def bounds(
        self,
        program: str,
        targets: Iterable[TargetLike],
        options: Optional[dict] = None,
        stream: bool = False,
        on_partial: Optional[Callable[[list[DenotationBounds], int], None]] = None,
        deadline: Optional[float] = None,
        query_id: Optional[str] = None,
        resume_retries: int = 10,
        resume_backoff: float = 0.05,
    ) -> BoundsReply:
        """Guaranteed denotation bounds for ``program`` over ``targets``.

        ``program`` is SPCF source text; ``targets`` are intervals (either
        :class:`~repro.intervals.Interval` or ``(lo, hi)`` pairs);
        ``options`` is a dict of :class:`~repro.analysis.AnalysisOptions`
        fields applied server-side.  With ``stream=True`` the server runs a
        streamed query and pushes anytime partial bounds; each is decoded
        and handed to ``on_partial(bounds, paths_done)`` as it arrives (and
        collected on the reply's ``partials``), so callers see a first
        sound lower bound long before path exploration completes.

        ``deadline`` (seconds, relative) is propagated server-side all the
        way down to individual work-queue jobs and the refinement budget:
        if the query cannot finish in time, the server answers with a typed
        ``DEADLINE_EXCEEDED`` error (raised here as
        :class:`~repro.service.protocol.DeadlineExceeded`) instead of
        letting the query outlive its caller.

        ``query_id`` (optional) makes the query an **idempotent, resumable
        re-issue**: on a transport failure (connection lost, server
        restarted, frame corrupted in flight) the client reconnects with
        exponential backoff — up to ``resume_retries`` attempts, starting
        at ``resume_backoff`` seconds — and re-sends the same request
        together with the highest partial ``seq`` it already received.
        Every server attaches the re-issue to the original query while it
        is still running, answers it from the result cache once it has
        finished, and sends only the partials this client actually missed
        (duplicates are dropped here too).  A server with ``--state-dir``
        also survives its own crash: finished work is served from disk
        and an interrupted ``refine="gap"`` query resumes from its last
        checkpointed round.  Deadline and typed server errors are **not**
        retried.
        """
        request = {
            "type": "bounds",
            "program": program,
            "targets": _as_targets(targets),
            "stream": bool(stream),
        }
        if options:
            request["options"] = options
        if deadline is not None:
            request["deadline"] = float(deadline)
        if query_id is not None:
            request["query_id"] = str(query_id)
        partials: list[tuple[list[DenotationBounds], int]] = []
        max_seq = 0

        def on_frame(header: dict) -> Optional[dict]:
            nonlocal max_seq
            kind = header.get("type")
            if kind == "partial":
                seq = header.get("seq")
                if seq is not None:
                    seq = int(seq)
                    if seq <= max_seq:
                        return None  # replayed duplicate after a resume
                    max_seq = seq
                decoded = bounds_from_wire(header.get("bounds") or [])
                paths_done = int(header.get("paths_done", 0))
                partials.append((decoded, paths_done))
                if on_partial is not None:
                    on_partial(decoded, paths_done)
                return None
            if kind == "result":
                return header
            raise ProtocolError(f"unexpected frame type {kind!r}")

        attempts = 0
        while True:
            if query_id is not None:
                request["partials_seen"] = max_seq
            try:
                header = self._roundtrip(request, on_frame)
                break
            except (ConnectionError, ProtocolError, OSError) as error:
                # Typed server-side errors (BUSY, DEADLINE_EXCEEDED, FAULT
                # frames) and plain timeouts are real answers, not transport
                # losses — never re-issued.  Client-side CRC failures
                # (FrameCorrupted is a ProtocolError here) and lost
                # connections are.
                if (
                    query_id is None
                    or isinstance(error, TimeoutError)
                    or (isinstance(error, ServiceError)
                        and not isinstance(error, ProtocolError))
                ):
                    raise
                attempts += 1
                if attempts > max(0, resume_retries):
                    raise
                time.sleep(min(resume_backoff * (2 ** (attempts - 1)), 2.0))
        return BoundsReply(
            bounds=bounds_from_wire(header.get("bounds") or []),
            program_hash=str(header.get("program_hash")),
            cache=str(header.get("cache")),
            paths=int(header.get("paths", 0)),
            seconds=float(header.get("seconds", 0.0)),
            first_result_seconds=header.get("first_result_seconds"),
            result_cache=str(header.get("result_cache", "miss")),
            partials=partials,
            refine_rounds=int(header.get("refine_rounds", 0)),
        )


def main(argv: Optional[list] = None) -> None:
    """Operator CLI: ``python -m repro.service.client --stats HOST:PORT``.

    Prints the server's full telemetry frame as JSON — program/result cache
    counters, executor degradation and reaping totals, and the durability
    section (journal replay counts, store hits, resumed vs recomputed
    rounds).
    """
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.service.client",
        description="Client-side tools for the bounds service.",
    )
    parser.add_argument("--stats", metavar="HOST:PORT",
                        help="fetch and print the server's stats frame as JSON")
    parser.add_argument("--timeout", type=float, default=10.0,
                        help="reply timeout in seconds")
    args = parser.parse_args(argv)
    if not args.stats:
        parser.error("nothing to do: pass --stats HOST:PORT")
    with ServiceClient(args.stats, timeout=args.timeout) as client:
        stats = client.stats()
    print(json.dumps(stats, indent=2, sort_keys=True))


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    main()
