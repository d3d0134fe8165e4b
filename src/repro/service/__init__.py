"""Bounds as a service: the distributed tier of the GuBPI engine.

This package turns the in-process bound engine into a small service stack,
without moving a single bound:

* :mod:`repro.service.protocol` — the shared wire format: length-prefixed
  frames carrying a JSON header plus an opaque binary blob, and the exact
  float encoding that keeps bounds bit-identical across the wire.
* :mod:`repro.service.queue` — :class:`WorkQueueServer`, the TCP work queue
  behind ``AnalysisOptions(executor="socket")``: chunk jobs referencing
  content-addressed path-table images, dispatched to connected workers with
  per-job timeout, bounded retry and requeue-on-worker-death.
* :mod:`repro.service.worker` — the worker process
  (``python -m repro.service.worker --connect host:port``) that attaches to
  a queue and runs the identical columnar chunk loop the process pool runs.
* :mod:`repro.service.server` — the asyncio bounds front end
  (``python -m repro.service.server``) serving whole posterior-bound
  queries for multiple tenants over one shared, LRU-bounded
  compiled-program cache keyed by canonical program hash.
* :mod:`repro.service.client` — :class:`ServiceClient`, the blocking client
  library (``client.bounds(program, targets)``) with streamed anytime
  partial bounds and idempotent crash resume (``query_id``).
* :mod:`repro.service.journal` — :class:`Journal`, the crash-safe
  append-only write-ahead log (CRC32-checksummed records, torn-tail
  tolerant replay) behind both the work queue and the bounds front end.
* :mod:`repro.service.store` — :class:`StateStore`, the content-addressed
  on-disk store of compiled-program images, whole-query results and
  refinement checkpoints (``--state-dir``), and
  :class:`~repro.service.store.NullStore`, the store of a server without one.

Trust model: frames carry pickled analysis payloads between queue and
workers, so the work-queue port must only be reachable by trusted hosts —
the same boundary as ``multiprocessing`` itself.  The bounds front end
speaks pure JSON.
"""

from .journal import Journal, JournalReplay
from .protocol import (
    ConnectionClosed,
    DeadlineExceeded,
    FrameCorrupted,
    ProtocolError,
    ServerBusy,
    ServiceError,
    ServiceFault,
    WorkerLost,
)
from .queue import (
    JobError,
    JobRetriesExhausted,
    QueueClosed,
    QueueRecovery,
    WorkQueueServer,
    replay_queue_journal,
)
from .store import StateStore

#: Server- and client-side exports resolve lazily: importing them eagerly
#: would load the submodule during its own ``python -m repro.service.server``
#: / ``python -m repro.service.client`` startup (runpy warns about the
#: double import), and queue workers never need either.
_LAZY_EXPORTS = {
    "BoundsServer": "server",
    "ProgramCache": "server",
    "serve_in_background": "server",
    "BoundsReply": "client",
    "ServiceClient": "client",
}


def __getattr__(name: str):
    submodule = _LAZY_EXPORTS.get(name)
    if submodule is not None:
        import importlib

        return getattr(importlib.import_module(f".{submodule}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BoundsReply",
    "BoundsServer",
    "ConnectionClosed",
    "DeadlineExceeded",
    "FrameCorrupted",
    "JobError",
    "JobRetriesExhausted",
    "Journal",
    "JournalReplay",
    "ProgramCache",
    "ProtocolError",
    "QueueClosed",
    "QueueRecovery",
    "ServerBusy",
    "ServiceClient",
    "ServiceError",
    "ServiceFault",
    "StateStore",
    "WorkerLost",
    "WorkQueueServer",
    "replay_queue_journal",
    "serve_in_background",
]
