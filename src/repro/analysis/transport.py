"""How path tables and query contexts reach workers: carriers and table jobs.

Every backend of the parallel engine analyses :class:`TableJob` units — a
path table, a query context and an index range (or an explicit index
list).  A table or context travels as a *carrier*: a shared-memory segment
name, an inline byte image, a socket-queue resource key, or in-process the
object itself.  The executor picks carriers in its two stores (see
:class:`~repro.analysis.parallel.ParallelAnalysisExecutor`); this module
owns the segments behind them and the worker-side decoding:

* **parent** — :func:`publish_arena_image` writes a
  :class:`~repro.symbolic.arena.PathTable` byte image into one
  ``multiprocessing.shared_memory`` segment (:func:`create_arena_segment`
  encodes paths first); :func:`create_context_segment` publishes one
  query's ``(targets, options, specs)``.  Handles unlink idempotently;
  unlinking while workers are still attached is safe on POSIX: the segment
  persists until the last attachment closes.
* **worker** — :func:`job_table` turns a job's table into a ``PathTable``:
  a segment name attaches through a small per-process LRU
  (:func:`attach_arena`; the attachment and its decoded-node memo survive
  across jobs and queries), a byte image is viewed in place.
  :func:`resolve_context` is the one context decoder of process workers,
  socket workers and in-process jobs, with one per-process LRU keyed by
  segment name; :func:`release_worker_arenas` resets both caches.
  Attachments are unregistered from the ``multiprocessing`` resource
  tracker (attaching registers them again on CPython ≤ 3.12, which would
  otherwise produce spurious leak warnings — the *parent* remains the
  tracked owner).

When ``multiprocessing.shared_memory`` is unavailable, or publishing fails
at runtime (e.g. an exhausted ``/dev/shm``), the engine warns once and its
jobs carry the table image and the context tuple inline.  Only how bytes
move changes, never the bounds.
"""

from __future__ import annotations

import atexit
import pickle
import warnings
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from .. import faults as _faults
from ..intervals import Interval
from ..symbolic import SymbolicPath
from ..symbolic.arena import PathTable, encode_paths
from .registry import ensure_analyzers_registered, resolve_analyzers

try:  # pragma: no cover - import guard exercised only on exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None  # type: ignore[assignment]

__all__ = [
    "ArenaSegment",
    "TableJob",
    "attach_arena",
    "create_arena_segment",
    "create_context_segment",
    "job_table",
    "publish_arena_image",
    "release_worker_arenas",
    "resolve_context",
    "shared_memory_available",
]

#: How many arena attachments one worker process keeps mapped.  Streaming
#: dispatch creates one short-lived segment per chunk, so the cache must
#: both retain the long-lived per-query arenas and churn through stream
#: chunks without accumulating mappings of already-unlinked segments.
_WORKER_ATTACH_CAP = 4

_unavailable_warned = False


def shared_memory_available() -> bool:
    """Whether the host supports ``multiprocessing.shared_memory``."""
    return _shared_memory is not None


def _warn_unavailable(reason: str) -> None:
    global _unavailable_warned
    if not _unavailable_warned:
        _unavailable_warned = True
        warnings.warn(
            f"shared-memory path tables unavailable ({reason}); "
            "table jobs carry the table image inline",
            RuntimeWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class TableJob:
    """One unit of analysis work, on every backend.

    ``table`` and ``context`` are carriers: shared-memory segment names or
    socket-queue resource keys (``str``), inline images (``bytes``; a
    context image is the pickled ``(targets, options, specs)`` tuple) or
    the in-process objects — a :class:`PathTable` and that tuple.  With
    names or keys a job pickles to ~150 bytes regardless of its size.

    ``indices`` (optional) replaces the contiguous ``[start, stop)`` range
    with an explicit path-index list — the refinement scheduler's scattered
    worst-gap subsets.  ``index`` orders the job's results in the merge.
    """

    index: int
    table: Union[str, bytes, PathTable]
    context: Union[str, bytes, tuple]
    start: int = 0
    stop: int = 0
    indices: Optional[Tuple[int, ...]] = None


#: Every live parent-side segment handle, swept at interpreter exit.  Shared
#: memory is a named kernel resource: a segment whose owner exits without
#: unlinking persists in /dev/shm until reboot.  Executors unlink their
#: segments deterministically via close(); the weak set is the safety net
#: for handles that were still published when the process dies (weak so the
#: registry never extends a handle's lifetime).
_LIVE_SEGMENTS: "weakref.WeakSet[_SegmentHandle]" = weakref.WeakSet()


def _unlink_live_segments() -> None:
    for handle in list(_LIVE_SEGMENTS):
        handle.unlink()


atexit.register(_unlink_live_segments)


class _SegmentHandle:
    """Parent-side handle of one published segment: name, size, teardown."""

    def __init__(self, shm, nbytes: int) -> None:
        self._shm = shm
        self.name: str = shm.name
        self.nbytes = nbytes
        self.closed = False
        _LIVE_SEGMENTS.add(self)

    def unlink(self) -> None:
        """Close and unlink the segment (idempotent).

        Workers still attached keep their mappings until they evict them;
        the kernel reclaims the memory once the last mapping closes.
        """
        if self.closed:
            return
        self.closed = True
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - parent holds no views
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class ArenaSegment(_SegmentHandle):
    """A published arena segment, pinning the path tuple it encodes."""

    def __init__(self, shm, nbytes: int, paths: Tuple[SymbolicPath, ...]) -> None:
        super().__init__(shm, nbytes)
        #: Strong reference to the encoded path tuple, so the ``id(paths)``
        #: a segment was published for cannot be reused while it is live.
        self.paths = paths

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "live"
        return f"ArenaSegment({self.name!r}, {self.nbytes}B, {len(self.paths)} paths, {state})"


def _publish(image: bytes):
    """Write a byte image into a fresh shared-memory segment (or ``None``)."""
    action = _faults.decide("transport.publish")
    if action is not None and action.kind == "fail":
        # Injected shared-memory exhaustion: callers fall back to inline
        # table images exactly as they would on a real ENOSPC.
        _warn_unavailable("injected shared-memory publish failure")
        return None
    if _shared_memory is None:
        _warn_unavailable("multiprocessing.shared_memory is not importable")
        return None
    try:
        shm = _shared_memory.SharedMemory(create=True, size=max(len(image), 1))
    except OSError as error:
        _warn_unavailable(f"segment creation failed: {error}")
        return None
    shm.buf[: len(image)] = image
    return shm


def create_arena_segment(paths: Sequence[SymbolicPath]) -> Optional[ArenaSegment]:
    """Encode ``paths`` and publish the image as a shared-memory segment.

    Returns ``None`` (after a one-time warning) when shared memory is
    unavailable or segment creation fails — callers then ship the image
    inline, which is slower but always possible.
    """
    if _shared_memory is None:
        _warn_unavailable("multiprocessing.shared_memory is not importable")
        return None
    return publish_arena_image(encode_paths(paths), paths)


def publish_arena_image(
    image: bytes, paths: Sequence[SymbolicPath]
) -> Optional[ArenaSegment]:
    """Publish an already-encoded path-table image as a shared segment.

    The image half of :func:`create_arena_segment`: callers that hold the
    columnar form already — a finalised
    :class:`~repro.symbolic.arena.PathTableBuilder` (the streamed-query
    cache tee) or a compiled program's cached
    :meth:`~repro.symbolic.SymbolicExecutionResult.table` — publish its
    bytes directly, skipping the encode walk entirely.  The segment is just
    another backing store for the same bytes.
    """
    shm = _publish(image)
    if shm is None:
        return None
    return ArenaSegment(shm, len(image), tuple(paths))


def create_context_segment(
    targets: Tuple[Interval, ...], options, specs: tuple
) -> Optional[_SegmentHandle]:
    """Publish one query's ``(targets, options, specs)`` as a shared segment.

    The context is identical for every job of a query, so it is pickled
    once and referenced by name from every :class:`TableJob`.
    """
    image = pickle.dumps((targets, options, specs), protocol=pickle.HIGHEST_PROTOCOL)
    shm = _publish(image)
    if shm is None:
        return None
    return _SegmentHandle(shm, len(image))


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: Per-process LRU of attached arenas: segment name -> (table, shm handle).
_WORKER_ARENAS: "OrderedDict[str, tuple[PathTable, object]]" = OrderedDict()


def _attach_untracked(name: str):
    """Attach to a segment without claiming tracker ownership of it.

    The *parent* (creator) is the tracked owner of every segment.  On
    CPython ≥ 3.13 ``track=False`` expresses that directly; on ≤ 3.12 the
    attach re-registers the name, which is harmless under the ``fork`` start
    method (pool workers share the parent's tracker process, whose name set
    collapses the duplicate — the parent's ``unlink`` still unregisters it
    exactly once).
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python ≤ 3.12 has no track kwarg
        return _shared_memory.SharedMemory(name=name)


def attach_arena(name: str) -> PathTable:
    """The (cached) :class:`PathTable` view of segment ``name``.

    Runs inside worker processes.  The cached table carries its decoded-node
    memo *and* its analyzer scratch space, so both survive across every
    chunk and query of one attachment.  Raises ``FileNotFoundError`` when
    the segment no longer exists — which only happens for chunks whose
    parent query already failed, so the error is never surfaced to a caller.
    """
    if _shared_memory is None:  # pragma: no cover - workers mirror the parent
        raise RuntimeError("arena transport requires multiprocessing.shared_memory")
    entry = _WORKER_ARENAS.get(name)
    if entry is not None:
        _WORKER_ARENAS.move_to_end(name)
        return entry[0]
    shm = _attach_untracked(name)
    arena = PathTable.from_buffer(shm.buf, keep_alive=shm)
    _WORKER_ARENAS[name] = (arena, shm)
    while len(_WORKER_ARENAS) > _WORKER_ATTACH_CAP:
        _, (old_arena, old_shm) = _WORKER_ARENAS.popitem(last=False)
        # Views must be dropped before the mapping can close.
        old_arena.release()
        old_shm.close()
    return arena


def job_table(table: Union[str, bytes, PathTable]) -> PathTable:
    """The :class:`PathTable` a :class:`TableJob` names (see its ``table``)."""
    if isinstance(table, str):
        return attach_arena(table)
    if isinstance(table, bytes):
        return PathTable.from_buffer(table, keep_alive=table)
    return table


#: Per-process LRU of resolved query contexts, keyed by segment name: the
#: decoded targets and options plus the analyzer instances, with
#: ``ensure_analyzers_registered`` already applied.  Segments are published
#: once per query shape and shared by every job of the query, so each
#: worker decodes a context once rather than once per job.
_CONTEXT_CACHE: "OrderedDict[str, tuple]" = OrderedDict()
_CONTEXT_CACHE_CAP = 8


def resolve_context(context: Union[str, bytes, tuple]) -> tuple:
    """``(targets, options, analyzers)`` of a job's query context.

    The one context decoder of process workers, socket workers and the
    in-process kinds.  ``context`` is a context-segment name (attached,
    decoded and resolved once per process, then cached), a pickled
    ``(targets, options, specs)`` image (the socket tier's resource payload
    and the degradation ladder's inline form) or that tuple itself.
    Resolving primes the analyzer registry with the specs first, so
    analyzers registered only in the parent resolve by name here too.
    Segment contexts are copied out (they are tiny) and the mapping closed.
    """
    if isinstance(context, str):
        entry = _CONTEXT_CACHE.get(context)
        if entry is not None:
            _CONTEXT_CACHE.move_to_end(context)
            return entry
        shm = _attach_untracked(context)
        try:
            image = bytes(shm.buf)
        finally:
            shm.close()
        entry = _CONTEXT_CACHE[context] = resolve_context(image)
        while len(_CONTEXT_CACHE) > _CONTEXT_CACHE_CAP:
            _CONTEXT_CACHE.popitem(last=False)
        return entry
    targets, options, specs = pickle.loads(context) if isinstance(context, bytes) else context
    ensure_analyzers_registered(specs)
    return targets, options, resolve_analyzers(options)


def release_worker_arenas() -> None:
    """Reset every per-process worker cache (tests / teardown).

    Closes all cached segment attachments and drops resolved query contexts.
    """
    while _WORKER_ARENAS:
        _, (arena, shm) = _WORKER_ARENAS.popitem(last=False)
        arena.release()
        shm.close()
    _CONTEXT_CACHE.clear()
