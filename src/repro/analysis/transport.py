"""How path tables reach process workers: shared-memory segments and table jobs.

Every backend of the parallel engine analyses :class:`TableJob` units — a
path table, a query context and an index range (or an explicit index
list).  This module owns what a job's table and context can be, and the
lifecycle of the shared-memory segments behind them:

* **parent** — :func:`publish_arena_image` writes a
  :class:`~repro.symbolic.arena.PathTable` byte image into one
  ``multiprocessing.shared_memory`` segment (:func:`create_arena_segment`
  encodes paths first); :func:`create_context_segment` publishes one
  query's ``(targets, options, specs)``.  :class:`ArenaSegment` pins the
  path tuple it encodes (so the id-keyed executor cache can never alias)
  and unlinks idempotently.  Unlinking while workers are still attached is
  safe on POSIX: the segment persists until the last attachment closes.
* **worker** — :func:`job_table` turns a job's table into a ``PathTable``:
  a segment name attaches through a small per-process LRU
  (:func:`attach_arena`; the attachment and its decoded-node memo survive
  across jobs and queries), a byte image is viewed in place.  Attachments
  are unregistered from the ``multiprocessing`` resource tracker (attaching
  registers them again on CPython ≤ 3.12, which would otherwise produce
  spurious leak warnings — the *parent* remains the tracked owner).

When ``multiprocessing.shared_memory`` is unavailable, or publishing fails
at runtime (e.g. an exhausted ``/dev/shm``), the engine warns once and its
jobs carry the table image and the context tuple inline — the same bytes
the socket tier ships.  Only how bytes move changes, never the bounds.
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

try:  # pragma: no cover - import guard exercised only on exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None  # type: ignore[assignment]

__all__ = [
    "ArenaSegment",
    "ContextSegment",
    "TableJob",
    "attach_arena",
    "attach_context",
    "create_arena_segment",
    "create_context_segment",
    "job_table",
    "publish_arena_image",
    "register_worker_reset",
    "release_worker_arenas",
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

    ``table`` is a shared-memory segment name (``str``), a path-table byte
    image (``bytes``) or, in-process, the :class:`PathTable` itself;
    ``context`` is a context-segment name or the ``(targets, options,
    specs)`` tuple.  With segment names a job pickles to ~150 bytes
    regardless of its size.

    ``indices`` (optional) replaces the contiguous ``[start, stop)`` range
    with an explicit path-index list — the refinement scheduler's scattered
    worst-gap subsets.  ``index`` orders the job's results in the merge.
    """

    index: int
    table: Union[str, bytes, PathTable]
    context: Union[str, tuple]
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
        #: Strong reference to the encoded path tuple: the executor caches
        #: segments keyed by ``id(paths)``, and pinning the tuple here is
        #: what makes that key stable for the segment's lifetime.
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


class ContextSegment(_SegmentHandle):
    """Parent-side handle of one published query-context segment.

    The context — ``(targets, options, analyzer specs)`` — is identical for
    every job of a query, so it is pickled **once**, published as a tiny
    segment, and referenced by name from every :class:`TableJob`.
    Executors cache context segments keyed by the context value itself, so a
    repeated query re-uses the published context just like it re-uses the
    arena.
    """


def create_context_segment(
    targets: Tuple[Interval, ...], options, specs: tuple
) -> Optional[ContextSegment]:
    """Publish one query's ``(targets, options, specs)`` as a shared segment."""
    image = pickle.dumps((targets, options, specs), protocol=pickle.HIGHEST_PROTOCOL)
    shm = _publish(image)
    if shm is None:
        return None
    return ContextSegment(shm, len(image))


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


#: Per-process cache of unpickled query contexts, keyed by segment name.
_WORKER_CONTEXTS: "OrderedDict[str, tuple]" = OrderedDict()
_WORKER_CONTEXT_CAP = 8


def attach_context(name: str) -> tuple:
    """The (cached) unpickled query context of segment ``name``.

    Contexts are copied out of the segment (they are tiny), so the mapping
    is closed immediately — only the decoded tuple is cached.
    """
    context = _WORKER_CONTEXTS.get(name)
    if context is not None:
        _WORKER_CONTEXTS.move_to_end(name)
        return context
    shm = _attach_untracked(name)
    try:
        context = pickle.loads(bytes(shm.buf))
    finally:
        shm.close()
    _WORKER_CONTEXTS[name] = context
    while len(_WORKER_CONTEXTS) > _WORKER_CONTEXT_CAP:
        _WORKER_CONTEXTS.popitem(last=False)
    return context


#: Extra per-process caches to drop on :func:`release_worker_arenas` —
#: modules that key worker state on segment names (e.g. the resolved-context
#: cache in :mod:`repro.analysis.parallel`) register their reset here, so
#: the teardown helper stays the single full-reset entry point without a
#: circular import.
_WORKER_RESET_CALLBACKS: list = []


def register_worker_reset(callback) -> None:
    """Register a callable to run on :func:`release_worker_arenas`."""
    _WORKER_RESET_CALLBACKS.append(callback)


def release_worker_arenas() -> None:
    """Reset every per-process worker cache (tests / teardown).

    Closes all cached segment attachments, drops decoded query contexts and
    runs every registered reset callback.
    """
    while _WORKER_ARENAS:
        _, (arena, shm) = _WORKER_ARENAS.popitem(last=False)
        arena.release()
        shm.close()
    _WORKER_CONTEXTS.clear()
    for callback in _WORKER_RESET_CALLBACKS:
        callback()
