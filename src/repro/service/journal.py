"""Crash-safe write-ahead journal for the service tier.

The work queue (:mod:`repro.service.queue`) and the bounds server
(:mod:`repro.service.server`) both need to survive ``kill -9``: queued
jobs must be requeued on restart, completed refinement rounds must not be
recomputed, and resource manifests must be re-registered.  This module is
the shared durability primitive — an append-only journal of
length-prefixed, CRC32-checksummed records with torn-tail-tolerant
replay.

On-disk layout::

    +----------+------------------------------------------------+
    | magic 8B |  record | record | record | ...                 |
    +----------+------------------------------------------------+

and each record::

    +----------------+--------------+-----------+---------------+------+
    | header_len u32 | blob_len u64 | crc32 u32 | header (JSON) | blob |
    +----------------+--------------+-----------+---------------+------+
          network byte order (``!IQI``)            UTF-8         opaque

``crc32`` covers ``header + blob``.  The **header** is a small JSON
object (record type, job ids, round numbers); the **blob** carries bulk
payloads such as resource images.  Floats in headers round-trip exactly
(``json`` serialises via ``repr``), so journaled bounds are bit-identical
on replay.

Durability discipline: appends are written immediately but fsynced in
batches (every :attr:`Journal.fsync_batch` records) unless the caller
passes ``sync=True`` for a critical record (round-completed, result,
clean-shutdown).  A crash can therefore lose the *tail* of the journal —
never the middle — and :meth:`Journal.replay` stops cleanly at the first
record whose prefix overruns the file, whose CRC mismatches, or whose
header fails to parse.  Everything before the damage is recovered;
everything after is reported as dropped bytes, and the recovering process
truncates the tail by rewriting from the accepted prefix.

Fault sites (see :mod:`repro.faults`):

``journal.write``
    Consulted once per :meth:`Journal.append`.  The ``torn`` action
    writes only a prefix of the record and wedges the journal (further
    appends are dropped), simulating the bytes a crash mid-write leaves
    behind; ``fail`` raises :class:`~repro.faults.FaultInjected`.
"""

from __future__ import annotations

import atexit
import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from .. import faults

__all__ = [
    "Journal",
    "JournalReplay",
    "NullJournal",
    "register_temp",
    "unregister_temp",
]

#: Record prefix: header length (u32) + blob length (u64) + CRC32 (u32).
_RECORD = struct.Struct("!IQI")

#: File magic: identifies a journal and pins its format version.
MAGIC = b"REPROWAL1"

#: Sanity caps mirroring the wire protocol — a corrupt length field fails
#: fast instead of making replay allocate gigabytes.
_MAX_HEADER_BYTES = 16 * 1024 * 1024
_MAX_BLOB_BYTES = 4 * 1024 * 1024 * 1024


# ---------------------------------------------------------------------------
# Crash-leftover cleanup (mirrors transport._LIVE_SEGMENTS for /dev/shm)
# ---------------------------------------------------------------------------
#
# Atomic writes in the durability layer go through a ``*.tmp`` sibling that
# is renamed over the target.  A process that dies between write and rename
# would leave the temp file behind, so every live temp path is registered
# here and swept at interpreter exit — crashed *test runs* (which exit the
# interpreter normally after the in-process "crash") leave no strays.

_LIVE_TEMPS: set[str] = set()
_TEMPS_LOCK = threading.Lock()


def register_temp(path: Union[str, Path]) -> None:
    """Track a temp file for unlink-at-exit until :func:`unregister_temp`."""
    with _TEMPS_LOCK:
        _LIVE_TEMPS.add(str(path))


def unregister_temp(path: Union[str, Path]) -> None:
    """Stop tracking a temp file (it was renamed into place or removed)."""
    with _TEMPS_LOCK:
        _LIVE_TEMPS.discard(str(path))


def _sweep_temps() -> None:
    with _TEMPS_LOCK:
        leftovers = list(_LIVE_TEMPS)
        _LIVE_TEMPS.clear()
    for path in leftovers:
        try:
            os.unlink(path)
        except OSError:
            pass


atexit.register(_sweep_temps)


@dataclass
class JournalReplay:
    """What :meth:`Journal.replay` recovered from a journal file.

    ``records`` is the accepted prefix — every ``(header, blob)`` pair up
    to (not including) the first torn or corrupt record.  ``torn`` is true
    when the file ended mid-record or failed a CRC check; ``dropped_bytes``
    counts the bytes past the accepted prefix.
    """

    records: list[tuple[dict, bytes]] = field(default_factory=list)
    torn: bool = False
    dropped_bytes: int = 0
    #: Byte offset of the end of the accepted prefix (for tail truncation).
    valid_size: int = 0

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


class Journal:
    """An append-only CRC-checksummed record log (see the module docstring).

    Thread-safe: appends from the queue's accept threads and the server's
    engine threads interleave record-atomically.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fsync_batch: int = 32,
        truncate_torn_tail: bool = True,
    ) -> None:
        self.path = Path(path)
        self.fsync_batch = max(1, int(fsync_batch))
        self._lock = threading.Lock()
        self._pending_sync = 0
        self._wedged = False  # a ``torn`` fault fired; drop further appends
        existing = self.path.exists() and self.path.stat().st_size > 0
        if existing and truncate_torn_tail:
            replay = self.replay(self.path)
            if replay.torn:
                self._truncate_to(replay.valid_size)
        self._file = open(self.path, "ab")
        if not existing:
            self._file.write(MAGIC)
            self._file.flush()
            os.fsync(self._file.fileno())

    # -- writing ----------------------------------------------------------

    def append(self, record: dict, blob: bytes = b"", sync: bool = False) -> None:
        """Append one record; fsync if ``sync`` or the batch is due."""
        payload = json.dumps(record, separators=(",", ":"), ensure_ascii=False).encode()
        if len(payload) > _MAX_HEADER_BYTES or len(blob) > _MAX_BLOB_BYTES:
            raise ValueError("journal record exceeds format limits")
        crc = zlib.crc32(payload + blob) & 0xFFFFFFFF
        data = _RECORD.pack(len(payload), len(blob), crc) + payload + blob
        action = faults.decide("journal.write")
        with self._lock:
            if self._wedged or self._file.closed:
                return
            if action is not None:
                if action.kind == "fail":
                    raise faults.FaultInjected("journal.write: injected write failure")
                if action.kind == "torn":
                    # Simulate a crash mid-write: a prefix of the record
                    # reaches the disk, then the process "dies" — further
                    # appends from this (doomed) process go nowhere.
                    cut = max(1, len(data) // 2)
                    self._file.write(data[:cut])
                    self._file.flush()
                    os.fsync(self._file.fileno())
                    self._wedged = True
                    return
            self._file.write(data)
            self._pending_sync += 1
            if sync or self._pending_sync >= self.fsync_batch:
                self._file.flush()
                os.fsync(self._file.fileno())
                self._pending_sync = 0
            else:
                self._file.flush()

    def sync(self) -> None:
        """Force any batched appends to stable storage."""
        with self._lock:
            if self._file.closed or self._wedged:
                return
            self._file.flush()
            os.fsync(self._file.fileno())
            self._pending_sync = 0

    def close(self, clean: bool = False) -> None:
        """Close the journal; ``clean`` appends a synced shutdown marker.

        Closing an already-closed journal does nothing.
        """
        if clean and not self.closed:
            self.append({"type": "clean"}, sync=True)
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                if not self._wedged:
                    os.fsync(self._file.fileno())
                self._file.close()

    @property
    def closed(self) -> bool:
        return self._file.closed

    # -- recovery ---------------------------------------------------------

    def _truncate_to(self, size: int) -> None:
        """Drop a torn tail by rewriting the accepted prefix atomically."""
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        register_temp(tmp)
        try:
            with open(self.path, "rb") as source, open(tmp, "wb") as target:
                target.write(source.read(size))
                target.flush()
                os.fsync(target.fileno())
            os.replace(tmp, self.path)
        finally:
            unregister_temp(tmp)
            try:
                os.unlink(tmp)
            except OSError:
                pass

    @classmethod
    def replay(cls, path: Union[str, Path]) -> JournalReplay:
        """Read every intact record; never raises on torn/corrupt tails.

        A missing file replays as empty.  The accepted prefix ends at the
        first record whose prefix overruns the file, whose lengths are
        insane, whose CRC mismatches, or whose header is not a JSON
        object; everything beyond it counts as ``dropped_bytes``.
        """
        result = JournalReplay()
        try:
            data = Path(path).read_bytes()
        except OSError:
            return result
        if not data.startswith(MAGIC):
            result.torn = bool(data)
            result.dropped_bytes = len(data)
            return result
        offset = len(MAGIC)
        result.valid_size = offset
        total = len(data)
        while offset < total:
            if offset + _RECORD.size > total:
                result.torn = True
                break
            header_len, blob_len, crc = _RECORD.unpack_from(data, offset)
            if header_len > _MAX_HEADER_BYTES or blob_len > _MAX_BLOB_BYTES:
                result.torn = True
                break
            body_start = offset + _RECORD.size
            body_end = body_start + header_len + blob_len
            if body_end > total:
                result.torn = True
                break
            body = data[body_start:body_end]
            if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
                result.torn = True
                break
            try:
                header = json.loads(body[:header_len].decode())
            except (UnicodeDecodeError, json.JSONDecodeError):
                result.torn = True
                break
            if not isinstance(header, dict):
                result.torn = True
                break
            result.records.append((header, bytes(body[header_len:])))
            offset = body_end
            result.valid_size = offset
        result.dropped_bytes = total - result.valid_size
        return result


class NullJournal:
    """The journal of a process without a state directory: appends go nowhere.

    Lets the work queue and the bounds server journal unconditionally; no
    JSON encoding, file or fsync work runs.
    """

    def append(self, record: dict, blob: bytes = b"", sync: bool = False) -> None:
        pass

    def close(self, clean: bool = False) -> None:
        pass
