"""The service tier's wire format: length-prefixed JSON + binary frames.

Every connection in the service stack — work queue ↔ worker, bounds client
↔ bounds server — speaks the same framing:

.. code-block:: text

    +----------------+----------------+----------------+--------------+
    | header_len u32 | blob_len   u64 |  header (JSON) |  blob bytes  |
    +----------------+----------------+----------------+--------------+
          network byte order (``!IQ``)   UTF-8            opaque

The **header** is a small JSON object (message type, job ids, bounds);
the **blob** carries bulk binary payloads — path-table images
(:meth:`repro.symbolic.arena.PathTable.to_bytes`), pickled query contexts
and pickled contribution lists — without base64 inflation or JSON escaping.
Messages that need no bulk payload leave the blob empty.

Float fidelity: bounds cross the wire inside the JSON header.  Python's
``json`` module serialises floats with ``repr``, which round-trips every
finite double exactly, and (with ``allow_nan``, the default) spells the
IEEE specials as ``Infinity``/``-Infinity``/``NaN`` — which its parser
reads back.  Both ends of every connection are this codebase, so the
non-standard spellings are safe, and **bounds decoded from a frame are
bit-identical to the floats that were encoded** — the wire never moves a
bound.

Blob payloads between queue and workers are pickled Python objects: the
work-queue port must only be exposed to trusted hosts (the same trust
boundary as ``multiprocessing`` pools).  The bounds front end
(:mod:`repro.service.server`) never unpickles client input.

**Frame integrity (v2).**  Senders set the top bit of ``header_len`` and
append a CRC32 of ``header + blob`` to the prefix::

    +---------------------------+--------------+-----------+--------+------+
    | 0x80000000 | header_len   | blob_len u64 | crc32 u32 | header | blob |
    +---------------------------+--------------+-----------+--------+------+

Receivers verify the checksum and raise :class:`FrameCorrupted` — a typed
:class:`ServiceFault` — on mismatch, so bytes damaged in flight (or by the
``corrupt`` fault action) surface as a typed service error instead of a
JSON decode error deep in a handler.  Unflagged (v1) frames are still
accepted, so mixed-version fleets interoperate during a rolling upgrade.
"""

from __future__ import annotations

import hashlib
import json
import socket
import struct
import time
import zlib
from typing import Iterable, Optional, Sequence

from ..analysis.engine import DenotationBounds
from ..intervals import Interval
from .. import faults

__all__ = [
    "ConnectionClosed",
    "DeadlineExceeded",
    "ERROR_CODES",
    "FrameCorrupted",
    "ProtocolError",
    "ServerBusy",
    "ServiceError",
    "ServiceFault",
    "WorkerLost",
    "bounds_from_wire",
    "bounds_to_wire",
    "encode_frame",
    "error_from_frame",
    "frame_decoder",
    "hash_bytes",
    "recv_exact",
    "recv_frame",
    "send_frame",
    "targets_from_wire",
    "targets_to_wire",
]

#: Frame prefix: header length (u32) + blob length (u64), network order.
_FRAME = struct.Struct("!IQ")

#: Appended to the v2 prefix: CRC32 of ``header + blob``.
_FRAME_CRC = struct.Struct("!I")

#: Top bit of ``header_len``: this frame carries a CRC32 (format v2).
#: Headers are capped at 16 MiB, so the bit is never set by a v1 length.
_CRC_FLAG = 0x80000000

#: Upper bound on one frame's JSON header — a corrupted or non-protocol
#: peer (e.g. an HTTP client poking the port) fails fast instead of making
#: the receiver allocate gigabytes.
_MAX_HEADER_BYTES = 16 * 1024 * 1024

#: Upper bound on one frame's blob (path tables of the largest supported
#: workloads are tens of MB; 4 GiB leaves vast headroom while still
#: rejecting garbage lengths).
_MAX_BLOB_BYTES = 4 * 1024 * 1024 * 1024


class ConnectionClosed(ConnectionError):
    """The peer closed the connection (EOF mid-frame or between frames)."""


class ProtocolError(RuntimeError):
    """The peer sent bytes that are not a well-formed frame."""


# ---------------------------------------------------------------------------
# Typed error taxonomy
# ---------------------------------------------------------------------------
#
# Every failure the service tier can hand a client is one of these, each
# with a stable wire ``code`` carried in the error frame, so callers can
# branch on the *kind* of failure (retry on BUSY, give up on
# DEADLINE_EXCEEDED, alert on WORKER_LOST) instead of grepping message
# strings.

class ServiceError(RuntimeError):
    """Base of every typed service failure (also raised for untyped errors)."""

    #: Stable wire code, or ``None`` for untyped server-side exceptions.
    code: Optional[str] = None


class ServiceFault(ServiceError):
    """An injected or infrastructure fault surfaced as a query failure."""

    code = "FAULT"


class ServerBusy(ServiceError):
    """The server is at its in-flight query limit; retry after a backoff."""

    code = "BUSY"

    def __init__(self, message: str, retry_after: float = 0.1) -> None:
        super().__init__(message)
        #: Suggested client-side backoff (seconds) before retrying.
        self.retry_after = retry_after


class DeadlineExceeded(ServiceError):
    """The caller's deadline passed before the query (or job) completed."""

    code = "DEADLINE_EXCEEDED"


class WorkerLost(ServiceError):
    """Every allowed attempt of a job lost its worker (death, wedge, timeout)."""

    code = "WORKER_LOST"


class FrameCorrupted(ServiceFault, ProtocolError):
    """A frame failed its CRC32 check — bytes were damaged in flight.

    Inherits both :class:`ServiceFault` (clients get a typed service
    error, ``code == "FAULT"``) and :class:`ProtocolError` (the queue and
    worker loops treat the connection as damaged and recover exactly as
    they do for malformed frames: drop the connection, requeue the job).
    """


#: code -> exception class, for decoding error frames client-side.
ERROR_CODES = {
    cls.code: cls for cls in (ServiceFault, ServerBusy, DeadlineExceeded, WorkerLost)
}


def error_from_frame(header: dict) -> ServiceError:
    """Build the typed exception an ``error`` frame describes.

    Frames with a recognised ``code`` decode to the matching subclass
    (``BUSY`` frames carry their ``retry_after`` hint); everything else —
    including frames from older servers — decodes to plain
    :class:`ServiceError`, so the historical ``except ServiceError`` pattern
    keeps working unchanged.
    """
    message = f"{header.get('exc_type')}: {header.get('error')}"
    code = header.get("code")
    cls = ERROR_CODES.get(code) if code else None
    if cls is ServerBusy:
        return ServerBusy(message, retry_after=float(header.get("retry_after", 0.1)))
    if cls is not None:
        return cls(message)
    return ServiceError(message)


def encode_frame(header: dict, blob: bytes = b"") -> bytes:
    """The v2 prefix, CRC32 and JSON header of one frame; ``blob`` follows as is."""
    payload = json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode()
    crc = zlib.crc32(payload)
    if blob:
        crc = zlib.crc32(blob, crc)
    return (
        _FRAME.pack(len(payload) | _CRC_FLAG, len(blob))
        + _FRAME_CRC.pack(crc & 0xFFFFFFFF)
        + payload
    )


def frame_decoder(max_blob_bytes: int = _MAX_BLOB_BYTES):
    """Decode one frame without doing IO: the codec every reader drives.

    A generator that yields how many bytes it needs next, is sent exactly
    that many, and returns ``(header, blob)`` — so the blocking socket
    reader (:func:`recv_frame`) and the bounds server's asyncio reader share
    one prefix, CRC and header layout.  Raises :class:`ProtocolError` on
    out-of-range sizes (``max_blob_bytes`` caps the blob an untrusted peer
    can make the reader buffer) or a header that is not a UTF-8 JSON
    object, and :class:`FrameCorrupted` when a v2 frame fails its CRC32.
    """
    header_len, blob_len = _FRAME.unpack((yield _FRAME.size))
    expected_crc = None
    if header_len & _CRC_FLAG:
        header_len &= ~_CRC_FLAG
        (expected_crc,) = _FRAME_CRC.unpack((yield _FRAME_CRC.size))
    if header_len > _MAX_HEADER_BYTES or blob_len > max_blob_bytes:
        raise ProtocolError(
            f"frame sizes out of range (header {header_len}B, blob {blob_len}B)"
        )
    payload = yield header_len
    blob = (yield blob_len) if blob_len else b""
    if expected_crc is not None:
        crc = zlib.crc32(payload)
        if blob:
            crc = zlib.crc32(blob, crc)
        if (crc & 0xFFFFFFFF) != expected_crc:
            raise FrameCorrupted(
                f"frame CRC mismatch (header {header_len}B, blob {blob_len}B)"
            )
    try:
        header = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame header is not valid JSON: {error}") from error
    if not isinstance(header, dict):
        raise ProtocolError(f"frame header must be a JSON object, got {type(header).__name__}")
    return header, blob


def send_frame(
    sock: socket.socket, header: dict, blob: bytes = b"", site: Optional[str] = None
) -> None:
    """Send one frame: JSON ``header`` plus an optional binary ``blob``.

    ``site`` names this send as a fault-injection point (see
    :mod:`repro.faults`); with no plan installed the check is a single
    ``None`` test.  Injected actions: ``drop`` (the frame silently never
    leaves), ``truncate`` (half the frame is sent, then the socket is
    hard-closed — the peer sees EOF mid-frame), ``delay`` (sleep before
    sending), ``slowloris`` (the frame trickles out in small pieces) and
    ``corrupt`` (one payload byte is flipped after the CRC is computed,
    so the receiver raises :class:`FrameCorrupted`).
    """
    frame = encode_frame(header, blob)
    action = faults.decide(site) if site is not None else None
    if action is not None:
        plan = faults.active()
        if action.kind == "drop":
            return
        if action.kind == "truncate":
            data = frame + blob
            cut = max(1, len(data) // 2)
            try:
                sock.sendall(data[:cut])
            finally:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                sock.close()
            return
        if action.kind == "corrupt":
            # Flip one byte in the middle of the JSON header, *after* the
            # CRC was computed: the frame arrives complete but damaged,
            # and the receiver's checksum catches it.
            data = bytearray(frame + blob)
            prefix = _FRAME.size + _FRAME_CRC.size
            data[prefix + (len(frame) - prefix) // 2] ^= 0xFF
            sock.sendall(bytes(data))
            return
        if action.kind == "slowloris":
            pause = action.param if action.param is not None else plan.default_param()
            data = frame + blob
            step = max(1, len(data) // 64)
            for offset in range(0, len(data), step):
                sock.sendall(data[offset : offset + step])
                time.sleep(pause)
            return
        if action.kind == "delay":
            time.sleep(action.param if action.param is not None else plan.default_param())
    sock.sendall(frame)
    if blob:
        sock.sendall(blob)


def recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`ConnectionClosed`."""
    if count == 0:
        return b""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(
                f"peer closed the connection with {remaining} of {count} bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> tuple[dict, bytes]:
    """Receive one frame, returning ``(header, blob)``.

    Raises :class:`ConnectionClosed` on EOF (including EOF exactly between
    frames — the normal way a peer hangs up), and otherwise whatever
    :func:`frame_decoder` raises for a malformed or corrupted frame.
    """
    decoder = frame_decoder()
    try:
        need = next(decoder)
        while True:
            need = decoder.send(recv_exact(sock, need))
    except StopIteration as done:
        return done.value


def hash_bytes(payload: bytes) -> str:
    """Content address of a binary payload (blake2b-128 hex).

    Used as the resource key of path-table images and pickled query
    contexts in the work queue: equal bytes always produce equal keys, so
    repeated queries over one compiled path set ship the table once per
    worker, not once per query.
    """
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# Bounds <-> JSON
# ---------------------------------------------------------------------------

def bounds_to_wire(bounds: Iterable[DenotationBounds]) -> list[dict]:
    """Encode denotation bounds as JSON-able records (floats via ``repr``)."""
    return [
        {
            "target": [entry.target.lo, entry.target.hi],
            "lower": entry.lower,
            "upper": entry.upper,
        }
        for entry in bounds
    ]


def bounds_from_wire(payload: Sequence[dict]) -> list[DenotationBounds]:
    """Decode :func:`bounds_to_wire` records back into ``DenotationBounds``."""
    decoded = []
    for record in payload:
        lo, hi = record["target"]
        decoded.append(
            DenotationBounds(
                target=Interval(float(lo), float(hi)),
                lower=float(record["lower"]),
                upper=float(record["upper"]),
            )
        )
    return decoded


def targets_to_wire(targets: Iterable[Interval]) -> list[list[float]]:
    """Encode query targets as ``[lo, hi]`` pairs."""
    return [[target.lo, target.hi] for target in targets]


def targets_from_wire(payload: Sequence[Sequence[float]]) -> tuple[Interval, ...]:
    """Decode ``[lo, hi]`` pairs into :class:`Interval` targets."""
    return tuple(Interval(float(lo), float(hi)) for lo, hi in payload)
