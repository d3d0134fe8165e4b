"""Content-addressed on-disk state store for warm server restarts.

The bounds server keeps two in-memory caches — the compiled-program LRU
(:class:`repro.service.server.ProgramCache`) and the whole-query result
cache — that a process death used to throw away.  With ``--state-dir``
the server mirrors both to disk here, so a restarted server answers
repeat queries at ~cache-hit latency:

``<state-dir>/programs/<program_hash>.bin``
    Path-table images (:meth:`repro.symbolic.arena.PathTable.to_bytes`)
    plus a small JSON meta header (truncated/pruned path counts), keyed
    by the existing :func:`repro.analysis.model.program_hash` — the same
    content address the in-memory cache and the work queue already use.

``<state-dir>/results/<key_hash>.json``
    Whole result frames, keyed by a blake2b hash of the in-memory result
    key (program hash + targets + analysis options + deadline bucket).

``<state-dir>/checkpoints/<key_hash>.bin``
    Refinement checkpoints (:meth:`RefinementScheduler.to_bytes`),
    rewritten after every completed round and deleted on completion.

``<state-dir>/server.wal``
    The server's write-ahead journal (:mod:`repro.service.journal`).

A server without ``--state-dir`` runs the same request flow over a
:class:`NullStore`: every load misses and every save is dropped before
any serialisation happens.

Every entry is a single file of ``u32 CRC32 | payload``: loads verify the
checksum and **drop** (unlink) corrupt entries instead of serving them —
a recomputation is always available, a wrong answer never is.  Writes go
through a ``.tmp`` sibling + ``os.replace`` so readers never observe a
half-written entry, and the temp path is registered with the
:mod:`repro.service.journal` atexit sweep so crashed runs leave no
strays.  Directories are LRU-pruned by access time against an entry
budget.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Optional, Union

from .journal import register_temp, unregister_temp

__all__ = ["NullStore", "StateStore"]

_CRC = struct.Struct("!I")


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    register_temp(tmp)
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        unregister_temp(tmp)
        try:
            os.unlink(tmp)
        except OSError:
            pass


class NullStore:
    """The store of a server without a state directory: loads miss, saves vanish.

    Mirrors the :class:`StateStore` methods the server calls; nothing is
    encoded, written or fsynced.  The memory result LRU stays the only
    result tier.
    """

    persistent = False

    def load_compiled(self, term, limits):
        return None

    def save_compiled(self, compiled) -> None:
        pass

    def load_result(self, key_hash: str) -> None:
        return None

    def save_result(self, key_hash: str, result: dict) -> None:
        pass

    def load_checkpoint(self, key_hash: str) -> None:
        return None

    def save_checkpoint(self, key_hash: str, state) -> None:
        pass

    def drop_checkpoint(self, key_hash: str) -> None:
        pass

    def stats(self) -> dict:
        return {"saves": 0, "loads": 0, "corrupt_dropped": 0}


class StateStore:
    """CRC-verified, LRU-pruned persistence for server caches.

    Thread-safe for the server's use (engine threads save, the event-loop
    thread never touches disk directly).  All loads verify the CRC32 the
    entry was saved with; a mismatch unlinks the entry and returns
    ``None`` so the caller recomputes.
    """

    persistent = True

    def __init__(
        self,
        root: Union[str, Path],
        program_limit: int = 256,
        result_limit: int = 4096,
    ) -> None:
        self.root = Path(root)
        self.programs_dir = self.root / "programs"
        self.results_dir = self.root / "results"
        self.checkpoints_dir = self.root / "checkpoints"
        for directory in (self.programs_dir, self.results_dir, self.checkpoints_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self.program_limit = max(1, int(program_limit))
        self.result_limit = max(1, int(result_limit))
        self._lock = threading.Lock()
        # Telemetry (exposed through the server's stats frame).
        self.saves = 0
        self.loads = 0
        self.corrupt_dropped = 0

    @property
    def journal_path(self) -> Path:
        return self.root / "server.wal"

    # -- framed entries ---------------------------------------------------

    def _save(self, path: Path, payload: bytes, limit: int, directory: Path) -> None:
        _atomic_write(path, _CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF) + payload)
        with self._lock:
            self.saves += 1
        self._prune(directory, limit)

    def _load(self, path: Path) -> Optional[bytes]:
        try:
            data = path.read_bytes()
        except OSError:
            return None
        with self._lock:
            self.loads += 1
        if len(data) < _CRC.size:
            self._drop_corrupt(path)
            return None
        (crc,) = _CRC.unpack_from(data)
        payload = data[_CRC.size :]
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            self._drop_corrupt(path)
            return None
        try:  # refresh LRU recency for the pruner
            os.utime(path)
        except OSError:
            pass
        return payload

    def _drop_corrupt(self, path: Path) -> None:
        with self._lock:
            self.corrupt_dropped += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    def _prune(self, directory: Path, limit: int) -> None:
        try:
            entries = [
                entry
                for entry in os.scandir(directory)
                if entry.is_file() and not entry.name.endswith(".tmp")
            ]
        except OSError:
            return
        if len(entries) <= limit:
            return
        entries.sort(key=lambda entry: entry.stat().st_mtime)
        for entry in entries[: len(entries) - limit]:
            try:
                os.unlink(entry.path)
            except OSError:
                pass

    # -- programs ---------------------------------------------------------

    def save_program(self, key: str, table_image: bytes, meta: dict) -> None:
        """Persist one compiled program: JSON meta + raw path-table image."""
        header = json.dumps(meta, separators=(",", ":")).encode()
        payload = _CRC.pack(len(header)) + header + table_image
        self._save(self.programs_dir / f"{key}.bin", payload, self.program_limit, self.programs_dir)

    def load_program(self, key: str) -> Optional[tuple[dict, bytes]]:
        """Load ``(meta, table_image)`` or ``None`` (missing/corrupt)."""
        payload = self._load(self.programs_dir / f"{key}.bin")
        if payload is None or len(payload) < _CRC.size:
            return None
        (header_len,) = _CRC.unpack_from(payload)
        if _CRC.size + header_len > len(payload):
            self._drop_corrupt(self.programs_dir / f"{key}.bin")
            return None
        try:
            meta = json.loads(payload[_CRC.size : _CRC.size + header_len].decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._drop_corrupt(self.programs_dir / f"{key}.bin")
            return None
        return meta, payload[_CRC.size + header_len :]

    def has_program(self, key: str) -> bool:
        return (self.programs_dir / f"{key}.bin").exists()

    def save_compiled(self, compiled) -> None:
        """Persist a :class:`~repro.analysis.model.CompiledProgram`'s path table.

        Content-addressed by the canonical program hash, so re-persisting is
        a no-op and textually different spellings share one image.
        """
        key = compiled.program_hash
        if self.has_program(key):
            return
        execution = compiled.execution
        self.save_program(
            key,
            execution.table().to_bytes(),
            {
                "truncated_paths": execution.truncated_paths,
                "pruned_paths": execution.pruned_paths,
                "compile_seconds": compiled.compile_seconds,
            },
        )

    def load_compiled(self, term, limits):
        """Rebuild the compiled program of ``term`` under ``limits``, or ``None``.

        ``None`` when no image is stored; a corrupt image was already
        CRC-detected and dropped, so the caller compiles from scratch.
        """
        from ..analysis.model import CompiledProgram, program_hash
        from ..symbolic.arena import PathTable
        from ..symbolic.execute import SymbolicExecutionResult

        loaded = self.load_program(program_hash(term, limits))
        if loaded is None:
            return None
        meta, image = loaded
        table = PathTable.from_buffer(image)
        execution = SymbolicExecutionResult(
            paths=tuple(table.decode_all()),
            truncated_paths=int(meta.get("truncated_paths", 0)),
            pruned_paths=int(meta.get("pruned_paths", 0)),
        )
        # The decoded table IS the columnar view: cache it on the result so
        # analyzers and the arena transport reuse it instead of re-interning.
        object.__setattr__(execution, "_table", table)
        return CompiledProgram(
            term=term,
            limits=limits,
            execution=execution,
            compile_seconds=float(meta.get("compile_seconds", 0.0)),
        )

    # -- results ----------------------------------------------------------

    def save_result(self, key_hash: str, result: dict) -> None:
        payload = json.dumps(result, separators=(",", ":"), ensure_ascii=False).encode()
        self._save(self.results_dir / f"{key_hash}.json", payload, self.result_limit, self.results_dir)

    def load_result(self, key_hash: str) -> Optional[dict]:
        payload = self._load(self.results_dir / f"{key_hash}.json")
        if payload is None:
            return None
        try:
            result = json.loads(payload.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._drop_corrupt(self.results_dir / f"{key_hash}.json")
            return None
        if not isinstance(result, dict):
            self._drop_corrupt(self.results_dir / f"{key_hash}.json")
            return None
        return result

    # -- refinement checkpoints ------------------------------------------

    def save_checkpoint(self, key_hash: str, state) -> None:
        """Persist checkpoint bytes, or a scheduler's :meth:`to_bytes` state."""
        if not isinstance(state, bytes):
            state = state.to_bytes()
        self._save(
            self.checkpoints_dir / f"{key_hash}.bin",
            state,
            self.result_limit,
            self.checkpoints_dir,
        )

    def load_checkpoint(self, key_hash: str) -> Optional[bytes]:
        return self._load(self.checkpoints_dir / f"{key_hash}.bin")

    def drop_checkpoint(self, key_hash: str) -> None:
        try:
            os.unlink(self.checkpoints_dir / f"{key_hash}.bin")
        except OSError:
            pass

    # -- telemetry --------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "saves": self.saves,
                "loads": self.loads,
                "corrupt_dropped": self.corrupt_dropped,
            }
