"""Configuration of the guaranteed-bounds analysis (GuBPI engine)."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..symbolic import ExecutionLimits

__all__ = [
    "AnalysisOptions",
    "DEFAULT_IO_TIMEOUT",
    "DEFAULT_JOB_RETRIES",
    "DEFAULT_JOB_TIMEOUT",
    "DEFAULT_REFINE_MAX_ROUNDS",
    "DEFAULT_SOCKET_ENDPOINT",
    "EXECUTOR_KINDS",
    "REFINE_KINDS",
    "TRANSPORT_KINDS",
    "parse_endpoint",
]

#: The recognised execution backends of the bound engine.  ``"serial"`` runs
#: the classic single-threaded loop, ``"thread"`` / ``"process"`` fan path
#: chunks out over a ``concurrent.futures`` pool (see
#: :mod:`repro.analysis.parallel`), and ``"socket"`` fans chunks out over a
#: TCP work queue to remote worker processes (``python -m
#: repro.service.worker``; see :mod:`repro.service.queue`).
EXECUTOR_KINDS = ("serial", "thread", "process", "socket")

#: Where the ``"socket"`` executor binds its work-queue server when
#: ``socket_endpoint`` is unset: loopback with an ephemeral port (the bound
#: address is discoverable via ``ParallelAnalysisExecutor.queue_address``).
DEFAULT_SOCKET_ENDPOINT = "127.0.0.1:0"

#: Default per-job timeout (seconds) of the socket work queue.
DEFAULT_JOB_TIMEOUT = 300.0

#: Default number of times a failed/timed-out/lost socket job is re-queued
#: before the query errors out.
DEFAULT_JOB_RETRIES = 2

#: Default socket-level patience (seconds) of the service tier: the work
#: queue's handshake read timeout, the liveness window for workers that do
#: not heartbeat, and the grace the parallel executor grants a queue with
#: zero connected workers before degrading to a local backend.
DEFAULT_IO_TIMEOUT = 30.0

#: The recognised process-dispatch payload formats.  ``"arena"`` (the only
#: one) writes the path table once into a ``multiprocessing.shared_memory``
#: segment (:mod:`repro.analysis.transport`) and ships tiny table jobs; on a
#: host where publishing fails, jobs carry the table's byte image inline.
TRANSPORT_KINDS = ("arena",)

#: The recognised anytime-refinement modes.  ``"off"`` (the default) runs
#: the classic one-shot uniform sweep; ``"gap"`` seeds from that sweep and
#: then iteratively re-splits the paths contributing most to the
#: lower/upper bound gap (see :mod:`repro.analysis.refine`).
REFINE_KINDS = ("off", "gap")

#: Default round cap of gap-directed refinement when no explicit budget is
#: given.  A *round* re-analyses a fixed-size batch of worst-gap paths at a
#: doubled split budget; a fixed default keeps refined bounds deterministic
#: (bit-identical across backends) out of the box.
DEFAULT_REFINE_MAX_ROUNDS = 4

#: Default memory budget (in bytes) of the streamed-query cache tee: a
#: ``stream=True`` query materialises the paths it dispatches into the
#: compiled-program cache as long as the (arena-encoded) footprint stays
#: under this budget, so a repeated query is served from the cache.
DEFAULT_STREAM_CACHE_BUDGET = 64 * 1024 * 1024

#: Environment overrides for the parallel defaults.  They let a CI job (or an
#: operator) run an unmodified workload in parallel mode::
#:
#:     REPRO_ANALYSIS_WORKERS=2 REPRO_ANALYSIS_EXECUTOR=thread pytest
_WORKERS_ENV = "REPRO_ANALYSIS_WORKERS"
_EXECUTOR_ENV = "REPRO_ANALYSIS_EXECUTOR"
_STREAM_ENV = "REPRO_ANALYSIS_STREAM"
_SOCKET_ENDPOINT_ENV = "REPRO_ANALYSIS_SOCKET_ENDPOINT"
_REFINE_ENV = "REPRO_ANALYSIS_REFINE"


def _require_positive(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _require_seconds(name: str, value, optional: bool = True) -> None:
    """Reject anything but a finite positive number of seconds (or ``None``).

    NaN and infinity are refused: ``socket.settimeout`` raises on both, and a
    NaN grace period never expires.
    """
    if value is None and optional:
        return
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not math.isfinite(value)
        or value <= 0
    ):
        suffix = " or None" if optional else ""
        raise ValueError(
            f"{name} must be a finite positive number of seconds{suffix}, got {value!r}"
        )


def _default_workers() -> int:
    raw = os.environ.get(_WORKERS_ENV)
    if not raw:  # unset or empty-but-set both mean "no override"
        return 1
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_WORKERS_ENV} must be an integer, got {raw!r}") from exc
    return workers


def _default_executor() -> Optional[str]:
    return os.environ.get(_EXECUTOR_ENV) or None


def _default_stream() -> bool:
    return os.environ.get(_STREAM_ENV, "").lower() not in ("", "0", "false", "no")


def _default_socket_endpoint() -> Optional[str]:
    return os.environ.get(_SOCKET_ENDPOINT_ENV) or None


def _default_refine() -> str:
    return os.environ.get(_REFINE_ENV) or "off"


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """Split a ``host:port`` endpoint string (the socket executor's knob)."""
    host, sep, port = endpoint.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint must look like 'host:port', got {endpoint!r}")
    try:
        port_number = int(port)
    except ValueError as exc:
        raise ValueError(f"endpoint port must be an integer, got {port!r}") from exc
    if not 0 <= port_number <= 65535:
        raise ValueError(f"endpoint port out of range: {port_number}")
    return host, port_number


@dataclass(frozen=True)
class AnalysisOptions:
    """Tunable knobs of Algorithm 1 and the path analysers.

    Attributes:
        max_fixpoint_depth: the depth limit ``D`` of Algorithm 1 — recursive
            calls beyond this depth are summarised by the interval type system.
        max_paths: abort threshold for symbolic path explosion.
        splits_per_dimension: how many pieces every sample variable's domain
            is split into by the *standard* interval trace semantics
            (Section 6.3).  The number of boxes is exponential in the path
            dimension, so it is capped by ``max_boxes_per_path``.
        max_boxes_per_path: cap on the grid size per path; the per-dimension
            split count is reduced to stay under it.
        score_splits: how many chunks the range of every linear score atom is
            split into by the *linear* semantics (Section 6.4).
        max_score_combinations: cap on the product grid over score atoms.
        use_linear_semantics: legacy switch between the optimised linear
            semantics and pure box splitting (the ablation of Section 6.4);
            superseded by ``analyzers`` but still honoured when ``analyzers``
            is not set.
        prune_empty_paths: skip (bound by 0) linear paths whose constraint
            polytope is infeasible *or flat*: a Chebyshev radius ``≤ 1e-9``
            means volume 0 under :meth:`repro.polytope.Polytope.volume_bounds`'
            rule, for the polytope and for everything inside it.
        analyzers: ordered preference of registered path-analyzer names (see
            :mod:`repro.analysis.registry`).  Every symbolic path is handled
            by the first listed analyzer that declares itself applicable.
            ``None`` (the default) derives the sequence from
            ``use_linear_semantics``: ``("linear", "box")`` when true,
            ``("box",)`` otherwise.
        workers: how many workers the parallel bound engine fans path chunks
            out over.  ``1`` (the default) keeps the engine serial unless
            ``executor`` explicitly requests a pool.  Defaults to
            ``$REPRO_ANALYSIS_WORKERS`` when that variable is set.
        chunk_size: number of symbolic paths per parallel work unit.  ``None``
            derives a deterministic, cost-balanced partition from the path
            set and the worker count (see
            :func:`repro.analysis.parallel.partition_paths`).
        executor: ``"serial"``, ``"thread"`` or ``"process"``; ``None`` (the
            default) derives the backend from ``workers`` — a process pool
            when ``workers > 1``, the serial loop otherwise.  Defaults to
            ``$REPRO_ANALYSIS_EXECUTOR`` when that variable is set.
        vectorized_boxes: let the box analyser evaluate all grid cells of a
            path in one vectorised sweep instead of a per-cell Python loop
            (:func:`repro.analysis.box_analyzer.analyze_path_boxes`).
        vectorized_scores: let the linear analyser evaluate all score-atom
            range combinations of an integral in one vectorised sweep instead
            of the per-combination Python loop
            (:mod:`repro.analysis.linear_analyzer`).
        vectorized_transcendentals: evaluate the monotone transcendental
            primitives (``exp``, ``log``) inside vectorised sweeps as
            whole-array NumPy calls instead of the per-cell scalar interval
            lifting.  **Off by default**: NumPy's transcendentals may differ
            from libm's in the last ulp, and the golden regression pins
            assume libm — enabling the knob keeps bounds sound but may move
            them by one ulp.
        stream: pipeline symbolic exploration into path analysis — paths are
            produced by the iterative explorer and consumed chunk-by-chunk
            while exploration is still enumerating, so the full path set is
            never materialised (see :func:`repro.analysis.engine.analyze_path_stream`).
            Streamed bounds are bit-identical to batch bounds.  Defaults to
            ``$REPRO_ANALYSIS_STREAM`` when that variable is set.
        prefetch: bounded-buffer depth of the streaming pipeline — at most
            ``workers × prefetch`` chunks are in flight at once, which caps
            the number of paths resident in the parent process at roughly
            ``(workers × prefetch + 1) × chunk size``.
        payload_transport: how path tables reach process workers.  Only
            ``"arena"`` (or ``None``, the same) is accepted: the table is
            published once per path set as a shared-memory segment and
            every table job names it; where publishing fails, jobs carry the
            table's byte image instead.  Bounds are identical either way.
        socket_endpoint: ``host:port`` the ``"socket"`` executor binds its
            work-queue server on.  ``None`` (the default) binds loopback with
            an ephemeral port — right for the common case where the executor
            spawns its own local workers; give an explicit reachable address
            when remote workers (``python -m repro.service.worker``) are
            meant to connect from other hosts.  Defaults to
            ``$REPRO_ANALYSIS_SOCKET_ENDPOINT`` when that variable is set.
        socket_spawn_workers: how many *local* worker processes the
            ``"socket"`` executor launches against its own queue.  ``None``
            (the default) spawns ``workers`` of them, so
            ``AnalysisOptions(executor="socket", workers=4)`` is
            self-contained; ``0`` spawns none (external workers must connect
            before any query makes progress).
        job_timeout: per-job wall-clock limit (seconds) of the socket work
            queue.  A job that exceeds it is requeued to another worker (the
            stuck worker's connection is dropped); ``None`` disables the
            timeout.  Like every timeout here it must be finite.
        job_retries: how many times a failed, timed-out or lost socket job
            is re-dispatched before the query fails.  Bounded retry is what
            turns a dead or wedged worker into a throughput loss instead of
            a query loss — while still guaranteeing that a job which can
            never succeed (e.g. a deterministic analyzer error) surfaces
            after ``job_retries + 1`` attempts.
        io_timeout: socket-level patience (seconds) of the service tier —
            the work queue's handshake read timeout, the liveness window
            for workers that do not heartbeat, and the no-worker grace the
            parallel executor grants the socket backend before walking down
            the degradation ladder (process pool, then serial).  Replaces
            the old hard-coded 30 s read timeout.
        time_budget: overall wall-clock budget (seconds) for one query,
            measured from dispatch.  The parallel executor turns it into an
            absolute deadline propagated onto every socket job (jobs not
            dispatched in time fail with ``DeadlineExceeded``), and the
            bounds server derives it from the client-supplied deadline so
            no query outlives its caller.  Deliberately *relative*: options
            participate in cache keys, and an absolute timestamp would make
            every query a cache miss.  ``None`` (the default) disables it.
        refine: anytime-refinement mode — ``"off"`` (the default: one
            uniform sweep at the configured split budgets) or ``"gap"``
            (gap-directed anytime refinement: seed from the uniform sweep,
            then iteratively re-analyse the paths contributing most to the
            lower/upper bound gap at doubled split budgets, see
            :mod:`repro.analysis.refine`).  Every refined bound is contained
            in the seed bound, and each round narrows monotonically; with
            ``"off"`` bounds are bit-identical to the classic engine.
            Defaults to ``$REPRO_ANALYSIS_REFINE`` when that variable is set.
        refine_time_budget: wall-clock budget (seconds) for the refinement
            rounds, checked between rounds — the anytime contract: the seed
            bound is always produced, then the scheduler narrows until the
            budget runs out.  ``None`` (the default) disables the time check
            (``refine_max_rounds`` still bounds the work); note that a time
            budget makes the *round count* — and therefore the exact refined
            floats — timing-dependent.
        refine_width_target: stop refining as soon as every target's bound
            width is at most this value.  ``0.0`` (the default) never stops
            early on width.
        refine_max_rounds: cap on the number of refinement rounds.  The
            default (:data:`DEFAULT_REFINE_MAX_ROUNDS`) keeps refined bounds
            deterministic — for a fixed round count they are bit-identical
            across backends.  ``None`` removes the cap (rounds run until the
            gap heap drains, the width target is met or the time budget
            expires).
        stream_cache_budget: memory budget (bytes) of the streamed-query
            cache tee.  A ``stream=True`` query on a cache miss materialises
            the paths it dispatches (interned, so the footprint is the
            arena-encoded size) and, if the whole stream fits the budget,
            installs the result in the compiled-program cache — a repeated
            query is then served from the cache at batch speed without the
            first query having sacrificed time-to-first-bound.  ``None`` or
            ``0`` disables the tee (streamed queries bypass the cache, the
            pre-tee behaviour).
    """

    max_fixpoint_depth: int = 6
    max_paths: int = 50_000
    splits_per_dimension: int = 8
    max_boxes_per_path: int = 20_000
    score_splits: int = 32
    max_score_combinations: int = 4_096
    use_linear_semantics: bool = True
    prune_empty_paths: bool = True
    analyzers: Optional[tuple[str, ...]] = None
    workers: int = field(default_factory=_default_workers)
    chunk_size: Optional[int] = None
    executor: Optional[str] = field(default_factory=_default_executor)
    vectorized_boxes: bool = True
    vectorized_scores: bool = True
    vectorized_transcendentals: bool = False
    stream: bool = field(default_factory=_default_stream)
    prefetch: int = 4
    payload_transport: Optional[str] = None
    socket_endpoint: Optional[str] = field(default_factory=_default_socket_endpoint)
    socket_spawn_workers: Optional[int] = None
    job_timeout: Optional[float] = DEFAULT_JOB_TIMEOUT
    job_retries: int = DEFAULT_JOB_RETRIES
    io_timeout: float = DEFAULT_IO_TIMEOUT
    time_budget: Optional[float] = None
    stream_cache_budget: Optional[int] = DEFAULT_STREAM_CACHE_BUDGET
    refine: str = field(default_factory=_default_refine)
    refine_time_budget: Optional[float] = None
    refine_width_target: float = 0.0
    refine_max_rounds: Optional[int] = DEFAULT_REFINE_MAX_ROUNDS

    def __post_init__(self) -> None:
        _require_positive("max_fixpoint_depth", self.max_fixpoint_depth)
        _require_positive("max_paths", self.max_paths)
        _require_positive("splits_per_dimension", self.splits_per_dimension)
        _require_positive("max_boxes_per_path", self.max_boxes_per_path)
        _require_positive("score_splits", self.score_splits)
        _require_positive("max_score_combinations", self.max_score_combinations)
        _require_positive("workers", self.workers)
        _require_positive("prefetch", self.prefetch)
        if self.chunk_size is not None:
            _require_positive("chunk_size", self.chunk_size)
        if self.executor is not None and self.executor not in EXECUTOR_KINDS:
            kinds = ", ".join(repr(kind) for kind in EXECUTOR_KINDS)
            raise ValueError(
                f"executor must be one of {kinds} (or None for automatic), "
                f"got {self.executor!r}"
            )
        if self.payload_transport is not None and self.payload_transport not in TRANSPORT_KINDS:
            kinds = ", ".join(repr(kind) for kind in TRANSPORT_KINDS)
            raise ValueError(
                f"payload_transport must be one of {kinds} (or None for the "
                f"default), got {self.payload_transport!r}"
            )
        if self.socket_endpoint is not None:
            parse_endpoint(self.socket_endpoint)  # raises ValueError when malformed
        if self.socket_spawn_workers is not None:
            spawn = self.socket_spawn_workers
            if not isinstance(spawn, int) or isinstance(spawn, bool) or spawn < 0:
                raise ValueError(
                    f"socket_spawn_workers must be a non-negative integer or None, got {spawn!r}"
                )
        _require_seconds("job_timeout", self.job_timeout)
        if not isinstance(self.job_retries, int) or isinstance(self.job_retries, bool) or self.job_retries < 0:
            raise ValueError(
                f"job_retries must be a non-negative integer, got {self.job_retries!r}"
            )
        _require_seconds("io_timeout", self.io_timeout, optional=False)
        _require_seconds("time_budget", self.time_budget)
        if self.stream_cache_budget is not None:
            budget = self.stream_cache_budget
            if not isinstance(budget, int) or isinstance(budget, bool) or budget < 0:
                raise ValueError(
                    f"stream_cache_budget must be a non-negative integer number "
                    f"of bytes or None, got {budget!r}"
                )
        if self.refine not in REFINE_KINDS:
            kinds = ", ".join(repr(kind) for kind in REFINE_KINDS)
            raise ValueError(f"refine must be one of {kinds}, got {self.refine!r}")
        _require_seconds("refine_time_budget", self.refine_time_budget)
        width = self.refine_width_target
        if (
            not isinstance(width, (int, float))
            or isinstance(width, bool)
            or math.isnan(width)
            or width < 0
        ):
            raise ValueError(
                f"refine_width_target must be a non-negative number, got {width!r}"
            )
        if self.refine_max_rounds is not None:
            _require_positive("refine_max_rounds", self.refine_max_rounds)
        if self.analyzers is not None:
            if isinstance(self.analyzers, str):
                raise ValueError("analyzers must be a sequence of names, not a string")
            names = tuple(self.analyzers)
            if not names:
                raise ValueError("analyzers must name at least one path analyzer")
            for name in names:
                if not isinstance(name, str) or not name:
                    raise ValueError(f"analyzer names must be non-empty strings, got {name!r}")
            object.__setattr__(self, "analyzers", names)

    @property
    def analyzer_names(self) -> tuple[str, ...]:
        """The effective, ordered analyzer preference of this configuration."""
        if self.analyzers is not None:
            return self.analyzers
        return ("linear", "box") if self.use_linear_semantics else ("box",)

    @property
    def effective_executor(self) -> str:
        """The execution backend selected by this configuration.

        An explicit ``executor`` wins; otherwise ``workers > 1`` selects a
        process pool and ``workers == 1`` the serial loop.
        """
        if self.executor is not None:
            return self.executor
        return "process" if self.workers > 1 else "serial"

    @property
    def parallel(self) -> bool:
        """Whether queries with these options run on a worker pool."""
        return self.effective_executor != "serial"

    @property
    def refine_enabled(self) -> bool:
        """Whether queries with these options run gap-directed refinement."""
        return self.refine == "gap"

    @property
    def stream_cache_enabled(self) -> bool:
        """Whether streamed queries tee their paths into the compile cache."""
        return bool(self.stream_cache_budget)

    def execution_limits(self) -> ExecutionLimits:
        """The subset of options that parameterise symbolic execution.

        Two configurations with equal :class:`ExecutionLimits` share the same
        symbolic path set, which is what :class:`repro.Model` keys its
        compiled-program cache on.
        """
        return ExecutionLimits(
            max_fixpoint_depth=self.max_fixpoint_depth,
            max_paths=self.max_paths,
        )

    def executor_key(self) -> tuple:
        """The subset of options that identify a reusable worker pool.

        ``chunk_size`` is deliberately absent: it only affects how one call
        partitions its paths, not the pool itself, so sweeping chunk sizes
        reuses a single pool.  For the ``"socket"`` backend the key includes
        the queue endpoint and spawn count — different endpoints are
        different clusters and must not share one queue server.
        """
        kind = self.effective_executor
        if kind == "socket":
            return (
                kind, self.workers, self.socket_endpoint,
                self.socket_spawn_workers, self.io_timeout,
            )
        return (kind, self.workers)

    def with_updates(self, **changes) -> "AnalysisOptions":
        """A copy of the options with some fields replaced."""
        return replace(self, **changes)
