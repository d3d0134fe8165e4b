"""The :class:`Model` facade: compile the symbolic phase once, query it many times.

Symbolic execution is by far the most expensive phase of the GuBPI pipeline —
it explores exponentially many paths and, for recursive programs, invokes the
interval type system on every ``approxFix`` summary.  Yet its output depends
only on the program term and on :class:`~repro.symbolic.ExecutionLimits`
(fixpoint depth, path cap), not on any of the analysis knobs.  ``Model``
exploits this: it owns an SPCF term, lazily compiles it into a
:class:`CompiledProgram` (one cached symbolic execution per limits
configuration) and serves every downstream query — denotation bounds,
posterior probabilities, histogram bounds — from the cache.  It also fronts
the stochastic (:meth:`Model.sample`), exact (:meth:`Model.exact`) and
path-exploration (:meth:`Model.estimate`) baselines so a whole evaluation
scenario runs off one object::

    from repro import Model, Interval, AnalysisOptions

    model = Model.parse("(let x (* 3 (sample)) (let _ (observe normal 1.1 0.25 x) x))")
    query = model.probability(Interval(0.0, 1.0))       # runs symbolic execution
    histogram = model.histogram(0.0, 3.0, 12)           # served from the cache
    samples = model.sample(10_000, method="importance") # stochastic baseline
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

import hashlib

from ..intervals import Interval
from ..lang.ast import Term
from ..lang.parser import require_closed
from ..symbolic import (
    ExecutionLimits,
    PathTableBuilder,
    SymbolicExecutionResult,
    fingerprint_term,
    stream_symbolic_paths,
    symbolic_paths,
)
from .config import AnalysisOptions
from .engine import (
    _REALS,
    AnalysisReport,
    DenotationBounds,
    QueryBounds,
    analyze_execution,
    analyze_path_stream,
    histogram_buckets,
    normalised_query,
)
from .histogram import BucketBound, HistogramBounds

__all__ = ["CompiledProgram", "Model", "program_hash"]


def program_hash(term: Term, limits: Optional[ExecutionLimits] = None) -> str:
    """The canonical hash identifying one compiled program.

    Folds the structural term fingerprint
    (:func:`repro.symbolic.fingerprint_term`) together with the
    :class:`~repro.symbolic.ExecutionLimits` that parameterise symbolic
    execution — the same pair the :class:`Model` compile cache is keyed on,
    lifted to a value that is stable **across processes**: the service tier
    uses it to share compiled programs (and their path tables) between
    tenants, so two clients submitting the same program text at the same
    limits hit one cache entry instead of running symbolic execution twice.
    """
    limits = limits or ExecutionLimits()
    digest = hashlib.blake2b(digest_size=16)
    digest.update(fingerprint_term(term).encode())
    digest.update(f"|{limits.max_fixpoint_depth}|{limits.max_paths}".encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class CompiledProgram:
    """One symbolic execution of a term, reusable across analysis queries.

    The pair ``(term, limits)`` determines ``execution`` completely, so a
    compiled program can be cached and shared freely; all its fields are
    immutable.
    """

    term: Term
    limits: ExecutionLimits
    execution: SymbolicExecutionResult
    compile_seconds: float

    @classmethod
    def compile(cls, term: Term, limits: Optional[ExecutionLimits] = None) -> "CompiledProgram":
        """Run symbolic execution once and package the result."""
        limits = limits or ExecutionLimits()
        start = time.perf_counter()
        execution = symbolic_paths(term, limits)
        return cls(
            term=term,
            limits=limits,
            execution=execution,
            compile_seconds=time.perf_counter() - start,
        )

    @property
    def path_count(self) -> int:
        return self.execution.path_count

    @property
    def exact(self) -> bool:
        """True when no fixpoint had to be over-approximated."""
        return self.execution.exact

    @property
    def program_hash(self) -> str:
        """Canonical cross-process identity of this compilation (cached).

        See :func:`program_hash`; computed lazily because the facade only
        needs it when a program enters the service tier's shared cache.
        """
        cached = getattr(self, "_program_hash", None)
        if cached is None:
            cached = program_hash(self.term, self.limits)
            object.__setattr__(self, "_program_hash", cached)
        return cached

    def analyze(
        self,
        targets: Sequence[Interval],
        options: Optional[AnalysisOptions] = None,
        report: Optional[AnalysisReport] = None,
        executor: Optional["ParallelAnalysisExecutor"] = None,
        progress=None,
        checkpoint=None,
    ) -> list[DenotationBounds]:
        """Denotation bounds for ``targets`` from the cached path set.

        ``executor`` (optional) is a running
        :class:`~repro.analysis.parallel.ParallelAnalysisExecutor` whose pool
        is reused instead of spinning one up per query.  ``progress`` and
        ``checkpoint`` (optional) are the per-round anytime and durability
        hooks of refinement mode (see
        :func:`repro.analysis.engine.analyze_execution`).
        """
        return analyze_execution(
            self.execution, targets, options, report,
            executor=executor, progress=progress, checkpoint=checkpoint,
        )


class Model:
    """Facade over one probabilistic program: bounds, baselines, caching.

    A ``Model`` owns an SPCF :class:`~repro.lang.ast.Term` plus default
    :class:`~repro.analysis.config.AnalysisOptions`; a term with free
    variables is refused with a :class:`~repro.lang.parser.ParseError`
    naming them (:func:`~repro.lang.parser.require_closed`).  Query methods
    accept per-call option overrides; queries whose options share the same
    :class:`~repro.symbolic.ExecutionLimits` share one cached
    :class:`CompiledProgram` (changing analysis-only knobs such as
    ``score_splits`` or the analyzer selection never re-runs symbolic
    execution, changing ``max_fixpoint_depth`` / ``max_paths`` does).

    Every query runs on a :class:`~repro.analysis.parallel.ParallelAnalysisExecutor`
    of the options' kind (``"serial"`` for ``workers=1``, a worker pool
    otherwise), likewise created lazily and reused across queries;
    :meth:`close` (or using the model as a context manager) shuts the pools
    down.  Parallel queries return bounds bit-identical to serial ones.
    """

    def __init__(self, term: Term, options: Optional[AnalysisOptions] = None) -> None:
        if not isinstance(term, Term):
            raise TypeError(f"Model expects an SPCF Term, got {type(term).__name__}")
        self._term = require_closed(term)
        self._options = options if options is not None else AnalysisOptions()
        self._compiled: dict[ExecutionLimits, CompiledProgram] = {}
        self._compile_count = 0
        self._cache_hits = 0
        self._fingerprint: Optional[str] = None
        # Service-tier observability: how many streamed queries primed the
        # compile cache through the tee, and how many times a shared
        # program-hash cache (repro.service) served / missed this model.
        self._stream_tee_primes = 0
        self._program_cache_hits = 0
        self._program_cache_misses = 0
        # Executors, keyed by the knobs that define them (the serial kind
        # included).  They are created lazily on the first query and reused
        # across queries (mirroring the compiled-program cache for the
        # symbolic phase); close() shuts them down.
        self._executors: dict[tuple, "ParallelAnalysisExecutor"] = {}

    # ------------------------------------------------------------------
    # Construction and configuration
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, source: str, options: Optional[AnalysisOptions] = None) -> "Model":
        """Build a model from SPCF surface syntax (see :mod:`repro.lang.parser`)."""
        from ..lang.parser import parse

        return cls(parse(source), options)

    @property
    def term(self) -> Term:
        return self._term

    @property
    def options(self) -> AnalysisOptions:
        return self._options

    def with_options(self, **changes) -> "Model":
        """A model over the same term with updated default options.

        The compiled-program cache is *shared* with the parent (not copied),
        so switching analysis knobs never repeats symbolic execution — and
        ``clear_cache`` on either model affects both.
        """
        clone = Model(self._term, self._options.with_updates(**changes))
        clone._compiled = self._compiled
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Model(term={type(self._term).__name__}, "
            f"compiled={len(self._compiled)}, cache_hits={self._cache_hits})"
        )

    # ------------------------------------------------------------------
    # Compilation cache
    # ------------------------------------------------------------------
    def compile(self, options: Optional[AnalysisOptions] = None) -> CompiledProgram:
        """The cached symbolic execution for the given options (compiling on miss)."""
        options = self._resolve(options)
        limits = options.execution_limits()
        compiled = self._compiled.get(limits)
        if compiled is None:
            compiled = CompiledProgram.compile(self._term, limits)
            self._compiled[limits] = compiled
            self._compile_count += 1
        else:
            self._cache_hits += 1
        return compiled

    def compiled_for(self, options: Optional[AnalysisOptions] = None) -> Optional[CompiledProgram]:
        """Peek the compile cache: the cached compilation or ``None``.

        Unlike :meth:`compile` this never runs symbolic execution and never
        touches the hit/compile counters — the durability layer uses it to
        ask "is a warm load needed?" without perturbing cache telemetry.
        """
        options = self._resolve(options)
        return self._compiled.get(options.execution_limits())

    def install_compiled(self, compiled: CompiledProgram) -> None:
        """Adopt an externally built compilation into the compile cache.

        The durability layer (:mod:`repro.service.store`) rebuilds
        :class:`CompiledProgram` instances from persisted path-table images
        on warm restart; installing one here makes the next query a compile
        cache hit instead of re-running symbolic execution.  The program's
        term must structurally match this model's term — enforced via the
        cross-process :func:`program_hash` so a stale store entry can never
        smuggle in another program's paths.
        """
        expected = program_hash(self._term, compiled.limits)
        actual = program_hash(compiled.term, compiled.limits)
        if actual != expected:
            raise ValueError(
                f"compiled program hash {actual} does not match model hash {expected}"
            )
        self._compiled[compiled.limits] = compiled

    def executor_for(self, options: Optional[AnalysisOptions] = None):
        """The executor serving ``options`` (a ``"serial"`` one for ``workers=1``).

        Public face of the lazy executor cache for callers that drive
        analysis components directly; executors are shared with regular
        :meth:`bounds` queries and shut down by :meth:`close` as usual.
        """
        return self._executor_for(self._resolve(options))

    def clear_cache(self) -> None:
        """Drop every cached compilation (subsequent queries recompile).

        The cache may be shared with models created via :meth:`with_options`;
        clearing it affects all of them.
        """
        self._compiled.clear()

    @property
    def compile_count(self) -> int:
        """How many symbolic executions this model has run."""
        return self._compile_count

    @property
    def cache_hits(self) -> int:
        """How many queries were served without re-running symbolic execution."""
        return self._cache_hits

    def fingerprint(self) -> str:
        """The structural fingerprint of this model's term (cached).

        The program half of :func:`program_hash` — what the service tier
        keys its multi-tenant program cache on.
        """
        if self._fingerprint is None:
            self._fingerprint = fingerprint_term(self._term)
        return self._fingerprint

    def note_program_cache(self, hit: bool) -> None:
        """Record one shared program-hash cache lookup that resolved to this model.

        Called by the service tier's :class:`repro.service.server.ProgramCache`
        so cache behaviour is observable through :meth:`cache_info` next to
        the compile-cache counters.
        """
        if hit:
            self._program_cache_hits += 1
        else:
            self._program_cache_misses += 1

    def cache_info(self) -> dict[str, int]:
        """Cache statistics: ``entries`` counts the (possibly shared) cache,
        ``compilations``/``hits`` count this instance's own queries,
        ``stream_tee_primes`` counts streamed queries that installed their
        path set into the compile cache, and the ``program_cache_*`` pair
        counts lookups of the service tier's shared program-hash cache that
        resolved to this model."""
        return {
            "entries": len(self._compiled),
            "compilations": self._compile_count,
            "hits": self._cache_hits,
            "stream_tee_primes": self._stream_tee_primes,
            "program_cache_hits": self._program_cache_hits,
            "program_cache_misses": self._program_cache_misses,
        }

    def _resolve(self, options: Optional[AnalysisOptions]) -> AnalysisOptions:
        return options if options is not None else self._options

    # ------------------------------------------------------------------
    # Executors
    # ------------------------------------------------------------------
    def _executor_for(self, options: AnalysisOptions):
        """The executor serving ``options``, created on first use."""
        from .parallel import ParallelAnalysisExecutor

        key = options.executor_key()
        executor = self._executors.get(key)
        if executor is None:
            # No chunk_size on the pool itself: it is a per-call knob (each
            # query's options govern partitioning), and baking the first
            # query's value into a pool keyed only by (kind, workers) would
            # leak it into later queries.
            executor = ParallelAnalysisExecutor(
                workers=options.workers,
                kind=options.effective_executor,
                socket_endpoint=options.socket_endpoint,
                socket_spawn_workers=options.socket_spawn_workers,
                io_timeout=options.io_timeout,
            )
            self._executors[key] = executor
            # Safety net for models dropped without close(): shut the pool
            # down when the model is garbage-collected, so worker processes
            # never outlive the object that owns them (close() remains the
            # deterministic path and is idempotent).
            weakref.finalize(self, executor.close)
        return executor

    def close(self) -> None:
        """Shut down every executor this model has spun up (idempotent).

        Queries remain valid afterwards — the next query simply creates a
        fresh executor.  ``Model`` is also a context manager::

            with Model(term, AnalysisOptions(workers=4)) as model:
                model.histogram(0.0, 3.0, 12)
        """
        for executor in self._executors.values():
            executor.close()
        self._executors.clear()

    def __enter__(self) -> "Model":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def executor_count(self) -> int:
        """How many executors (serial ones included) this model holds."""
        return len(self._executors)

    # ------------------------------------------------------------------
    # Guaranteed-bounds queries (the GuBPI engine)
    # ------------------------------------------------------------------
    def bounds(
        self,
        targets: Sequence[Interval],
        options: Optional[AnalysisOptions] = None,
        report: Optional[AnalysisReport] = None,
        progress=None,
        checkpoint=None,
    ) -> list[DenotationBounds]:
        """Guaranteed bounds on ``⟦P⟧(U)`` for every target ``U`` in ``targets``.

        With ``options.stream`` the symbolic exploration is *pipelined* into
        the analysis: paths are analysed (and, in parallel mode, dispatched
        to workers) while exploration is still enumerating, and the full path
        set is never materialised in one go.  A **cache tee** additionally
        materialises the paths *as they are dispatched*: if the whole stream
        fits ``options.stream_cache_budget`` bytes (measured as the interned,
        arena-encoded footprint), the result is installed in the
        compiled-program cache — and, on a process pool, its shared-memory
        segment is published — so a repeated query is served
        at batch-cached speed while the first query kept its
        time-to-first-bound.  Overflowing the budget simply degrades to
        uncached streaming.  When a compiled program for the options'
        execution limits is already cached the cached batch path is used
        instead (it is strictly cheaper and bit-identical).

        ``progress`` (optional) is the anytime hook the bounds service
        streams over the wire.  On streamed cache-miss queries it fires once
        with ``(partial_bounds, paths_done)`` as soon as the first path
        contributions land (see
        :func:`repro.analysis.engine.analyze_path_stream`).  With
        ``options.refine="gap"`` it additionally fires after every
        refinement round with monotonically narrowing *sound* bounds —
        including on batch and cache-hit queries, whose refinement rounds
        are their anytime signal.

        ``checkpoint`` (optional) is a
        :class:`~repro.analysis.refine.RefinementCheckpoint`: refinement
        rounds are saved through it and, after a crash, resumed from it
        (the bounds service's durable store).  It is unused without
        ``options.refine="gap"``.
        """
        options = self._resolve(options)
        if options.stream and options.execution_limits() not in self._compiled:
            return self._bounds_streamed(targets, options, report, progress, checkpoint)
        compilations_before = self._compile_count
        compiled = self.compile(options)
        if report is not None:
            if self._compile_count > compilations_before:
                report.seconds += compiled.compile_seconds
            else:
                report.compile_cache_hits += 1
        return compiled.analyze(
            targets, options, report,
            executor=self._executor_for(options), progress=progress,
            checkpoint=checkpoint,
        )

    def _bounds_streamed(
        self,
        targets: Sequence[Interval],
        options: AnalysisOptions,
        report: Optional[AnalysisReport],
        progress=None,
        checkpoint=None,
    ) -> list[DenotationBounds]:
        """One streamed query, with the cache tee wrapped around the stream.

        With ``options.refine="gap"`` the streamed sweep doubles as the
        refinement seed: a contribution sink captures every per-path record
        in canonical order, and once the tee installs the compiled program
        the gap scheduler refines from those records without re-sweeping.
        Refinement needs the materialised path set; when the tee cannot
        supply one (cache budget disabled, or overflowed mid-stream) the
        compiled program provides it instead — a cache hit when available,
        otherwise one batch re-exploration — so streamed bounds equal batch
        bounds in refinement mode too.
        """
        limits = options.execution_limits()
        stream = stream_symbolic_paths(self._term, limits)
        executor = self._executor_for(options)
        collector = PathTableBuilder() if options.stream_cache_enabled else None
        sink: Optional[list] = [] if options.refine_enabled else None
        #: Seconds spent *producing* paths (exploration + the tee's intern
        #: walk), excluding the analysis that runs between yields — the
        #: honest analog of a batch compilation's compile_seconds.
        explore_seconds = [0.0]

        def teed():
            budget = options.stream_cache_budget
            collecting = collector is not None
            resumed = time.perf_counter()
            for path in stream:
                if collecting:
                    # One intern walk per path; the interned path is what
                    # flows onward, so the collected set and the dispatched
                    # chunks share the same objects.  Everything collected is
                    # dropped the moment the arena-size estimate crosses the
                    # budget.
                    path = collector.append(path)
                    if collector.nbytes_estimate > budget:
                        collector.clear()
                        collecting = False
                explore_seconds[0] += time.perf_counter() - resumed
                yield path
                resumed = time.perf_counter()

        bounds = analyze_path_stream(
            teed(), targets, options, report,
            executor=executor, progress=progress, contribution_sink=sink,
        )
        execution = None
        if collector is not None and collector.paths and stream.stats.exhausted:
            # The stream completed within budget: its paths ARE the compiled
            # program.  The builder has already accumulated the columnar
            # tables — hand it to the execution result (its table()
            # finalises without another walk), install the program so the
            # next query (streamed or batch) is a cache hit, and — on a
            # process pool — publish the table bytes now, making the
            # shared-memory segment the cached dispatch representation too.
            execution = SymbolicExecutionResult(
                paths=tuple(collector.paths),
                truncated_paths=stream.stats.truncated_paths,
                pruned_paths=stream.stats.pruned_paths,
            )
            execution.attach_table_source(collector)
            if limits not in self._compiled:
                self._stream_tee_primes += 1
            self._compiled.setdefault(
                limits,
                CompiledProgram(
                    term=self._term,
                    limits=limits,
                    execution=execution,
                    compile_seconds=explore_seconds[0],
                ),
            )
            # A no-op off process pools: serialising the table for an
            # in-process executor would be pure waste.
            executor.prime_arena(self._compiled[limits].execution)
        if sink is not None and execution is None and stream.stats.exhausted:
            # The tee could not materialise the path set but refinement
            # needs one: the compiled program supplies it — cached from a
            # previous query when possible, otherwise one re-exploration.
            # Path order is canonical either way, so the sink's records
            # still line up index for index.
            execution = self.compile(options).execution
        if (
            sink is not None
            and execution is not None
            and len(sink) == len(execution.paths)
        ):
            # Refine off the streamed sweep's own records: the sink holds
            # one canonical-order record per path, so the scheduler's
            # seed bound is exactly the streamed bound and every round
            # narrows from there.  The streamed reduce already attributed
            # the paths, so refine_execution skips re-recording them.
            from .refine import refine_execution

            refine_start = time.perf_counter()
            bounds = refine_execution(
                execution, targets, options,
                report=report, executor=executor, progress=progress,
                seed_contributions=sink, checkpoint=checkpoint,
            )
            if report is not None:
                report.seconds += time.perf_counter() - refine_start
        return bounds

    def bound(
        self,
        target: Interval,
        options: Optional[AnalysisOptions] = None,
        report: Optional[AnalysisReport] = None,
    ) -> DenotationBounds:
        """Guaranteed bounds on the unnormalised denotation of one target set."""
        return self.bounds([target], options, report)[0]

    def probability(
        self,
        target: Interval,
        options: Optional[AnalysisOptions] = None,
        report: Optional[AnalysisReport] = None,
    ) -> QueryBounds:
        """Bounds on the posterior probability ``Pr[result ∈ target]``."""
        target_bounds, total_bounds = self.bounds([target, _REALS], options, report)
        return normalised_query(target, target_bounds, total_bounds)

    def histogram(
        self,
        low: float,
        high: float,
        bucket_count: int = 20,
        options: Optional[AnalysisOptions] = None,
        report: Optional[AnalysisReport] = None,
    ) -> HistogramBounds:
        """Histogram-shaped bounds on the normalised posterior over ``[low, high)``."""
        buckets = histogram_buckets(low, high, bucket_count)
        bounds = self.bounds(list(buckets) + [_REALS], options, report)
        z_bounds = bounds[-1]
        bucket_bounds = [
            BucketBound(bucket=bucket, lower=bound.lower, upper=bound.upper)
            for bucket, bound in zip(buckets, bounds[:-1])
        ]
        return HistogramBounds(
            buckets=bucket_bounds, z_lower=z_bounds.lower, z_upper=z_bounds.upper
        )

    # ------------------------------------------------------------------
    # Unified baselines
    # ------------------------------------------------------------------
    def sample(self, n: int, method: str = "importance", rng=None, **kwargs):
        """Run a stochastic baseline sampler on this model's program.

        ``method`` is a registered sampler name — ``"importance"`` (alias
        ``"is"``), ``"mh"`` or ``"hmc"`` out of the box (see
        :func:`repro.inference.sampler_by_name`).  Keyword arguments are
        forwarded to the sampler; each returns its existing result dataclass
        (:class:`~repro.inference.ImportanceResult`,
        :class:`~repro.inference.MHResult`, or the
        ``(HMCResult, values)`` pair of truncated HMC).
        """
        from ..inference import sampler_by_name

        sampler = sampler_by_name(method)
        return sampler(self._term, n, rng=rng, **kwargs)

    def exact(self, max_unroll: int = 200, on_limit: str = "raise"):
        """Exhaustively enumerate the posterior (finite discrete programs only)."""
        from ..exact import enumerate_posterior

        return enumerate_posterior(self._term, max_unroll=max_unroll, on_limit=on_limit)

    def estimate(
        self,
        target: Interval,
        path_budget: int = 200,
        max_fixpoint_depth: Optional[int] = None,
        options: Optional[AnalysisOptions] = None,
    ):
        """Run the score-free probability-estimation baseline on ``target``.

        Like the guaranteed-bounds queries, this honours the model's default
        options (per-call ``options`` override them); ``max_fixpoint_depth``
        overrides just the exploration depth of the baseline.
        """
        from ..estimation import estimate_probability

        options = self._resolve(options)
        depth = max_fixpoint_depth if max_fixpoint_depth is not None else options.max_fixpoint_depth
        return estimate_probability(
            self._term,
            target,
            path_budget=path_budget,
            max_fixpoint_depth=depth,
            options=options.with_updates(max_fixpoint_depth=depth),
        )
