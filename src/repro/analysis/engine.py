"""The GuBPI engine core: guaranteed bounds on program denotations (Algorithm 1).

Pipeline:

1. symbolically execute the program up to the fixpoint depth limit, replacing
   deeper recursion by interval-type summaries (``approxFix``);
2. analyse every resulting symbolic interval path with the first applicable
   analyzer from the pluggable registry (:mod:`repro.analysis.registry`) —
   by default the optimised linear semantics (polytope volumes, Section 6.4)
   with the standard interval trace semantics (box splitting, Section 6.3) as
   the universal fallback;
3. sum the per-path bounds (Theorem 6.1 / Corollary 6.3) to obtain guaranteed
   bounds on ``⟦P⟧(U)`` for every requested target set ``U``, and normalise
   them into posterior bounds.

The recommended entry point is the :class:`repro.Model` facade
(:mod:`repro.analysis.model`), which compiles the symbolic phase once and
serves every downstream query from the cache.  This module keeps the engine
primitives — :func:`analyze_execution` turns one (possibly cached)
:class:`~repro.symbolic.SymbolicExecutionResult` into denotation bounds, and
:func:`normalised_query` / :func:`histogram_buckets` derive posterior-level
results from them — plus the deprecated free-function shims
(:func:`bound_denotation`, :func:`bound_query`,
:func:`bound_posterior_histogram`) that delegate to ``Model``.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..intervals import Interval
from ..lang.ast import Term
from ..symbolic import SymbolicExecutionResult, SymbolicPath
from .config import AnalysisOptions
from .histogram import HistogramBounds
from .registry import PathAnalyzer, resolve_analyzers

__all__ = [
    "DenotationBounds",
    "QueryBounds",
    "AnalysisReport",
    "PathContribution",
    "analyze_execution",
    "analyze_path_stream",
    "analyze_single_path",
    "reduce_contributions",
    "normalised_query",
    "histogram_buckets",
    "bound_denotation",
    "bound_query",
    "bound_posterior_histogram",
]

_REALS = Interval(-math.inf, math.inf)


@dataclass(frozen=True)
class DenotationBounds:
    """Guaranteed bounds on the unnormalised denotation of one target set."""

    target: Interval
    lower: float
    upper: float

    def contains(self, value: float, slack: float = 1e-9) -> bool:
        return self.lower - slack <= value <= self.upper + slack

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class QueryBounds:
    """Bounds on a normalised posterior query ``Pr[result ∈ target]``."""

    target: Interval
    unnormalised: DenotationBounds
    normalising_constant: DenotationBounds
    lower: float
    upper: float

    def contains(self, probability: float, slack: float = 1e-9) -> bool:
        return self.lower - slack <= probability <= self.upper + slack

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass
class AnalysisReport:
    """Statistics of one engine run (useful for benchmarks and debugging).

    ``analyzer_paths`` counts how many paths each registered analyzer handled;
    ``linear_paths`` / ``box_paths`` mirror the built-in analyzers for
    backwards compatibility.  ``compile_cache_hits`` counts queries served
    from a :class:`~repro.analysis.model.Model`'s compiled-program cache
    without re-running symbolic execution.
    """

    path_count: int = 0
    truncated_paths: int = 0
    linear_paths: int = 0
    box_paths: int = 0
    seconds: float = 0.0
    analyzer_paths: dict[str, int] = field(default_factory=dict)
    compile_cache_hits: int = 0
    #: Streaming pipeline telemetry: seconds from query start until the first
    #: chunk of path contributions was available (None for batch queries),
    #: and the high-water mark of paths resident in the parent process.
    first_result_seconds: Optional[float] = None
    peak_path_buffer: int = 0
    #: Gap-directed refinement telemetry (``options.refine="gap"``): rounds
    #: run, path re-analyses performed across all rounds, and wall-clock
    #: spent in the scheduler (included in ``seconds``).
    refine_rounds: int = 0
    refine_paths: int = 0
    refine_seconds: float = 0.0

    def record_path(self, analyzer_name: str) -> None:
        self.analyzer_paths[analyzer_name] = self.analyzer_paths.get(analyzer_name, 0) + 1
        if analyzer_name == "linear":
            self.linear_paths += 1
        elif analyzer_name == "box":
            self.box_paths += 1


@dataclass(frozen=True)
class PathContribution:
    """One path's raw per-target ``(lower, upper)`` contributions.

    ``truncated`` records whether the path was cut off by ``approxFix``; the
    reduction zeroes the lower contributions of truncated paths (the
    interval-type summary only covers terminating continuations, so such
    paths are sound for upper bounds only).
    """

    analyzer_name: str
    truncated: bool
    contributions: tuple[tuple[float, float], ...]


def analyze_single_path(
    path: SymbolicPath,
    analyzers: Sequence[PathAnalyzer],
    targets: Sequence[Interval],
    options: AnalysisOptions,
) -> PathContribution:
    """Analyse one path with the first applicable analyzer.

    The unit of work of the serial streaming loop; the chunk body every
    other route runs (:func:`~repro.analysis.parallel.analyze_table_slice`)
    calls the same analyzer methods, and raises this function's error for a
    path no analyzer accepts.
    """
    for analyzer in analyzers:
        if analyzer.applicable(path, options):
            contributions = analyzer.analyze(path, targets, options)
            return PathContribution(
                analyzer_name=analyzer.name,
                truncated=path.truncated,
                contributions=tuple(contributions),
            )
    names = ", ".join(options.analyzer_names)
    raise RuntimeError(
        f"no analyzer in ({names}) is applicable to a symbolic path; "
        "include the universal 'box' analyzer as a fallback"
    )


def _accumulate(
    totals: list[tuple[float, float]],
    contribution: PathContribution,
    report: Optional[AnalysisReport],
) -> None:
    """Fold one path's contributions into the running totals (in place)."""
    if report is not None:
        report.record_path(contribution.analyzer_name)
    for index, (lower, upper) in enumerate(contribution.contributions):
        path_lower = 0.0 if contribution.truncated else lower
        old_lower, old_upper = totals[index]
        totals[index] = (old_lower + path_lower, old_upper + upper)


def reduce_contributions(
    contributions: Sequence[PathContribution],
    targets: Sequence[Interval],
    report: Optional[AnalysisReport] = None,
) -> list[DenotationBounds]:
    """Sum per-path contributions into denotation bounds (Theorem 6.1).

    The accumulation always runs in canonical path order, so the result is
    bit-reproducible and independent of how the paths were partitioned into
    chunks or of the order in which workers finished: parallel runs return
    exactly the floats the serial loop returns.
    """
    totals = [(0.0, 0.0) for _ in targets]
    for contribution in contributions:
        _accumulate(totals, contribution, report)
    return [
        DenotationBounds(target=target, lower=lower, upper=upper)
        for target, (lower, upper) in zip(targets, totals)
    ]


def analyze_execution(
    execution: SymbolicExecutionResult,
    targets: Sequence[Interval],
    options: Optional[AnalysisOptions] = None,
    report: Optional[AnalysisReport] = None,
    executor: Optional["ParallelAnalysisExecutor"] = None,
    progress=None,
    checkpoint=None,
) -> list[DenotationBounds]:
    """Bounds on ``⟦P⟧(U)`` for every target, from a prior symbolic execution.

    Every path is handled by the first analyzer in ``options.analyzer_names``
    whose ``applicable`` predicate accepts it.  The execution may come from a
    cache; analysis never re-runs the symbolic phase.

    When ``options`` request parallelism (``workers > 1`` or an explicit
    ``executor`` kind) the path set is fanned out over a worker pool; an
    already-running :class:`~repro.analysis.parallel.ParallelAnalysisExecutor`
    can be passed in to reuse its pool across queries (this is what
    :class:`repro.Model` does).  Serial and parallel runs return bit-identical
    bounds (see :func:`reduce_contributions`).

    The serial loop (``workers=1``, no executor) runs the same chunk body as
    every pool worker — :func:`~repro.analysis.parallel.analyze_table_slice`
    over the execution's :class:`~repro.symbolic.arena.PathTable`, as one
    slice — and the linear analyzer's geometry cache, kept in the table's
    scratch space, is shared across the paths of the compiled program and
    across repeated queries on it.

    With ``options.refine="gap"`` the uniform sweep becomes the *seed* of a
    gap-directed refinement loop (:mod:`repro.analysis.refine`): the worst
    lower/upper-gap paths are iteratively re-analysed at doubled split
    budgets, and ``progress(bounds, paths_done)`` (optional) is invoked after
    every round with monotonically narrowing sound bounds.  ``progress`` is
    only consulted in refinement mode — the plain batch sweep has no
    intermediate sound bounds to report.  So is ``checkpoint`` (optional), a
    :class:`~repro.analysis.refine.RefinementCheckpoint` that keeps the
    rounds durable (see :func:`~repro.analysis.refine.refine_execution`).
    """
    options = options or AnalysisOptions()
    report = report if report is not None else AnalysisReport()
    start = time.perf_counter()
    # All report counters accumulate, so a report reused across queries stays
    # self-consistent (path_count covers the same runs as linear_paths etc.).
    report.path_count += len(execution.paths)
    report.truncated_paths += execution.truncated_paths

    if options.refine_enabled:
        from .refine import refine_execution

        pool = executor
        if pool is None and options.parallel:
            from .parallel import shared_executor

            pool = shared_executor(options)
        bounds = refine_execution(
            execution, targets, options,
            report=report, executor=pool, progress=progress,
            checkpoint=checkpoint,
        )
        report.seconds += time.perf_counter() - start
        return bounds

    if executor is not None or options.parallel:
        from .parallel import shared_executor

        # Callers without their own pool (the deprecated shims, direct
        # engine calls) share process-wide pools instead of paying a pool
        # fork + teardown per query.
        pool = executor if executor is not None else shared_executor(options)
        bounds = pool.analyze(execution, targets, options, report)
        report.seconds += time.perf_counter() - start
        return bounds

    # Serial loop: the whole table as one slice of the pool workers' chunk
    # body; the fold runs in canonical path order like every parallel merge.
    from .parallel import analyze_table_slice

    paths = execution.paths
    contributions = analyze_table_slice(
        execution.table(), 0, len(paths),
        tuple(targets), options, resolve_analyzers(options), paths=paths,
    )
    bounds = reduce_contributions(contributions, targets, report)
    report.seconds += time.perf_counter() - start
    return bounds


def analyze_path_stream(
    paths,
    targets: Sequence[Interval],
    options: Optional[AnalysisOptions] = None,
    report: Optional[AnalysisReport] = None,
    executor: Optional["ParallelAnalysisExecutor"] = None,
    progress=None,
    contribution_sink: Optional[list[PathContribution]] = None,
) -> list[DenotationBounds]:
    """Bounds on ``⟦P⟧(U)`` from a *stream* of symbolic paths.

    The streaming counterpart of :func:`analyze_execution`: ``paths`` is any
    iterable of :class:`~repro.symbolic.SymbolicPath` — typically a live
    :class:`~repro.symbolic.PathStream` — and is consumed incrementally, so
    analysis overlaps with exploration and the full path set is never
    materialised.  With parallel options the stream is dispatched in bounded
    chunks over a worker pool
    (:meth:`~repro.analysis.parallel.ParallelAnalysisExecutor.analyze_stream`);
    serially it folds each path's contribution as it arrives, keeping memory
    at O(targets).  Either way the fold runs in canonical path order, so the
    bounds are bit-identical to a batch run over the materialised path set.

    Exceptions raised by the generator (e.g. a mid-stream
    :class:`~repro.symbolic.PathExplosionError`) propagate to the caller.

    ``progress`` (optional) is the anytime hook of the service tier: a
    callable ``progress(partial_bounds, paths_done)`` invoked **once**, as
    soon as the first path contributions are folded, with the running
    partial accumulation.  Partial lower bounds are sound lower bounds (path
    contributions are non-negative and only accumulate); partial upper
    bounds are *not* yet sound — they cover only the paths analysed so far —
    which is why the hook surfaces them as an explicitly partial preview,
    never as the query result.

    ``contribution_sink`` (optional) receives every per-path
    :class:`PathContribution` in canonical path order — the refinement
    scheduler seeds from it so a streamed query never pays a second uniform
    sweep.  Passing a sink trades the serial branch's O(targets) memory for
    O(paths), so only callers that go on to refine should pass one.
    """
    options = options or AnalysisOptions()
    report = report if report is not None else AnalysisReport()
    start = time.perf_counter()

    if executor is not None or options.parallel:
        from .parallel import shared_executor

        pool = executor if executor is not None else shared_executor(options)
        bounds = pool.analyze_stream(
            paths, targets, options, report,
            progress=progress, contribution_sink=contribution_sink,
        )
        report.seconds += time.perf_counter() - start
        return bounds

    # Serial streaming: fold every path into the accumulator the moment it
    # is produced — O(targets) memory (plus the optional sink), peak path
    # buffer of one.
    analyzers = resolve_analyzers(options)
    totals = [(0.0, 0.0) for _ in targets]
    for path in paths:
        report.path_count += 1
        report.truncated_paths += int(path.truncated)
        contribution = analyze_single_path(path, analyzers, targets, options)
        if contribution_sink is not None:
            contribution_sink.append(contribution)
        _accumulate(totals, contribution, report)
        if report.first_result_seconds is None:
            report.first_result_seconds = time.perf_counter() - start
            report.peak_path_buffer = max(report.peak_path_buffer, 1)
            if progress is not None:
                progress(
                    [
                        DenotationBounds(target=target, lower=lower, upper=upper)
                        for target, (lower, upper) in zip(targets, totals)
                    ],
                    report.path_count,
                )
    report.seconds += time.perf_counter() - start
    return [
        DenotationBounds(target=target, lower=lower, upper=upper)
        for target, (lower, upper) in zip(targets, totals)
    ]


def normalised_query(
    target: Interval,
    target_bounds: DenotationBounds,
    total_bounds: DenotationBounds,
) -> QueryBounds:
    """Posterior bounds from denotation bounds on a target and on ``R``.

    The normalised bounds are derived from bounds on the target set, its
    complement-style remainder and the normalising constant:
    ``lower = lb(U) / (lb(U) + ub(R \\ U))`` and symmetrically for the upper
    bound, which is tighter than dividing by the plain bounds on ``Z``.
    """
    complement_lower = max(0.0, total_bounds.lower - target_bounds.upper)
    complement_upper = max(0.0, total_bounds.upper - target_bounds.lower)

    if target_bounds.lower + complement_upper > 0.0:
        lower = target_bounds.lower / (target_bounds.lower + complement_upper)
    else:
        lower = 0.0
    if target_bounds.upper + complement_lower > 0.0:
        upper = target_bounds.upper / (target_bounds.upper + complement_lower)
    elif total_bounds.upper == 0.0:
        upper = 0.0
    else:
        upper = 1.0
    upper = min(1.0, upper)
    return QueryBounds(
        target=target,
        unnormalised=target_bounds,
        normalising_constant=total_bounds,
        lower=lower,
        upper=upper,
    )


def histogram_buckets(low: float, high: float, bucket_count: int) -> list[Interval]:
    """The equal-width bucket intervals of a histogram over ``[low, high)``."""
    if not isinstance(bucket_count, int) or isinstance(bucket_count, bool) or bucket_count <= 0:
        raise ValueError(f"bucket_count must be a positive integer, got {bucket_count!r}")
    if not high > low:
        raise ValueError("histogram bounds require high > low")
    edges = [low + (high - low) * k / bucket_count for k in range(bucket_count + 1)]
    return [Interval(edges[k], edges[k + 1]) for k in range(bucket_count)]


# ---------------------------------------------------------------------------
# Deprecated free-function shims.
# ---------------------------------------------------------------------------


def _deprecated(old: str, new: str) -> None:
    warnings.warn(
        f"repro.analysis.{old} is deprecated; use repro.Model and {new} instead "
        "(the Model facade caches the symbolic execution across queries)",
        DeprecationWarning,
        stacklevel=3,
    )


def bound_denotation(
    term: Term,
    targets: Sequence[Interval],
    options: Optional[AnalysisOptions] = None,
    report: Optional[AnalysisReport] = None,
) -> list[DenotationBounds]:
    """Deprecated shim for ``Model(term).bounds(targets)``."""
    _deprecated("bound_denotation", "Model.bounds")
    from .model import Model

    # The transient model is closed so a parallel one-off query does not leak
    # its worker pool; a real Model amortises the pool over many queries.
    with Model(term, options=options) as model:
        return model.bounds(targets, report=report)


def bound_query(
    term: Term,
    target: Interval,
    options: Optional[AnalysisOptions] = None,
    report: Optional[AnalysisReport] = None,
) -> QueryBounds:
    """Deprecated shim for ``Model(term).probability(target)``."""
    _deprecated("bound_query", "Model.probability")
    from .model import Model

    with Model(term, options=options) as model:
        return model.probability(target, report=report)


def bound_posterior_histogram(
    term: Term,
    low: float,
    high: float,
    bucket_count: int,
    options: Optional[AnalysisOptions] = None,
    report: Optional[AnalysisReport] = None,
) -> HistogramBounds:
    """Deprecated shim for ``Model(term).histogram(low, high, bucket_count)``."""
    _deprecated("bound_posterior_histogram", "Model.histogram")
    from .model import Model

    with Model(term, options=options) as model:
        return model.histogram(low, high, bucket_count, report=report)
