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
results from them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..intervals import Interval
from ..symbolic import SymbolicExecutionResult
from .config import AnalysisOptions

__all__ = [
    "DenotationBounds",
    "QueryBounds",
    "AnalysisReport",
    "PathContribution",
    "analyze_execution",
    "analyze_path_stream",
    "reduce_contributions",
    "normalised_query",
    "histogram_buckets",
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

    ``analyzer_paths`` counts how many paths each registered analyzer
    handled.  ``compile_cache_hits`` counts queries served
    from a :class:`~repro.analysis.model.Model`'s compiled-program cache
    without re-running symbolic execution.
    """

    path_count: int = 0
    truncated_paths: int = 0
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


def reduce_contributions(
    contributions: Sequence[PathContribution],
    targets: Sequence[Interval],
    report: Optional[AnalysisReport] = None,
) -> list[DenotationBounds]:
    """Sum per-path contributions into denotation bounds (Theorem 6.1).

    The accumulation always runs in canonical path order, so the result is
    bit-reproducible and independent of how the paths were partitioned into
    chunks or of the order in which workers finished: every backend returns
    the same floats.  Truncated paths contribute 0 to the lower sums.
    """
    totals = [(0.0, 0.0) for _ in targets]
    for contribution in contributions:
        if report is not None:
            report.record_path(contribution.analyzer_name)
        for index, (lower, upper) in enumerate(contribution.contributions):
            old_lower, old_upper = totals[index]
            totals[index] = (
                old_lower + (0.0 if contribution.truncated else lower),
                old_upper + upper,
            )
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

    The paths run on ``executor`` (a
    :class:`~repro.analysis.parallel.ParallelAnalysisExecutor`, reused
    across queries — this is what :class:`repro.Model` does) or, without
    one, on the process-wide executor of ``options``' kind
    (:func:`~repro.analysis.parallel.shared_executor`): the ``"serial"``
    kind for ``workers=1``, a pool otherwise.  Every backend runs the same
    table jobs and folds in canonical path order, so serial and parallel
    runs return bit-identical bounds (see :func:`reduce_contributions`).
    The linear analyzer's geometry cache lives in the compiled table's
    scratch space, so it is shared across the program's paths and across
    repeated queries on it.

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
    from .parallel import shared_executor

    options = options or AnalysisOptions()
    report = report if report is not None else AnalysisReport()
    start = time.perf_counter()
    # All report counters accumulate, so a report reused across queries stays
    # self-consistent (path_count covers the same runs as analyzer_paths).
    report.path_count += len(execution.paths)
    report.truncated_paths += execution.truncated_paths
    pool = executor or shared_executor(options)
    if options.refine_enabled:
        from .refine import refine_execution

        bounds = refine_execution(
            execution, targets, options,
            report=report, executor=pool, progress=progress,
            checkpoint=checkpoint,
        )
    else:
        bounds = pool.analyze(execution, targets, options, report)
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
    materialised.  The stream is dispatched in bounded chunks
    (:meth:`~repro.analysis.parallel.ParallelAnalysisExecutor.analyze_stream`)
    on ``executor``, or on the process-wide executor of ``options``' kind;
    the serial kind analyses one chunk at a time.  The fold runs in
    canonical path order, so the bounds are bit-identical to a batch run
    over the materialised path set.

    Exceptions raised by the generator (e.g. a mid-stream
    :class:`~repro.symbolic.PathExplosionError`) propagate to the caller.

    ``progress`` (optional) is the anytime hook of the service tier: a
    callable ``progress(partial_bounds, paths_done)`` invoked **once**, as
    soon as the first chunk's contributions are collected, with the running
    partial accumulation.  Partial lower bounds are sound lower bounds (path
    contributions are non-negative and only accumulate); partial upper
    bounds are *not* yet sound — they cover only the paths analysed so far —
    which is why the hook surfaces them as an explicitly partial preview,
    never as the query result.

    ``contribution_sink`` (optional) receives every per-path
    :class:`PathContribution` in canonical path order — the refinement
    scheduler seeds from it so a streamed query never pays a second uniform
    sweep.  The records are a few floats per path, so only callers that go
    on to refine should pass one.
    """
    from .parallel import shared_executor

    options = options or AnalysisOptions()
    report = report if report is not None else AnalysisReport()
    start = time.perf_counter()
    pool = executor or shared_executor(options)
    bounds = pool.analyze_stream(
        paths, targets, options, report,
        progress=progress, contribution_sink=contribution_sink,
    )
    report.seconds += time.perf_counter() - start
    return bounds


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
    """The equal-width bucket intervals of a histogram over ``[low, high)``.

    The last edge is ``high`` itself: ``low + (high - low) * n / n`` can
    round off it, and the buckets must tile ``[low, high)`` exactly.
    """
    if not isinstance(bucket_count, int) or isinstance(bucket_count, bool) or bucket_count <= 0:
        raise ValueError(f"bucket_count must be a positive integer, got {bucket_count!r}")
    if not (math.isfinite(low) and math.isfinite(high) and math.isfinite(high - low)):
        raise ValueError(
            f"histogram range [{low!r}, {high!r}) must have finite endpoints and a finite width"
        )
    if not high > low:
        raise ValueError("histogram bounds require high > low")
    edges = [low + (high - low) * k / bucket_count for k in range(bucket_count)] + [high]
    return [Interval(edges[k], edges[k + 1]) for k in range(bucket_count)]

