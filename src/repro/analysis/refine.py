"""Gap-directed anytime refinement of guaranteed denotation bounds.

The classic engine spends ``splits_per_dimension`` *uniformly*: every path's
sample domain is cut into the same grid, whether the path's bound gap is a
dominant slice of the total width or already negligible.  This module turns
the split budget into an *anytime* resource instead:

1. **Seed.**  One coarse uniform sweep (the unchanged engine) produces the
   per-path :class:`~repro.analysis.engine.PathContribution` records and a
   first sound bound.
2. **Schedule.**  Every path enters a max-heap keyed by its *gap* — its
   summed ``upper − lower`` contribution across the query targets, with
   truncated paths' lower contributions zeroed exactly as the reduction
   zeroes them.  The heap is lazy: a popped entry whose level no longer
   matches the path's current level is stale and skipped.
3. **Refine.**  Each round pops a fixed-size batch of worst-gap paths and
   re-analyses them at the next *refinement level* — split budgets scaled by
   ``2**level`` (capped, see :func:`level_options`) — dispatched as explicit
   index-list table jobs over the regular executor backends
   (:meth:`~repro.analysis.parallel.ParallelAnalysisExecutor.analyze_refinement_jobs`),
   so refinement rides serial, thread, process and socket dispatch alike.
4. **Clamp.**  A refined record is intersected with the path's previous
   record (``max`` of lowers, ``min`` of uppers): both are sound enclosures
   of the path's exact contribution, so the intersection is sound — and the
   per-path intersection is what makes every round's bound *monotonically*
   contained in the previous round's, independent of whether the finer grid
   structurally nests the coarser one.  The full contribution list is then
   re-reduced in canonical path order (bit-reproducible), and the round
   bound is clamped against the previous round's bound to absorb float
   re-rounding of the sums.

Rounds stop on whichever budget binds first: ``refine_max_rounds`` (the
deterministic default), ``refine_time_budget`` (wall-clock, checked between
rounds), ``refine_width_target`` (every target narrow enough), or heap
exhaustion (every path retired).  For a fixed round count the refined
bounds are bit-identical across backends — round membership is a pure
function of the seed records.

A path retires when its gap reaches zero, when a refined sweep no longer
moves its record (the capped budgets have saturated), or — for box-analysed
paths — when no level up to the cap grows the effective per-dimension grid
(detected up front via the box analyser's own ``_grid_parts``; plateau
levels whose grid merely *matches* the current one are skipped, not
retired at, since ``floor(cells**(1/dim))`` can stall between doublings
for high-dimensional paths while finer grids remain reachable).
"""

from __future__ import annotations

import heapq
import json
import math
import time
from typing import Callable, Optional, Sequence

from ..intervals import Interval
from .box_analyzer import _grid_parts
from .config import AnalysisOptions
from .engine import (
    AnalysisReport,
    DenotationBounds,
    PathContribution,
    reduce_contributions,
)

__all__ = [
    "RefinementCheckpoint",
    "RefinementScheduler",
    "level_options",
    "refine_execution",
]

#: How many worst-gap paths one refinement round re-analyses.  A fixed size
#: (independent of the worker count) is what keeps round membership — and
#: therefore the refined floats — identical across backends; parallelism
#: comes from splitting the batch into jobs, not from growing it.
ROUND_SIZE = 16

#: Hard ceiling on per-path refinement levels (splits scale as ``2**level``,
#: so the ceiling is far beyond any practical budget — it only bounds the
#: scheduler against pathological never-converging records).
_LEVEL_CAP = 12

#: Absolute per-path ceilings for the scaled budgets.  The per-level caps
#: double alongside the splits (each level may spend ~2× the cells of the
#: previous one), but a single path's grid never exceeds these — a 6-dim
#: path at the box ceiling sweeps ≈256k cells, a few tens of MB of
#: transient grid arrays.  Score-atom refinement is ceilinged much earlier:
#: each atom-range chunk costs a polytope volume computation (vertex
#: enumeration, orders of magnitude more than a box cell), and in practice
#: the per-atom resolution saturates long before the chunk count does.
_BOX_CELL_CEILING = 262_144
_SCORE_SPLIT_CEILING = 256
_SCORE_COMBINATION_CEILING = 32_768


def level_options(options: AnalysisOptions, level: int) -> AnalysisOptions:
    """The analysis options of one refinement level.

    Level 0 is the seed sweep itself; level ``n`` doubles the per-dimension
    and per-score-atom split counts ``n`` times and lets the total-budget
    caps (``max_boxes_per_path`` / ``max_score_combinations``) grow in step,
    up to the absolute ceilings — without growing the caps, deep paths
    (whose seed grid already saturates the budget) could never refine at
    all.  ``refine`` itself is forced off: level options parameterise plain
    sweeps, never nested refinement.
    """
    if level < 0:
        raise ValueError(f"refinement level must be non-negative, got {level}")
    scale = 1 << level
    return options.with_updates(
        refine="off",
        splits_per_dimension=options.splits_per_dimension * scale,
        max_boxes_per_path=min(
            options.max_boxes_per_path * scale,
            max(options.max_boxes_per_path, _BOX_CELL_CEILING),
        ),
        score_splits=min(
            options.score_splits * scale,
            max(options.score_splits, _SCORE_SPLIT_CEILING),
        ),
        max_score_combinations=min(
            options.max_score_combinations * scale,
            max(options.max_score_combinations, _SCORE_COMBINATION_CEILING),
        ),
    )


def _path_gap(contribution: PathContribution) -> float:
    """One path's summed contribution to the lower/upper bound gap.

    Truncated paths contribute 0 to lower bounds (exactly as
    :func:`~repro.analysis.engine.reduce_contributions` zeroes them), so
    their whole upper contribution counts as gap — which is precisely why
    gap-directed scheduling pours budget into the truncation frontier.
    """
    gap = 0.0
    for lower, upper in contribution.contributions:
        effective_lower = 0.0 if contribution.truncated else lower
        gap += upper - effective_lower
    return gap


def _clamped(previous: PathContribution, refined: PathContribution) -> PathContribution:
    """Intersect a refined record with the path's previous record.

    Both records are sound enclosures of the path's exact per-target
    contribution, so ``(max lower, min upper)`` is sound too — and never
    wider than either input, which is what makes per-round narrowing
    monotone.  An empty intersection cannot arise from two sound
    enclosures; if float pathology ever produced one, the previous record
    is kept (refinement may stall, soundness never breaks).
    """
    merged = []
    for (old_lower, old_upper), (new_lower, new_upper) in zip(
        previous.contributions, refined.contributions
    ):
        lower = max(old_lower, new_lower)
        upper = min(old_upper, new_upper)
        if lower > upper:
            lower, upper = old_lower, old_upper
        merged.append((lower, upper))
    return PathContribution(
        analyzer_name=refined.analyzer_name,
        truncated=previous.truncated,
        contributions=tuple(merged),
    )


class RefinementScheduler:
    """Gap-directed anytime refinement over one compiled path set.

    Drive it either through :meth:`run` (seed, then rounds until a budget
    binds, with an optional per-round ``progress`` callback — what the
    engine and the service tier do) or manually via :meth:`seed` +
    :meth:`refine_round` (what the property tests do to inspect every
    intermediate bound).

    ``executor`` (optional) is a running
    :class:`~repro.analysis.parallel.ParallelAnalysisExecutor`; without one
    the sweeps run on a ``"serial"`` executor.
    ``seed_contributions`` (optional) are already-computed canonical-order
    per-path records — the streamed cache tee hands them over so a streamed
    query's refinement never re-sweeps the paths it just analysed.
    """

    def __init__(
        self,
        execution,
        targets: Sequence[Interval],
        options: AnalysisOptions,
        executor=None,
        seed_contributions: Optional[Sequence[PathContribution]] = None,
    ) -> None:
        self.execution = execution
        self.targets = tuple(targets)
        self.options = options
        if executor is None:
            from .parallel import ParallelAnalysisExecutor

            executor = ParallelAnalysisExecutor(workers=1, kind="serial")
        self.executor = executor
        self._contributions: Optional[list[PathContribution]] = (
            list(seed_contributions) if seed_contributions is not None else None
        )
        self._seeded_externally = seed_contributions is not None
        self._levels: dict[int, int] = {}
        self._retired: set[int] = set()
        self._heap: list[tuple[float, int, int]] = []
        self._bounds: Optional[list[DenotationBounds]] = None
        self.rounds_run = 0
        self.paths_refined = 0

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------
    @property
    def contributions(self) -> list[PathContribution]:
        """The current canonical-order per-path records (after :meth:`seed`)."""
        if self._contributions is None:
            raise RuntimeError("RefinementScheduler.seed() has not run yet")
        return self._contributions

    @property
    def bounds(self) -> list[DenotationBounds]:
        """The current reported bounds (after :meth:`seed`)."""
        if self._bounds is None:
            raise RuntimeError("RefinementScheduler.seed() has not run yet")
        return list(self._bounds)

    def seed(self) -> list[DenotationBounds]:
        """Run (or adopt) the coarse uniform sweep and build the gap heap.

        The seed bound is bit-identical to a ``refine="off"`` query with the
        same options — refinement only ever narrows it.
        """
        if self._contributions is None:
            self._contributions = self.executor.analyze_contributions(
                self.execution, self.targets, self.options
            )
        entries = []
        for index, contribution in enumerate(self._contributions):
            gap = _path_gap(contribution)
            if gap > 0.0 and not math.isnan(gap):
                # Max-heap via negated gap; the path index breaks ties
                # deterministically.
                entries.append((-gap, index, 0))
        heapq.heapify(entries)
        self._heap = entries
        self._bounds = reduce_contributions(self._contributions, self.targets, None)
        return list(self._bounds)

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def _next_level(self, index: int) -> Optional[int]:
        """The level the path refines to next, or None when it must retire."""
        current = self._levels.get(index, 0)
        level = current + 1
        if level > _LEVEL_CAP:
            return None
        contribution = self.contributions[index]
        if contribution.analyzer_name == "box":
            # Cheap saturation check: a sweep whose effective per-dimension
            # grid equals the current one would reproduce the record bit for
            # bit, so scan *past* such levels — ``floor(cells**(1/dim))``
            # plateaus between doublings for high-dimensional paths (e.g.
            # 5, 5, 6 …), and retiring at the first flat step would forfeit
            # the still-reachable finer grids below the cell ceiling.  The
            # path retires only when no level up to the cap grows the grid.
            dimension = self.execution.table().variable_count(index)
            current_parts = _grid_parts(dimension, level_options(self.options, current))
            while level <= _LEVEL_CAP:
                if (
                    _grid_parts(dimension, level_options(self.options, level))
                    > current_parts
                ):
                    return level
                level += 1
            return None
        elif contribution.analyzer_name == "linear":
            # Same idea for linear paths, whose only level-scaled knobs are
            # the score-atom budgets: a score-free path has none, and once
            # the ceilings freeze both, further levels would re-run the
            # identical (and expensive) polytope sweep.
            if not len(self.execution.table().score_ids(index)):
                return None
            current_options = level_options(self.options, current)
            next_options = level_options(self.options, level)
            if (
                next_options.score_splits == current_options.score_splits
                and next_options.max_score_combinations
                == current_options.max_score_combinations
            ):
                return None
        return level

    def _select_round(self) -> dict[int, list[int]]:
        """Pop the next batch of worst-gap paths, grouped by refinement level.

        Lazy heap discipline: entries whose recorded level no longer matches
        the path's current level are stale duplicates and dropped; paths
        whose next level saturates retire on the spot (their entry is
        already popped).  Selection never depends on the executor, so round
        membership is identical on every backend.
        """
        groups: dict[int, list[int]] = {}
        selected = 0
        while self._heap and selected < ROUND_SIZE:
            _, index, entry_level = heapq.heappop(self._heap)
            if index in self._retired or self._levels.get(index, 0) != entry_level:
                continue
            level = self._next_level(index)
            if level is None:
                self._retired.add(index)
                continue
            groups.setdefault(level, []).append(index)
            selected += 1
        return groups

    def _job_specs(
        self, groups: dict[int, list[int]]
    ) -> list[tuple[tuple[int, ...], AnalysisOptions]]:
        """Split the level groups into dispatchable ``(indices, options)`` jobs.

        Indices are sorted within a level (canonical, and kinder to the
        columnar sweep's memo locality); a level group is split so a pool
        can overlap jobs.  The split only shapes dispatch — merged results
        are keyed by path index, so it never affects the bounds.
        """
        workers = self.executor.workers
        jobs: list[tuple[tuple[int, ...], AnalysisOptions]] = []
        for level in sorted(groups):
            indices = sorted(groups[level])
            options = level_options(self.options, level)
            job_size = max(1, math.ceil(len(indices) / max(1, workers * 2)))
            for start in range(0, len(indices), job_size):
                jobs.append((tuple(indices[start : start + job_size]), options))
        return jobs

    def refine_round(self) -> Optional[list[DenotationBounds]]:
        """Run one refinement round; None when every path has retired.

        Selects the worst-gap batch, re-analyses it at the next level,
        clamps each refined record against its predecessor, re-reduces the
        full contribution list in canonical order and clamps the round
        bound against the previous one — so the returned bounds are always
        contained in the bounds of the previous round.
        """
        if self._contributions is None:
            self.seed()
        groups: dict[int, list[int]] = {}
        while self._heap and not groups:
            groups = self._select_round()
        if not groups:
            return None

        jobs = self._job_specs(groups)
        refined_lists = self.executor.analyze_refinement_jobs(
            self.execution, jobs, self.targets
        )
        level_of = {index: level for level, members in groups.items() for index in members}
        for (indices, _options), refined in zip(jobs, refined_lists):
            if len(refined) != len(indices):
                raise RuntimeError(
                    f"refinement job returned {len(refined)} records for "
                    f"{len(indices)} paths; one record per path is required"
                )
            for index, record in zip(indices, refined):
                previous = self._contributions[index]
                merged = _clamped(previous, record)
                self._levels[index] = level_of[index]
                self.paths_refined += 1
                if merged.contributions == previous.contributions:
                    # The doubled budget no longer moves the record: the
                    # path's caps have saturated, further levels would only
                    # burn cells.
                    self._retired.add(index)
                    continue
                self._contributions[index] = merged
                gap = _path_gap(merged)
                if gap > 0.0 and not math.isnan(gap):
                    heapq.heappush(self._heap, (-gap, index, level_of[index]))
                else:
                    self._retired.add(index)

        bounds = reduce_contributions(self._contributions, self.targets, None)
        # Per-path clamping makes the real-arithmetic sums monotone; this
        # round-level clamp also absorbs the ≤1-ulp float re-rounding of the
        # re-reduction, making narrowing monotone bit for bit.
        bounds = [
            DenotationBounds(
                target=current.target,
                lower=max(current.lower, previous.lower),
                upper=min(current.upper, previous.upper),
            )
            for current, previous in zip(bounds, self._bounds)
        ]
        self._bounds = bounds
        self.rounds_run += 1
        return list(bounds)

    # ------------------------------------------------------------------
    # Checkpointing (crash-safe resume)
    # ------------------------------------------------------------------
    #
    # The scheduler's whole evolving state is the contribution records, the
    # per-path levels, the retired set, the current bounds and the round
    # counters.  The gap heap is deliberately NOT serialised: under the
    # lazy-heap discipline, the set of *live* entries after any completed
    # round is exactly ``{(-gap(record[i]), i, level[i])}`` over non-retired
    # paths with positive gap — stale entries (superseded levels) are
    # skipped on pop, and round selection orders solely by those tuples.
    # Rebuilding the heap from the records therefore reproduces round
    # membership — and the refined floats — bit for bit.

    _STATE_VERSION = 1

    def to_bytes(self) -> bytes:
        """Serialise the post-round scheduler state (see the note above).

        Floats travel through JSON ``repr``, which round-trips every finite
        double exactly and (with ``allow_nan``) spells the IEEE specials as
        ``Infinity``/``-Infinity`` — so a resumed run continues from
        bit-identical records.
        """
        if self._contributions is None or self._bounds is None:
            raise RuntimeError("cannot checkpoint before seed()")
        state = {
            "version": self._STATE_VERSION,
            "targets": [[t.lo, t.hi] for t in self.targets],
            "rounds_run": self.rounds_run,
            "paths_refined": self.paths_refined,
            "levels": sorted(self._levels.items()),
            "retired": sorted(self._retired),
            "contributions": [
                {
                    "a": record.analyzer_name,
                    "t": record.truncated,
                    "c": [[lower, upper] for lower, upper in record.contributions],
                }
                for record in self._contributions
            ],
            "bounds": [
                [bound.target.lo, bound.target.hi, bound.lower, bound.upper]
                for bound in self._bounds
            ],
        }
        return json.dumps(state, separators=(",", ":")).encode()

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        execution,
        targets: Sequence[Interval],
        options: AnalysisOptions,
        executor=None,
    ) -> "RefinementScheduler":
        """Rebuild a scheduler from :meth:`to_bytes` state.

        Raises ``ValueError`` when the state does not match this execution
        or query (wrong version, path count or targets) — callers treat
        that as "no usable checkpoint" and reseed from scratch.
        """
        state = json.loads(data.decode())
        if state.get("version") != cls._STATE_VERSION:
            raise ValueError(f"unsupported checkpoint version {state.get('version')!r}")
        scheduler = cls(execution, targets, options, executor=executor)
        stored_targets = [tuple(pair) for pair in state["targets"]]
        if stored_targets != [(t.lo, t.hi) for t in scheduler.targets]:
            raise ValueError("checkpoint targets do not match the query")
        contributions = [
            PathContribution(
                analyzer_name=record["a"],
                truncated=bool(record["t"]),
                contributions=tuple(
                    (float(lower), float(upper)) for lower, upper in record["c"]
                ),
            )
            for record in state["contributions"]
        ]
        if len(contributions) != len(execution.paths):
            raise ValueError(
                f"checkpoint has {len(contributions)} path records, "
                f"execution has {len(execution.paths)}"
            )
        scheduler._contributions = contributions
        scheduler._levels = {int(index): int(level) for index, level in state["levels"]}
        scheduler._retired = {int(index) for index in state["retired"]}
        scheduler._bounds = [
            DenotationBounds(
                target=Interval(float(lo), float(hi)),
                lower=float(lower),
                upper=float(upper),
            )
            for lo, hi, lower, upper in state["bounds"]
        ]
        scheduler.rounds_run = int(state["rounds_run"])
        scheduler.paths_refined = int(state["paths_refined"])
        entries = []
        for index, record in enumerate(contributions):
            if index in scheduler._retired:
                continue
            gap = _path_gap(record)
            if gap > 0.0 and not math.isnan(gap):
                entries.append((-gap, index, scheduler._levels.get(index, 0)))
        heapq.heapify(entries)
        scheduler._heap = entries
        return scheduler

    # ------------------------------------------------------------------
    # The anytime loop
    # ------------------------------------------------------------------
    def _width_met(self, bounds: list[DenotationBounds]) -> bool:
        target = self.options.refine_width_target
        return target > 0.0 and all(bound.width <= target for bound in bounds)

    def run(
        self,
        progress: Optional[Callable[[list[DenotationBounds], int], None]] = None,
        report: Optional[AnalysisReport] = None,
        round_hook: Optional[Callable[["RefinementScheduler"], None]] = None,
    ) -> list[DenotationBounds]:
        """Seed, then refine until a budget binds; returns the final bounds.

        ``progress`` (optional) is invoked after every round with
        ``(bounds, path_count)`` — each invocation's bounds are contained
        in the previous invocation's, which is the anytime contract the
        service tier streams to tenants.  The time budget is checked
        *between* rounds: a started round always completes, so the reported
        bounds are always a consistent full reduction.

        ``round_hook(scheduler)`` (optional) fires after every completed
        round, *before* ``progress`` — a :class:`RefinementCheckpoint`
        saves the round there, so it is stable on disk before its partial
        reaches a client.  A scheduler restored with :meth:`from_bytes`
        continues counting rounds where the checkpoint left off, against
        the same budgets.
        """
        start = time.perf_counter()
        deadline = (
            start + self.options.refine_time_budget
            if self.options.refine_time_budget is not None
            else None
        )
        bounds = self.seed() if self._bounds is None else list(self._bounds)
        max_rounds = self.options.refine_max_rounds
        while True:
            if max_rounds is not None and self.rounds_run >= max_rounds:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if self._width_met(bounds):
                break
            result = self.refine_round()
            if result is None:
                break
            bounds = result
            if round_hook is not None:
                round_hook(self)
            if progress is not None:
                progress(list(bounds), len(self.contributions))
        if report is not None:
            report.refine_rounds += self.rounds_run
            report.refine_paths += self.paths_refined
            report.refine_seconds += time.perf_counter() - start
        return bounds


class RefinementCheckpoint:
    """Where one refined query keeps its rounds, so a crash resumes it.

    Passed as ``checkpoint=`` beside ``progress`` from
    :meth:`repro.Model.bounds` down to :func:`refine_execution`.  This base
    class keeps nothing; the bounds server subclasses it over its state
    store and journal.
    """

    def load(self) -> Optional[bytes]:
        """:meth:`RefinementScheduler.to_bytes` state to resume from, or ``None``."""
        return None

    def resumed(self, scheduler: RefinementScheduler) -> None:
        """A checkpoint was restored: ``scheduler.rounds_run`` rounds are done."""

    def round_done(self, scheduler: RefinementScheduler) -> None:
        """A round completed; called before ``progress`` reports it."""

    def finished(self, scheduler: RefinementScheduler) -> None:
        """The query's final bound is known; its checkpoint is no longer needed."""


def refine_execution(
    execution,
    targets: Sequence[Interval],
    options: AnalysisOptions,
    report: Optional[AnalysisReport] = None,
    executor=None,
    progress: Optional[Callable[[list[DenotationBounds], int], None]] = None,
    seed_contributions: Optional[Sequence[PathContribution]] = None,
    checkpoint: Optional[RefinementCheckpoint] = None,
) -> list[DenotationBounds]:
    """Gap-directed bounds for one execution: the engine's ``refine="gap"`` body.

    Seeds from ``seed_contributions`` when given (the streamed tee's
    records — their paths were already analysed and counted, so analyzer
    attribution is skipped), otherwise runs the coarse sweep and attributes
    each path's final analyzer to ``report`` exactly once, mirroring the
    classic engine's accounting.

    ``checkpoint`` (optional) makes the rounds durable.  A usable stored
    state takes precedence over either seed: the restored scheduler
    reports its bound through ``progress`` once, then continues with the
    next round, so the final bounds are bit-identical to an uninterrupted
    run.  A state that does not match this query is ignored.
    """
    scheduler = None
    state = checkpoint.load() if checkpoint is not None else None
    if state is not None:
        try:
            scheduler = RefinementScheduler.from_bytes(
                state, execution, targets, options, executor=executor
            )
        except ValueError:  # stale or foreign checkpoint: seed afresh
            pass
    if scheduler is None:
        scheduler = RefinementScheduler(
            execution, targets, options,
            executor=executor, seed_contributions=seed_contributions,
        )
    else:
        checkpoint.resumed(scheduler)
        if progress is not None:
            progress(scheduler.bounds, len(scheduler.contributions))
    bounds = scheduler.run(
        progress=progress, report=report,
        round_hook=checkpoint.round_done if checkpoint is not None else None,
    )
    if checkpoint is not None:
        checkpoint.finished(scheduler)
    if report is not None and seed_contributions is None:
        for contribution in scheduler.contributions:
            report.record_path(contribution.analyzer_name)
    return bounds
