"""Property net for gap-directed anytime refinement (:mod:`repro.analysis.refine`).

Refinement is an *anytime* contract on top of an engine whose headline
guarantee is soundness, so the net pins three families of properties:

* **Monotone narrowing** — every refinement round's bounds are contained in
  the previous round's (hypothesis-driven over windows, budgets and round
  counts, plus the pure clamp algebra that makes it true);
* **Containment** — the final refined bound always sits inside the coarse
  uniform seed bound, and the seed bound is bit-identical to a
  ``refine="off"`` run of the same options;
* **Opt-out identity** — ``refine="off"`` queries reproduce the pinned
  golden bounds bit-for-bit across executor backends, so shipping the
  scheduler cannot move a single float for anyone who does not turn it on.
"""

from __future__ import annotations

import functools
import json
import math
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import geometric_program
from repro import AnalysisOptions, Interval, Model
from repro.analysis import RefinementScheduler, analyze_execution, refine_execution
from repro.analysis.config import REFINE_KINDS
from repro.analysis.engine import AnalysisReport, PathContribution
from repro.analysis.model import CompiledProgram
from repro.analysis.refine import _clamped, _path_gap, level_options
from repro.lang import builder as b
from repro.symbolic import ExecutionLimits

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

TARGETS = (Interval(0.0, 1.0), Interval(-math.inf, math.inf))

#: Deliberately tiny budgets: refinement levels scale *from* the base, so
#: small bases keep every hypothesis example in the low milliseconds.
TINY = dict(
    splits_per_dimension=2,
    max_boxes_per_path=36,
    score_splits=2,
    max_score_combinations=4,
)


def branchy_term():
    """Two paths (one linear, one box-fallback), two dimensions, one score atom."""
    return b.let(
        "x", b.sample(),
        b.let(
            "y", b.sample(),
            b.seq(
                b.observe_normal(0.8, 0.3, b.mul(b.var("x"), b.var("y"))),
                b.if_leq(
                    b.var("x"), 0.5,
                    b.add(b.var("x"), b.var("y")),
                    b.mul(b.var("x"), b.var("y")),
                ),
            ),
        ),
    )


@functools.lru_cache(maxsize=None)
def compiled(name: str) -> CompiledProgram:
    """Shared compilations so hypothesis examples only pay for analysis."""
    if name == "branchy":
        return CompiledProgram.compile(branchy_term(), ExecutionLimits(max_fixpoint_depth=4))
    if name == "geometric":
        return CompiledProgram.compile(
            geometric_program(0.5), ExecutionLimits(max_fixpoint_depth=3)
        )
    raise KeyError(name)


def as_pairs(bounds):
    return [(bound.lower, bound.upper) for bound in bounds]


def assert_contained(inner, outer):
    for narrow, wide in zip(inner, outer):
        assert narrow.lower >= wide.lower
        assert narrow.upper <= wide.upper


# ---------------------------------------------------------------------------
# The clamp algebra — what makes per-round narrowing monotone and sound.
# ---------------------------------------------------------------------------

finite = st.floats(min_value=0.0, max_value=16.0, allow_nan=False)
bound_pair = st.tuples(finite, finite).map(lambda p: (min(p), max(p)))


def contribution(pairs, truncated=False, name="box"):
    return PathContribution(analyzer_name=name, truncated=truncated, contributions=tuple(pairs))


@settings(max_examples=150, deadline=None)
@given(
    pairs=st.lists(st.tuples(bound_pair, bound_pair), min_size=1, max_size=4),
    truncated=st.booleans(),
)
def test_clamped_never_widens_and_never_grows_gap(pairs, truncated):
    previous = contribution([p for p, _ in pairs], truncated=truncated)
    refined = contribution([r for _, r in pairs], truncated=truncated, name="linear")
    merged = _clamped(previous, refined)
    assert merged.truncated is previous.truncated
    assert merged.analyzer_name == "linear"
    for (old_lower, old_upper), (new_lower, new_upper) in zip(
        previous.contributions, merged.contributions
    ):
        # Contained in the previous record (the monotonicity workhorse)…
        assert new_lower >= old_lower
        assert new_upper <= old_upper
        # …and still a valid interval.
        assert new_lower <= new_upper
    assert _path_gap(merged) <= _path_gap(previous)


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(bound_pair, min_size=1, max_size=4))
def test_clamped_keeps_previous_on_empty_intersection(pairs):
    previous = contribution(pairs)
    # Shift every refined interval strictly above the previous one so the
    # intersection is empty — the clamp must fall back to the previous
    # record rather than fabricate an inverted interval.
    refined = contribution([(hi + 1.0, hi + 2.0) for _, hi in pairs])
    merged = _clamped(previous, refined)
    assert merged.contributions == previous.contributions


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(bound_pair, min_size=1, max_size=4))
def test_path_gap_zeroes_truncated_lower_bounds(pairs):
    live = contribution(pairs, truncated=False)
    cut = contribution(pairs, truncated=True)
    assert _path_gap(live) == pytest.approx(sum(hi - lo for lo, hi in pairs))
    # A truncated path's entire upper contribution counts as gap.
    assert _path_gap(cut) == pytest.approx(sum(hi for _, hi in pairs))
    assert _path_gap(cut) >= _path_gap(live)


@settings(max_examples=150, deadline=None)
@given(
    level=st.integers(min_value=0, max_value=12),
    splits=st.integers(min_value=1, max_value=16),
    boxes=st.integers(min_value=1, max_value=50_000),
    score_splits=st.integers(min_value=1, max_value=64),
    combos=st.integers(min_value=1, max_value=8_192),
)
def test_level_options_scale_monotonically_and_stay_capped(
    level, splits, boxes, score_splits, combos
):
    base = AnalysisOptions(
        splits_per_dimension=splits,
        max_boxes_per_path=boxes,
        score_splits=score_splits,
        max_score_combinations=combos,
        refine="gap",
    )
    scaled = level_options(base, level)
    # Level options parameterise plain sweeps — never nested refinement.
    assert scaled.refine == "off"
    assert scaled.splits_per_dimension == splits * (1 << level)
    # Budgets never drop below the base and never exceed base-or-ceiling.
    assert base.max_boxes_per_path <= scaled.max_boxes_per_path <= max(boxes, 262_144)
    assert base.score_splits <= scaled.score_splits <= max(score_splits, 256)
    assert base.max_score_combinations <= scaled.max_score_combinations <= max(combos, 32_768)
    if level > 0:
        finer = level_options(base, level - 1)
        assert scaled.splits_per_dimension >= finer.splits_per_dimension
        assert scaled.max_boxes_per_path >= finer.max_boxes_per_path
        assert scaled.score_splits >= finer.score_splits
        assert scaled.max_score_combinations >= finer.max_score_combinations


# ---------------------------------------------------------------------------
# Scheduler properties over a real compiled program.
# ---------------------------------------------------------------------------

windows = st.tuples(
    st.floats(min_value=-0.5, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
).map(lambda p: Interval(p[0], p[0] + p[1]))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(window=windows, rounds=st.integers(min_value=1, max_value=4),
       splits=st.integers(min_value=2, max_value=3))
def test_rounds_narrow_monotonically_from_the_seed(window, rounds, splits):
    program = compiled("branchy")
    targets = (window, Interval(-math.inf, math.inf))
    options = AnalysisOptions(
        refine="gap", analyzers=("box",), **dict(TINY, splits_per_dimension=splits)
    )
    scheduler = RefinementScheduler(program.execution, targets, options)
    seed = scheduler.seed()
    # The seed is bit-identical to a refine="off" sweep of the same options.
    off = analyze_execution(
        program.execution, targets, options.with_updates(refine="off")
    )
    assert as_pairs(seed) == as_pairs(off)
    previous = seed
    for _ in range(rounds):
        bounds = scheduler.refine_round()
        if bounds is None:
            break
        assert_contained(bounds, previous)
        previous = bounds
    assert_contained(previous, seed)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(window=windows, rounds=st.integers(min_value=1, max_value=3))
def test_fixed_round_count_is_deterministic(window, rounds):
    program = compiled("branchy")
    targets = (window, Interval(-math.inf, math.inf))
    options = AnalysisOptions(
        refine="gap", refine_max_rounds=rounds, analyzers=("box",), **TINY
    )
    first = refine_execution(program.execution, targets, options)
    second = refine_execution(program.execution, targets, options)
    assert as_pairs(first) == as_pairs(second)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(window=windows)
def test_truncated_paths_refine_contained(window):
    """Truncated-path programs keep the containment contract."""
    program = compiled("geometric")
    assert program.execution.truncated_paths > 0
    targets = (window, Interval(-math.inf, math.inf))
    options = AnalysisOptions(refine="gap", **TINY)
    scheduler = RefinementScheduler(program.execution, targets, options)
    seed = scheduler.seed()
    final = scheduler.run()
    assert_contained(final, seed)


def test_scheduler_requires_seed_before_inspection():
    program = compiled("branchy")
    scheduler = RefinementScheduler(
        program.execution, TARGETS, AnalysisOptions(refine="gap", **TINY)
    )
    with pytest.raises(RuntimeError, match="seed"):
        scheduler.contributions
    with pytest.raises(RuntimeError, match="seed"):
        scheduler.bounds


def test_heap_drains_and_rounds_stop():
    program = compiled("branchy")
    options = AnalysisOptions(
        refine="gap", refine_max_rounds=None, analyzers=("box",), **TINY
    )
    scheduler = RefinementScheduler(program.execution, TARGETS, options)
    scheduler.seed()
    rounds = 0
    while scheduler.refine_round() is not None:
        rounds += 1
        assert rounds < 200, "scheduler failed to retire saturated paths"
    # Once drained it stays drained.
    assert scheduler.refine_round() is None


# ---------------------------------------------------------------------------
# Engine / Model integration.
# ---------------------------------------------------------------------------

class TestEngineIntegration:
    def test_refined_bounds_contained_in_unrefined(self):
        program = compiled("branchy")
        options = AnalysisOptions(refine="gap", **TINY)
        off = analyze_execution(program.execution, TARGETS, options.with_updates(refine="off"))
        refined = analyze_execution(program.execution, TARGETS, options)
        assert_contained(refined, off)

    def test_report_counts_refinement_work(self):
        program = compiled("branchy")
        report = AnalysisReport()
        analyze_execution(
            program.execution, TARGETS, AnalysisOptions(refine="gap", **TINY), report
        )
        assert report.refine_rounds > 0
        assert report.refine_paths > 0
        assert report.refine_seconds > 0.0
        # Path attribution happens exactly once per path.
        assert sum(report.analyzer_paths.values()) == program.path_count

        off_report = AnalysisReport()
        analyze_execution(
            program.execution, TARGETS, AnalysisOptions(refine="off", **TINY), off_report
        )
        assert off_report.refine_rounds == 0
        assert off_report.refine_paths == 0
        assert off_report.refine_seconds == 0.0

    def test_score_free_linear_paths_retire_unswept(self):
        # No level-scaled knob reaches a linear path without scores, so a
        # round would reproduce its record bit for bit: it retires instead.
        source = "(let x (sample) (let y (sample) (+ x (* 2 y))))"
        targets = [Interval(0.0, 1.0), Interval(0.5, 2.5), Interval(-math.inf, math.inf)]
        report = AnalysisReport()
        refined = Model.parse(source, AnalysisOptions(refine="gap")).bounds(targets, report=report)
        assert report.refine_paths == 0
        off = Model.parse(source, AnalysisOptions(refine="off")).bounds(targets)
        assert as_pairs(refined) == as_pairs(off)
        assert refined[0].upper > refined[0].lower  # a positive gap was on offer

    def test_progress_fires_per_round_with_narrowing_bounds(self):
        program = compiled("branchy")
        seen = []
        refine_execution(
            program.execution, TARGETS, AnalysisOptions(refine="gap", **TINY),
            progress=lambda bounds, paths: seen.append((as_pairs(bounds), paths)),
        )
        assert seen, "refinement ran no rounds on a program with positive gap"
        for (earlier, _), (later, _) in zip(seen, seen[1:]):
            for (wide_lo, wide_hi), (narrow_lo, narrow_hi) in zip(earlier, later):
                assert narrow_lo >= wide_lo
                assert narrow_hi <= wide_hi
        assert all(paths == program.path_count for _, paths in seen)

    def test_width_target_met_at_seed_runs_zero_rounds(self):
        program = compiled("branchy")
        report = AnalysisReport()
        options = AnalysisOptions(refine="gap", refine_width_target=1e9, **TINY)
        bounds = analyze_execution(program.execution, TARGETS, options, report)
        assert report.refine_rounds == 0
        off = analyze_execution(program.execution, TARGETS, options.with_updates(refine="off"))
        assert as_pairs(bounds) == as_pairs(off)

    def test_exhausted_time_budget_still_returns_seed_bounds(self):
        program = compiled("branchy")
        report = AnalysisReport()
        options = AnalysisOptions(refine="gap", refine_time_budget=1e-9, **TINY)
        bounds = analyze_execution(program.execution, TARGETS, options, report)
        assert report.refine_rounds == 0
        off = analyze_execution(program.execution, TARGETS, options.with_updates(refine="off"))
        assert as_pairs(bounds) == as_pairs(off)

    def test_env_variable_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYSIS_REFINE", "gap")
        assert AnalysisOptions().refine_enabled
        # An explicit knob always beats the environment.
        assert not AnalysisOptions(refine="off").refine_enabled
        monkeypatch.delenv("REPRO_ANALYSIS_REFINE")
        assert not AnalysisOptions().refine_enabled

    def test_validation_rejects_bad_knobs(self):
        assert REFINE_KINDS == ("off", "gap")
        with pytest.raises(ValueError, match="refine"):
            AnalysisOptions(refine="always")
        with pytest.raises(ValueError):
            AnalysisOptions(refine_time_budget=-1.0)
        with pytest.raises(ValueError):
            AnalysisOptions(refine_width_target=-0.5)
        with pytest.raises(ValueError):
            AnalysisOptions(refine_max_rounds=0)
        with pytest.raises(ValueError):
            level_options(AnalysisOptions(), -1)

    def test_model_bounds_refined_contained_and_deterministic(self):
        with Model(branchy_term()) as model:
            options = AnalysisOptions(refine="gap", max_fixpoint_depth=4, **TINY)
            off = model.bounds(TARGETS, options.with_updates(refine="off"))
            first = model.bounds(TARGETS, options)
            second = model.bounds(TARGETS, options)
            assert_contained(first, off)
            assert as_pairs(first) == as_pairs(second)

    def test_streamed_refinement_matches_batch(self):
        options = AnalysisOptions(refine="gap", max_fixpoint_depth=4, **TINY)
        with Model(branchy_term()) as batch_model:
            batch = batch_model.bounds(TARGETS, options)
        partials = []
        with Model(branchy_term()) as stream_model:
            streamed = stream_model.bounds(
                TARGETS, options.with_updates(stream=True),
                progress=lambda bounds, paths: partials.append(as_pairs(bounds)),
            )
        assert as_pairs(streamed) == as_pairs(batch)
        # The first progress call is the streamed first-bound preview; every
        # call after it is a sound refinement partial, narrowing monotonically
        # down to exactly the final bounds.
        assert len(partials) >= 2
        assert partials[-1] == as_pairs(streamed)
        for earlier, later in zip(partials[1:], partials[2:]):
            for (wide_lo, wide_hi), (narrow_lo, narrow_hi) in zip(earlier, later):
                assert narrow_lo >= wide_lo
                assert narrow_hi <= wide_hi


# ---------------------------------------------------------------------------
# refine="off" stays bit-identical to the pinned goldens, on every backend.
# ---------------------------------------------------------------------------

_GOLDEN_RTOL = 1e-9  # mirrors test_golden_regression (qhull/numpy ulp drift)

_BACKEND_LEGS = [
    pytest.param("serial", None, id="serial-columnar"),
    pytest.param("thread", None, id="thread-columnar"),
    pytest.param("process", "arena", id="process-arena", marks=pytest.mark.slow),
    pytest.param("socket", None, id="socket-columnar", marks=pytest.mark.slow),
]


@pytest.mark.parametrize("executor, transport", _BACKEND_LEGS)
def test_refine_off_matches_golden_on_every_backend(executor, transport, monkeypatch):
    path = GOLDEN_DIR / "geometric_depth6.json"
    if not path.exists():
        pytest.skip("golden file not generated yet")
    golden = json.loads(path.read_text())
    # Even with the environment demanding refinement, an explicit off wins —
    # and must reproduce the pinned floats.
    monkeypatch.setenv("REPRO_ANALYSIS_REFINE", "gap")
    options = AnalysisOptions(
        max_fixpoint_depth=6,
        refine="off",
        executor=executor,
        workers=1 if executor == "serial" else 2,
        payload_transport=transport,
    )
    targets = [Interval(-0.5, 0.5), Interval(0.5, 1.5), Interval(1.5, 2.5)]
    with Model(geometric_program(0.5), options) as model:
        bounds = model.bounds(targets)
    for current, pinned in zip(bounds, golden["denotation_bounds"]):
        assert current.lower == pytest.approx(pinned["lower"], rel=_GOLDEN_RTOL, abs=1e-15)
        assert current.upper == pytest.approx(pinned["upper"], rel=_GOLDEN_RTOL, abs=1e-15)


@pytest.mark.slow
@pytest.mark.parametrize("executor, transport", [
    ("thread", None),
    ("process", "arena"),
    ("socket", None),
])
def test_refined_bounds_bit_identical_across_backends(executor, transport):
    """Fixed round counts make refined bounds backend-independent."""
    options = AnalysisOptions(
        refine="gap", refine_max_rounds=3, max_fixpoint_depth=4,
        analyzers=("box",), **TINY
    )
    with Model(branchy_term(), options) as model:
        serial = as_pairs(model.bounds(TARGETS))
    parallel_options = options.with_updates(
        executor=executor, workers=2, payload_transport=transport
    )
    with Model(branchy_term(), parallel_options) as model:
        parallel = as_pairs(model.bounds(TARGETS))
    assert parallel == serial
