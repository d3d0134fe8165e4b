"""Differential fuzzing over random SPCF programs (:func:`helpers.random_spcf_program`).

Golden files pin a handful of hand-picked workloads; this suite drives the
engine over *generated* programs instead, checking relations that must hold
for every program rather than exact numbers:

* **Analyzer agreement** — the box-only engine and the default
  (linear-first) engine both compute sound enclosures of the same
  denotation, so their bounds must overlap on every target;
* **Backend identity** — dispatching the same path set through the socket
  work-queue must reproduce the in-process floats bit for bit;
* **Refinement containment** — gap-directed refinement only ever narrows
  the uniform sweep's bounds;
* **Sweep against oracle** — every box path's compiled sweep matches the
  per-cell interval loop of ``helpers`` endpoint for endpoint, and its
  totals up to summation order.

Budgets are deliberately tiny (levels scale *from* the base), so a hundred
generated programs stay in CI-friendly territory.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import _analyze_cells, cell_interval, random_spcf_program
from repro import AnalysisOptions, Interval, Model
from repro.analysis import analyze_execution, box_analyzer
from repro.analysis.model import CompiledProgram
from repro.analysis.vectorize import TableProgramEvaluator
from repro.lang import parse
from repro.symbolic import ExecutionLimits

TARGETS = (Interval(0.0, 1.0), Interval(-math.inf, math.inf))

TINY = dict(
    splits_per_dimension=2,
    max_boxes_per_path=16,
    score_splits=2,
    max_score_combinations=4,
)

LIMITS = ExecutionLimits(max_fixpoint_depth=2, max_paths=60)

seeds = st.integers(min_value=0, max_value=10_000)


@functools.lru_cache(maxsize=256)
def compiled(seed: int) -> CompiledProgram:
    """One symbolic execution per generator seed, shared across properties."""
    return CompiledProgram.compile(random_spcf_program(seed, max_samples=2), LIMITS)


def as_pairs(bounds):
    return [(bound.lower, bound.upper) for bound in bounds]


def test_generator_is_deterministic_and_varied():
    from repro.symbolic import fingerprint_term

    prints = {fingerprint_term(random_spcf_program(seed)) for seed in range(40)}
    # Distinct seeds explore distinct programs…
    assert len(prints) > 30
    # …and equal seeds reproduce the exact same term.
    assert fingerprint_term(random_spcf_program(7)) == fingerprint_term(random_spcf_program(7))


def test_generator_covers_the_feature_axes():
    """Across a seed range the generator produces every path shape we rely on."""
    truncated = multi_path = False
    for seed in range(60):
        execution = compiled(seed).execution
        truncated = truncated or execution.truncated_paths > 0
        multi_path = multi_path or len(execution.paths) > 1
        if truncated and multi_path:
            break
    assert truncated, "no seed produced truncated (depth-limited) paths"
    assert multi_path, "no seed produced branching paths"


@settings(max_examples=100, deadline=None)
@given(seed=seeds)
def test_box_and_linear_bounds_overlap(seed):
    """Two sound enclosures of the same denotation must intersect."""
    program = compiled(seed)
    default = analyze_execution(program.execution, TARGETS, AnalysisOptions(**TINY))
    box_only = analyze_execution(
        program.execution, TARGETS, AnalysisOptions(analyzers=("box",), **TINY)
    )
    for one, other in zip(default, box_only):
        assert max(one.lower, other.lower) <= min(one.upper, other.upper) + 1e-9, (
            f"seed {seed}: disjoint enclosures {one} vs {other}"
        )
        assert one.lower >= -1e-12 and other.lower >= -1e-12


@settings(max_examples=100, deadline=None)
@given(seed=seeds)
def test_refined_bounds_contained_in_unrefined(seed):
    program = compiled(seed)
    options = AnalysisOptions(refine="gap", refine_max_rounds=1, **TINY)
    unrefined = analyze_execution(
        program.execution, TARGETS, options.with_updates(refine="off")
    )
    refined = analyze_execution(program.execution, TARGETS, options)
    for narrow, wide in zip(refined, unrefined):
        assert narrow.lower >= wide.lower, f"seed {seed}: lower bound regressed"
        assert narrow.upper <= wide.upper, f"seed {seed}: upper bound regressed"


@pytest.mark.slow
class TestSocketDifferential:
    """Serial vs socket dispatch over generated programs, one shared queue."""

    @pytest.fixture(scope="class")
    def socket_pool(self):
        from repro.analysis.parallel import ParallelAnalysisExecutor

        pool = ParallelAnalysisExecutor(workers=2, kind="socket")
        yield pool
        pool.close()

    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=seeds)
    def test_serial_vs_socket_bit_identical(self, socket_pool, seed):
        program = compiled(seed)
        options = AnalysisOptions(**TINY)
        serial = analyze_execution(program.execution, TARGETS, options)
        # Through the engine entry point, so an ambient REPRO_ANALYSIS_REFINE
        # default refines both legs identically (CI runs this suite both ways).
        socketed = analyze_execution(
            program.execution, TARGETS, options, executor=socket_pool
        )
        assert as_pairs(socketed) == as_pairs(serial), f"seed {seed}"

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=seeds)
    def test_refinement_serial_vs_socket_bit_identical(self, socket_pool, seed):
        """Refinement jobs ride the queue without moving a float."""
        from repro.analysis import refine_execution

        program = compiled(seed)
        options = AnalysisOptions(refine="gap", refine_max_rounds=2, **TINY)
        serial = refine_execution(program.execution, TARGETS, options)
        socketed = refine_execution(
            program.execution, TARGETS, options, executor=socket_pool
        )
        assert as_pairs(socketed) == as_pairs(serial), f"seed {seed}"


# ----------------------------------------------------------------------
# The box sweep against the per-cell oracle
# ----------------------------------------------------------------------

#: Programs without a sample: every path is a grid of one cell.
ZERO_VARIABLE_SOURCES = (
    "(let u (score 2.0) 5.0)",
    "(let u (observe normal 0.5 0.25 1.1) 0.25)",
    "(let u (score (exp 0.5)) (let v (score (log 3)) (- 1 0.5)))",
)

ORACLE_OPTIONS = AnalysisOptions(splits_per_dimension=3, max_boxes_per_path=64)


def _assert_sweep_matches_oracle(execution, label):
    """Every box path of ``execution``: per-cell endpoints of every root and
    the totals of both routes (the columnar and the materialised one)
    against the per-cell oracle of ``helpers``."""
    table = execution.table()
    for index, path in enumerate(execution.paths):
        instrs, constraints, score_positions, result_position, dists = (
            box_analyzer._box_program(table, index)
        )
        arrays = box_analyzer._cell_arrays(dists, ORACLE_OPTIONS)
        assert arrays is not None
        los, his, _ = arrays
        evaluator = TableProgramEvaluator(
            instrs, los.shape[0], var_leaf=lambda leaf: (los[:, leaf], his[:, leaf])
        )
        cells = [
            [Interval(lo, hi) for lo, hi in zip(cell_los, cell_his)]
            for cell_los, cell_his in zip(los.tolist(), his.tolist())
        ]
        roots = [constraint.expr for constraint in path.constraints]
        roots.extend(path.scores)
        roots.append(path.result)
        positions = [position for position, _ in constraints]
        positions.extend(score_positions)
        positions.append(result_position)
        for root, position in zip(roots, positions):
            lo, hi = evaluator.eval_to(position)
            want = [cell_interval(root, bounds) for bounds in cells]
            assert np.array_equal(lo, [value.lo for value in want]), f"{label} path {index}"
            assert np.array_equal(hi, [value.hi for value in want]), f"{label} path {index}"
        swept = box_analyzer.analyze_table_boxes(table, index, TARGETS, ORACLE_OPTIONS)
        assert box_analyzer.analyze_path_boxes(path, TARGETS, ORACLE_OPTIONS) == swept
        oracle = _analyze_cells(path, TARGETS, ORACLE_OPTIONS)
        for got, want in zip(swept, oracle):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), f"{label} path {index}"


def test_box_sweep_matches_per_cell_oracle_on_generated_programs():
    for seed in range(100):
        _assert_sweep_matches_oracle(compiled(seed).execution, f"seed {seed}")


@pytest.mark.parametrize("source", ZERO_VARIABLE_SOURCES)
def test_box_sweep_matches_per_cell_oracle_on_zero_variable_paths(source):
    program = CompiledProgram.compile(parse(source), LIMITS)
    assert program.execution.paths
    assert all(path.variable_count == 0 for path in program.execution.paths)
    _assert_sweep_matches_oracle(program.execution, source)


# ----------------------------------------------------------------------
# Undefined cells widen instead of failing
# ----------------------------------------------------------------------

#: ``exp(1000·x)`` overflows for x > 0.71, so the score's ``∞ − ∞`` is
#: undefined there; both programs raised ``ValueError`` before the sweep
#: became total.  (source, target, exact value)
_UNDEFINED_CELL_PROGRAMS = {
    "A": (
        "(let x (sample) (let u (score (- (exp (* 1000 x)) (exp (* 1000 x)))) x))",
        Interval(0.0, 1.0),
        Fraction(0),
    ),
    "B": (
        "(let x (sample uniform 0 1) (if (- x 0.9) 0"
        " (let u (score (exp (- (exp (* 1000 x)) (exp (* 1000 x))))) x)))",
        Interval(0.5, 1.0),
        1 - Fraction(0.9),
    ),
}


@pytest.mark.parametrize("analyzers", [("box",), ("linear", "box")], ids=["box", "linear"])
@pytest.mark.parametrize("score_splits", [None, 1], ids=["default-splits", "one-split"])
@pytest.mark.parametrize("name", sorted(_UNDEFINED_CELL_PROGRAMS))
def test_undefined_cells_give_a_sound_bound(name, analyzers, score_splits):
    source, target, exact = _UNDEFINED_CELL_PROGRAMS[name]
    options = AnalysisOptions(analyzers=analyzers, workers=1, executor="serial")
    if score_splits is not None:
        options = options.with_updates(score_splits=score_splits)
    bounds = Model.parse(source, options).bound(target)
    assert Fraction(bounds.lower) <= exact
    assert bounds.upper == math.inf or exact <= Fraction(bounds.upper)
