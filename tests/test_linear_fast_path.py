"""The linear analyzer's batched fast path, pinned against its scalar history.

The PR that introduced the batched LP kernels, the cross-path
:class:`~repro.analysis.linear_analyzer.GeometryCache` and the whole-array
density liftings claims every one of them is a pure reorganisation: the
floats cannot move.  This suite makes each claim a property:

* :func:`repro.analysis.linear_analyzer._integrate` (one pass over every
  cut of a path: one atom-LP and factor sweep per distinct polytope, cached
  and batched volumes, compiled templates) is bit-identical, reading by
  reading, to ``helpers.integrate_reference``, the pre-batching
  per-combination loop kept as the oracle — on interval-constant paths
  (``𝔓_lb ≠ 𝔓_ub``) and thin score-free target slabs too;
* the prepared HiGHS kernel returns the exact floats of the
  ``scipy.optimize.linprog`` wrapper it replaces, its directly built CSC
  arrays equal ``scipy.sparse``'s, and a Chebyshev LP re-solved on a shared
  skeleton returns the floats of a fresh one;
* one flatness rule: a flat scored cut is left to the volume layer, whose
  parent rule zeroes every cell cut from it (a flat path polytope is still
  pruned before any atom LP), while a thin cut measured as a slab of the
  full-dimensional path polytope keeps its exact volume inside its bound;
* the ``uniform_pdf`` / ``beta_pdf`` array liftings agree cell by cell with
  the generic per-Interval lifting, a cell where it raises being
  ``[-inf, inf]`` in both;
* the factor sweep and the scalar interval evaluator weigh an atom grid
  with the same floats;
* compiled template and box-path programs evaluate to the same arrays as
  the tree-walking oracle (``helpers.tree_walk_cells``);
* end-to-end bounds are invariant under chunk size, executor backend and
  payload transport — the observable consequence of the geometry cache's
  exact-bytes keying (a hit returns the identical float64s a fresh
  computation would, so partitioning cannot matter);
* the default serial loop shares one geometry cache across a compiled
  program's paths and repeated queries, solves each Chebyshev LP once, and
  a failed atom-range LP widens the bound instead of zeroing it;
* the geometry cache's stores stay under their LRU cap, concurrently too,
  without moving a bound.
"""

from __future__ import annotations

import concurrent.futures
import math
import pickle
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import AnalysisOptions, Model, analyze_path_linear, histogram_buckets
from repro.analysis import box_analyzer, linear_analyzer
from repro.analysis.engine import AnalysisReport
from repro.analysis.linear_analyzer import (
    _NEGLIGIBLE_WEIGHT,
    GeometryCache,
    _analyze_linear_forms,
    _atom_grid,
    _combination_count,
    _integrate,
    _rows_for_target,
    _scalar_factors,
    _vectorized_factors,
    linear_analysis_applicable,
)
from repro.distributions import Uniform
from repro.analysis.vectorize import (
    _ARRAY_LIFTINGS,
    _I_PRIM,
    TableProgramEvaluator,
    _beta_pdf_cells,
    _normal_pdf_cells,
    _uniform_pdf_cells,
    compile_expr_roots,
)
from repro.intervals import Interval, get_primitive
from repro.lang import builder as b
from repro.models import pedestrian_program
from repro.polytope import BatchPolytope, Polytope, kernel_available
from repro.polytope import highs, polytope as polytope_module
from repro.symbolic import LinearForm, symbolic_paths
from repro.symbolic import execute as execute_module
from repro.symbolic.execute import ExecutionLimits
from repro.symbolic.linear import decompose_score
from repro.symbolic.paths import Relation
from repro.symbolic.value import SConst, SPrim, SVar

from helpers import integrate_reference, tree_walk_cells

TARGETS = (Interval(0.0, 1.0), Interval.reals())


def _point(value: float) -> SConst:
    return SConst(Interval.point(value))


def _linear01() -> SPrim:
    """``α₀ + 2·α₁`` — a two-variable linear argument for score primitives."""
    return SPrim("add", (SVar(0), SPrim("mul", (_point(2.0), SVar(1)))))


# A small family of score expressions over the two polytope variables; each
# exercises a different template shape (pdf primitives over a linear atom, a
# bare linear score, a product of two scores).
def _score_exprs(mu: float, sigma: float, width: float):
    return [
        [SPrim("normal_pdf", (_point(mu), _point(sigma), _linear01()))],
        [SPrim("uniform_pdf", (_point(0.0), _point(width), SPrim("sub", (SVar(0), SVar(1)))))],
        [SPrim("beta_pdf", (_point(sigma), _point(width), SVar(0)))],
        [SPrim("add", (SVar(0), SVar(1)))],
        [
            SPrim("normal_pdf", (_point(mu), _point(sigma), SVar(0))),
            SPrim("uniform_pdf", (_point(0.0), _point(width), SVar(1))),
        ],
    ]


def _hex(values) -> list[str]:
    return [float(value).hex() for value in values]


def _assert_factor_routes_agree(atom_ranges, templates):
    """The factor sweep and the scalar evaluator weigh ``atom_ranges`` with
    the same floats, bit for bit."""
    assert _combination_count(atom_ranges) > 1
    program = compile_expr_roots([decomposition.template for decomposition in templates])
    swept = _vectorized_factors(atom_ranges, program)
    scalar = _scalar_factors(atom_ranges, templates)
    for got, want in zip(swept, scalar):
        assert _hex(got) == _hex(want)
    return scalar


def _both_readings(polytope, templates, atoms, options, cache):
    """``[lower, upper]`` of one polytope from one :func:`_integrate` pass."""
    return _integrate(
        [(polytope, [], [], True), (polytope, [], [], False)],
        templates, list(atoms), 1.0, options, cache,
    )


class TestIntegrateMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.integers(min_value=0, max_value=4),
        mu=st.floats(min_value=-1.0, max_value=1.0),
        sigma=st.floats(min_value=0.3, max_value=2.0),
        width=st.floats(min_value=0.5, max_value=2.0),
        cut=st.floats(min_value=0.3, max_value=1.8),
        splits=st.integers(min_value=1, max_value=5),
    )
    def test_bit_identical(self, shape, mu, sigma, width, cut, splits):
        polytope = Polytope.from_box([Interval(0.0, 1.0)] * 2).add_constraints(
            [[1.0, 1.0]], [cut]
        )
        atoms = []
        templates = [
            decompose_score(expr, atoms)
            for expr in _score_exprs(mu, sigma, width)[shape]
        ]
        options = AnalysisOptions(score_splits=splits, max_score_combinations=64)
        cache = GeometryCache()
        batched = _both_readings(polytope, templates, atoms, options, cache)
        # A warm cache must reproduce the same floats exactly — hits return
        # the identical float64s a fresh computation would.
        warm = _both_readings(polytope, templates, atoms, options, cache)
        for is_lower, got, again in zip((True, False), batched, warm):
            reference = integrate_reference(
                polytope, templates, list(atoms), 1.0, options, is_lower
            )
            assert got == reference or (math.isnan(got) and math.isnan(reference))
            assert again == got or (math.isnan(again) and math.isnan(got))

    def test_scalar_fallback_route_matches(self):
        # The scalar weights (``_scalar_factors``, the route of grids with
        # one combination) and the factor sweep agree bit for bit on a grid
        # of several, and ``_integrate`` matches the reference loop on it.
        polytope = Polytope.from_box([Interval(0.0, 1.0)] * 2)
        atoms = []
        templates = [decompose_score(_score_exprs(0.0, 1.0, 1.0)[0][0], atoms)]
        options = AnalysisOptions(score_splits=4)
        atom_ranges, factors = _atom_grid(polytope, templates, atoms, options, GeometryCache())
        scalar = _assert_factor_routes_agree(atom_ranges, templates)
        assert [_hex(column) for column in factors] == [_hex(column) for column in scalar]
        swept = _both_readings(polytope, templates, atoms, options, GeometryCache())
        for is_lower, got in zip((True, False), swept):
            reference = integrate_reference(
                polytope, templates, list(atoms), 1.0, options, is_lower
            )
            assert got == reference

    def test_vectorized_scores_on_off_agree_on_a_path(self, monkeypatch):
        # Two piecewise max(0, ·) scores over two linear atoms: most of the
        # score_splits² combinations weigh exactly zero, which the sweep
        # prunes before any row or volume is built.  The factor sweep and
        # the scalar evaluator weigh the path's atom grid alike, and the
        # path's contributions do not notice which of them ran.
        program = b.let("x", b.sample(), b.let("y", b.sample(), b.seq(
            b.score(b.maximum(0.0, b.sub(b.add(b.var("x"), b.var("y")), 1.5))),
            b.seq(
                b.score(b.maximum(0.0, b.sub(b.add(b.var("x"), b.mul(2.0, b.var("y"))), 2.2))),
                b.add(b.var("x"), b.var("y")),
            ),
        )))
        (path,) = symbolic_paths(program).paths
        options = AnalysisOptions(score_splits=8, max_score_combinations=8_192)
        atoms = []
        templates = [decompose_score(score, atoms) for score in path.scores]
        polytope = Polytope.from_box([Interval(0.0, 1.0)] * 2)
        atom_ranges, _ = _atom_grid(polytope, templates, atoms, options, GeometryCache())
        assert _combination_count(atom_ranges) == 64
        _, scalar_hi = _assert_factor_routes_agree(atom_ranges, templates)
        assert 0.0 in scalar_hi
        swept = analyze_path_linear(path, list(TARGETS), options)
        # Every grid weighed by the scalar evaluator: the program slot
        # carries the templates themselves.
        monkeypatch.setattr(
            linear_analyzer.GeometryCache, "template_program", lambda self, templates: templates
        )
        monkeypatch.setattr(linear_analyzer, "_vectorized_factors", _scalar_factors)
        assert analyze_path_linear(path, list(TARGETS), options) == swept


def _per_reading_reference(polytopes, result_form, targets, templates, atoms, options):
    """Each target's ``(lower, upper)`` as one reference integration per
    reading: ``polytopes`` is ``(𝔓_lb, 𝔓_ub)``, cut by the target's rows."""
    bounds = []
    for target in targets:
        pair = []
        for is_lower, polytope in zip((True, False), polytopes):
            rows = _rows_for_target(result_form, target, 2, universal=is_lower)
            cut = polytope.add_constraints([r for r, _ in rows], [b for _, b in rows])
            pair.append(integrate_reference(cut, templates, list(atoms), 1.0, options, is_lower))
        bounds.append(tuple(pair))
    return bounds


class TestOnePassPerPath:
    """All targets and both readings of a path share one integration pass."""

    SQUARE = Polytope.from_box([Interval(0.0, 1.0)] * 2)
    TARGETS = (
        Interval(0.0, 1.0), Interval(0.5, 1.5), Interval.reals(),
        Interval(1.0, math.inf), Interval(-math.inf, 0.4),
    )

    @pytest.mark.parametrize("scored", [True, False])
    @pytest.mark.parametrize("constant", [(-1.1, -0.9), (-1.3, -0.6)])
    def test_interval_constants_match_reference_per_reading(self, scored, constant):
        # ``x + y + [a, b] ≤ 0`` reads ``x + y ≤ -b`` for 𝔓_lb and
        # ``x + y ≤ -a`` for 𝔓_ub; the result and the score atom carry
        # interval constants too, so every chunk row depends on the reading.
        low, high = constant
        total = LinearForm.from_dict({0: 1.0, 1: 1.0}, Interval(low, high))
        result_form = LinearForm.from_dict({0: 1.0, 1: 1.0}, Interval(-0.1, 0.1))
        atoms = []
        exprs = [
            SPrim("normal_pdf", (_point(0.5), _point(0.3), SPrim("add", (SVar(0), SConst(Interval(0.0, 0.1)))))),
            SPrim("add", (SVar(0), SVar(1))),
        ] if scored else []
        templates = [decompose_score(expr, atoms) for expr in exprs]
        options = AnalysisOptions(score_splits=5)
        got = _analyze_linear_forms(
            result_form, [(total, Relation.LEQ)], atoms, templates,
            [Uniform(0.0, 1.0)] * 2, list(self.TARGETS), options, GeometryCache(),
        )
        polytopes = tuple(
            self.SQUARE.add_constraints([[1.0, 1.0]], [0.0 - limit]) for limit in (high, low)
        )
        assert got == _per_reading_reference(
            polytopes, result_form, self.TARGETS, templates, atoms, options
        )
        assert all(lower < upper for lower, upper in got[:3])

    def test_thin_score_free_target_slab_is_measured(self):
        # ``1 ≤ x + y ≤ 1 + 1e-10`` is flat by its own Chebyshev radius, but a
        # score-free cut is measured from its parent, not zeroed.
        result_form = LinearForm.from_dict({0: 1.0, 1: 1.0}, Interval.point(0.0))
        target = Interval(1.0, 1.0 + 1e-10)
        got = _analyze_linear_forms(
            result_form, [], [], [], [Uniform(0.0, 1.0)] * 2, [target],
            AnalysisOptions(), GeometryCache(),
        )
        reference = _per_reading_reference(
            (self.SQUARE, self.SQUARE), result_form, [target], [], [], AnalysisOptions()
        )
        assert got == reference
        ((lower, upper),) = got
        assert 0.0 < lower <= upper < 1e-9
        rows = _rows_for_target(result_form, target, 2, universal=True)
        cut = self.SQUARE.add_constraints([r for r, _ in rows], [b for _, b in rows])
        assert not cut.is_full_dimensional()

    def test_pedestrian_sweeps_each_polytope_and_parent_once(self, monkeypatch):
        # Per path: one ``_integrate`` pass; inside it every distinct cut is
        # swept once and every parent (and direction) measured in one batch.
        passes = []
        integrate, atom_grid = linear_analyzer._integrate, linear_analyzer._atom_grid
        slab_volumes = polytope_module._slab_volumes

        def counted_integrate(cuts, *args):
            passes.append({"cuts": len(cuts), "grids": [], "parents": []})
            return integrate(cuts, *args)

        def counted_grid(polytope, *args):
            passes[-1]["grids"].append(polytope.cache_key())
            return atom_grid(polytope, *args)

        def counted_slabs(parent, direction, *args):
            key = (parent.cache_key(), None if direction is None else direction.tobytes())
            passes[-1]["parents"].append(key)
            return slab_volumes(parent, direction, *args)

        monkeypatch.setattr(linear_analyzer, "_integrate", counted_integrate)
        monkeypatch.setattr(linear_analyzer, "_atom_grid", counted_grid)
        monkeypatch.setattr(polytope_module, "_slab_volumes", counted_slabs)
        options = AnalysisOptions(
            max_fixpoint_depth=3, score_splits=4, workers=1, executor="serial", refine="off"
        )
        report = AnalysisReport()
        Model(pedestrian_program(), options).histogram(0.0, 3.0, 6, report=report)
        assert 0 < len(passes) <= report.analyzer_paths["linear"]
        for sweep in passes:
            assert len(set(sweep["grids"])) == len(sweep["grids"])
            assert len(set(sweep["parents"])) == len(sweep["parents"])
        # No interval constants here: both readings share every cut.
        assert 2 * sum(len(sweep["grids"]) for sweep in passes) == sum(
            sweep["cuts"] for sweep in passes
        )


class TestFlatBaseShortcut:
    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.integers(min_value=0, max_value=4),
        mu=st.floats(min_value=-1.0, max_value=1.0),
        sigma=st.floats(min_value=0.3, max_value=2.0),
        width=st.floats(min_value=0.5, max_value=2.0),
        cut=st.floats(min_value=0.1, max_value=1.9),
        splits=st.integers(min_value=1, max_value=5),
    )
    def test_flat_base_matches_reference(self, shape, mu, sigma, width, cut, splits):
        # The unit square cut down to the segment x + y = cut (volume 0).
        polytope = Polytope.from_box([Interval(0.0, 1.0)] * 2).add_constraints(
            [[1.0, 1.0], [-1.0, -1.0]], [cut, -cut]
        )
        atoms = []
        templates = [
            decompose_score(expr, atoms)
            for expr in _score_exprs(mu, sigma, width)[shape]
        ]
        options = AnalysisOptions(score_splits=splits, max_score_combinations=64)
        cells = splits ** len(atoms)
        cache = GeometryCache()
        shortcuts = _both_readings(polytope, templates, atoms, options, cache)
        for is_lower, shortcut in zip((True, False), shortcuts):
            reference = integrate_reference(
                polytope, templates, list(atoms), 1.0, options, is_lower
            )
            if is_lower:
                assert shortcut == reference
            else:
                # Only the reference's negligible-weight terms may be dropped.
                assert shortcut <= reference
                assert reference - shortcut <= cells * _NEGLIGIBLE_WEIGHT
        # The volume layer's parent rule settled every cell: the flat base
        # got no profile, and every cell cut from it (or a zero-width slab
        # of the square, for an atom parallel to the base) is exactly 0.
        assert polytope.cache_key() not in cache.profiles
        assert all(volume == Interval.point(0.0) for volume in cache.volumes.values())

    @pytest.mark.parametrize("width", [1e-10, 1e-9])
    def test_thin_scored_target_slab_holds_its_exact_value(self, width):
        # ``score(x + y)`` on ``1 ≤ x + y ≤ 1 + w``: the cut is flat by its own
        # Chebyshev radius, and its one chunk is a slab of the unit square,
        # so it is measured from the square's profile instead of zeroed.
        # Exactly: ∫₁^{1+w} s·(2 − s) ds over the density 2 − s of x + y.
        options = AnalysisOptions(score_splits=1, workers=1, executor="serial", refine="off")
        model = Model.parse("(let x (sample) (let y (sample) (let _ (score (+ x y)) (+ x y))))", options)
        (bound,) = model.bounds([Interval(1.0, 1.0 + width)])

        def antiderivative(s):
            return s * s - s**3 / 3

        exact = antiderivative(Fraction(1.0 + width)) - antiderivative(Fraction(1))
        assert 0.0 < bound.lower and Fraction(bound.lower) <= exact <= Fraction(bound.upper)
        cut = TestOnePassPerPath.SQUARE.add_constraints(
            [[1.0, 1.0], [-1.0, -1.0]], [1.0 + width, -1.0]
        )
        assert not cut.is_full_dimensional()

    def test_flat_upper_path_is_pruned(self):
        # α₀ + α₁ ≤ 1 and α₀ + α₁ ≥ 1: the path polytope is a segment.
        total = LinearForm.from_dict({0: 1.0, 1: 1.0}, Interval.point(-1.0))
        constraints = [(total, Relation.LEQ), (total, Relation.GEQ)]
        atoms = []
        templates = [decompose_score(_score_exprs(0.0, 1.0, 1.0)[0][0], atoms)]
        args = (
            LinearForm.from_dict({0: 1.0}, Interval.point(0.0)),
            constraints, atoms, templates, [Uniform(0.0, 1.0)] * 2, list(TARGETS),
        )
        options = AnalysisOptions(score_splits=4)
        cache = GeometryCache()
        pruned = _analyze_linear_forms(*args, options, cache)
        assert pruned == [(0.0, 0.0)] * len(TARGETS)
        assert list(cache.full_dimension.values()) == [False]
        assert not cache.volumes and not cache.atom_bounds
        # The unpruned reference: each target's cut of the segment, integrated.
        segment = Polytope.from_box([Interval(0.0, 1.0)] * 2).add_constraints(
            [[1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0]
        )
        for (lower, upper), target in zip(pruned, TARGETS):
            kept = []
            for is_lower in (True, False):
                rows = _rows_for_target(args[0], target, 2, universal=is_lower)
                cut = (
                    segment.add_constraints([r for r, _ in rows], [b for _, b in rows])
                    if rows else segment
                )
                kept.append(integrate_reference(cut, templates, list(atoms), 1.0, options, is_lower))
            kept_lower, kept_upper = kept
            assert lower == kept_lower
            assert upper <= kept_upper <= 4 * _NEGLIGIBLE_WEIGHT

    def test_flatness_is_memoised_and_empty_is_flat(self):
        cache = GeometryCache()
        square = Polytope.from_box([Interval(0.0, 1.0)] * 2)
        assert cache.full_dimensional(square)
        assert cache.full_dimensional(square)  # a memo hit
        assert cache.stats()["unique_full_dimension"] == 1
        assert not cache.full_dimensional(Polytope.from_box([Interval.empty()] * 2))


class TestAtomLPFailure:
    """A failed atom-range LP widens the atom's range; it never zeroes a bound."""

    @pytest.mark.parametrize("cut", [None, 1.2])
    def test_failed_base_lp_still_bounds_soundly(self, cut, monkeypatch):
        base = Polytope.from_box([Interval(0.0, 1.0)] * 2)
        if cut is not None:
            base = base.add_constraints([[1.0, 1.0]], [cut])
        atoms = []
        templates = [decompose_score(_score_exprs(0.8, 0.3, 1.0)[0][0], atoms)]
        options = AnalysisOptions(score_splits=8)

        def bounds():
            return _both_readings(base, templates, atoms, options, GeometryCache())

        healthy_lower, healthy_upper = bounds()
        optimise = Polytope._optimise

        def failing(self, coefficients, minimise):
            if self.cache_key() == base.cache_key():
                raise polytope_module.LPFailure("forced")
            return optimise(self, coefficients, minimise)

        monkeypatch.setattr(Polytope, "_optimise", failing)
        lower, upper = bounds()
        assert healthy_lower > 0.0
        assert math.isfinite(lower) and math.isfinite(upper)
        assert 0.0 <= lower <= healthy_lower
        assert upper >= healthy_upper


def _random_dense(rng: np.random.Generator) -> np.ndarray:
    """A small dense matrix with zero entries, zero rows/columns and -0.0."""
    rows, cols = (int(n) for n in rng.integers(1, 9, size=2))
    a = rng.normal(size=(rows, cols))
    a[rng.random((rows, cols)) < 0.4] = 0.0
    a[rng.random((rows, cols)) < 0.15] = -0.0
    if rng.random() < 0.4:
        a[rng.integers(rows)] = 0.0
    if rng.random() < 0.4:
        a[:, rng.integers(cols)] = -0.0
    return a


class TestDirectCsc:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scipy_sparse(self, seed):
        from scipy.sparse import csc_array

        rng = np.random.default_rng(seed)
        for _ in range(50):
            a = _random_dense(rng)
            want = csc_array(a)
            for got, expected in zip(
                highs.csc_arrays(a), (want.indptr, want.indices, want.data)
            ):
                assert got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes()

    def test_all_zero_matrix(self):
        indptr, indices, data = highs.csc_arrays(np.zeros((3, 2)))
        assert indptr.tolist() == [0, 0, 0]
        assert indices.size == 0 and data.size == 0


@pytest.mark.skipif(not kernel_available(), reason="direct HiGHS kernel unavailable")
class TestChebyshevSkeleton:
    """LPs are prepared once per constraint matrix: the Chebyshev LP and the
    objective LP each keep one skeleton per ``A``, solved with each ``b``."""

    @staticmethod
    def _fresh(polytope: Polytope):
        """The Chebyshev LP on a freshly prepared system (no skeleton)."""
        a = polytope.a
        prepared = highs.PreparedLP(
            np.hstack([a, np.linalg.norm(a, axis=1).reshape(-1, 1)]),
            polytope.b,
            col_lower=np.concatenate([np.full(polytope.dimension, -np.inf), [0.0]]),
        )
        objective = np.zeros(polytope.dimension + 1)
        objective[-1] = -1.0
        return prepared.solve(objective)

    @settings(max_examples=30, deadline=None)
    @given(
        cuts=st.lists(st.floats(min_value=-0.5, max_value=2.5), min_size=2, max_size=6),
    )
    def test_shared_skeleton_is_bit_identical(self, cuts):
        # One constraint matrix, many right-hand sides: each solve after the
        # first reuses the skeleton and must match a fresh solve exactly.
        square = Polytope.from_box([Interval(0.0, 1.0)] * 2)
        for cut in cuts:
            cell = square.add_constraints([[1.0, 2.0], [-1.0, 0.5]], [cut, cut - 1.0])
            status, _, x = self._fresh(cell)
            got = cell.chebyshev_center()
            if status == highs.INFEASIBLE:
                assert got is None
            else:
                assert status == highs.OPTIMAL
                center, radius = got
                assert center.tobytes() == np.asarray(x[:-1], dtype=float).tobytes()
                assert radius == float(x[-1])

    @settings(max_examples=30, deadline=None)
    @given(
        cuts=st.lists(st.floats(min_value=-0.5, max_value=2.5), min_size=2, max_size=6),
        objective=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=2, max_size=2),
    )
    def test_shared_objective_skeleton_is_bit_identical(self, cuts, objective):
        # Objective LPs (atom bounds, feasibility) share one prepared model
        # per ``A`` too; each solve must match a freshly prepared system.
        square = Polytope.from_box([Interval(0.0, 1.0)] * 2)
        objective = np.asarray(objective)
        for cut in cuts:
            cell = square.add_constraints([[1.0, 2.0], [-1.0, 0.5]], [cut, cut - 1.0])
            fresh = highs.PreparedLP(cell.a, cell.b)
            results = [fresh.solve(sign * objective) for sign in (1.0, -1.0)]
            assert cell.is_empty() == (fresh.solve(np.zeros(2))[0] == highs.INFEASIBLE)
            bound = cell.bound_linear(objective)
            if results[0][0] != highs.OPTIMAL:
                assert bound is None
                continue
            assert (bound.lo, bound.hi) == tuple(
                sorted(float(sign * fun) for sign, (_, fun, _) in zip((1.0, -1.0), results))
            )

    def test_kinds_share_a_store_keyed_apart(self, monkeypatch):
        monkeypatch.setattr(polytope_module, "_SKELETONS", threading.local())
        cell = Polytope.from_box([Interval(0.0, 1.0)] * 2)
        cell.chebyshev_center()
        cell.is_empty()
        cell.bound_linear([1.0, -1.0])
        Polytope(cell.a, cell.b * 0.5).bound_linear([1.0, 1.0])
        assert [key[0] for key in polytope_module._SKELETONS.store] == [True, False]

    def test_store_is_keyed_on_a_and_bounded(self):
        limit = polytope_module._LP_SKELETONS
        for index in range(limit + 10):
            # Boxes share one ``A`` whatever their ``b``; scaling a row does not.
            Polytope(np.array([[1.0 + index], [-1.0]]), np.array([1.0, 0.0])).chebyshev_center()
            Polytope.from_box([Interval(0.0, 1.0 + index)]).chebyshev_center()
        assert len(polytope_module._SKELETONS.store) == limit


class TestExecutorsAgree:
    def test_pedestrian_depth4_serial_thread_process(self):
        # The Chebyshev skeletons live per thread; concurrent engine threads
        # and worker processes must reproduce the serial floats exactly.
        results = {}
        for executor in ("serial", "thread", "process"):
            options = AnalysisOptions(
                max_fixpoint_depth=4,
                score_splits=4,
                workers=1 if executor == "serial" else 2,
                executor=executor,
                chunk_size=4,
            )
            with Model(pedestrian_program(), options) as model:
                bounds = model.bounds(list(TARGETS))
            results[executor] = [(b.lower, b.upper) for b in bounds]
        assert results["thread"] == results["serial"]
        assert results["process"] == results["serial"]

    @pytest.mark.parametrize("analyzers", [None, ("box",)])
    def test_warm_process_pool_repeats_are_bit_identical(self, analyzers):
        # Repeated queries on one pooled Model run on worker-resident caches
        # that warm at a rate set by which worker drew which chunk; every
        # repeat must still return the first query's floats.
        options = AnalysisOptions(
            max_fixpoint_depth=3, score_splits=4, workers=2, executor="process",
            payload_transport="arena", chunk_size=2, analyzers=analyzers,
        )
        with Model(pedestrian_program(), options) as model:
            first = model.bounds(list(TARGETS))
            repeats = [model.bounds(list(TARGETS)) for _ in range(3)]
        assert all(repeat == first for repeat in repeats)
        serial = Model(pedestrian_program(), options.with_updates(workers=1, executor="serial"))
        assert first == serial.bounds(list(TARGETS))


class TestSerialTableRoute:
    """The default serial loop shares one geometry cache per compiled program."""

    # Explicit workers/executor/refine: the same route under any
    # REPRO_ANALYSIS_* environment.
    OPTIONS = AnalysisOptions(
        max_fixpoint_depth=4, score_splits=8, workers=1, executor="serial",
        refine="off",
    )

    @pytest.fixture
    def volume_calls(self, monkeypatch):
        # Every cell measured, one at a time (``volume_bounds``) or in a
        # batch of slab cells (``slab_volumes``).
        calls = []
        slab_volumes = polytope_module.slab_volumes

        def counted(cells, *args):
            calls.extend(cells)
            return slab_volumes(cells, *args)

        monkeypatch.setattr(polytope_module, "slab_volumes", counted)
        monkeypatch.setattr(linear_analyzer, "slab_volumes", counted)
        return calls

    def test_fewer_volumes_than_path_by_path(self, volume_calls):
        model = Model(pedestrian_program(), self.OPTIONS)
        targets = list(histogram_buckets(0.0, 3.0, 6)) + [Interval.reals()]
        for path in model.compile().execution.paths:
            if linear_analysis_applicable(path):
                analyze_path_linear(path, targets, self.OPTIONS)  # a fresh cache each
        path_by_path = len(volume_calls)
        volume_calls.clear()
        model.histogram(0.0, 3.0, 6)
        assert 0 < len(volume_calls) < path_by_path

    def test_repeated_query_issues_no_volumes(self, volume_calls):
        model = Model(pedestrian_program(), self.OPTIONS)
        first = model.histogram(0.0, 3.0, 6)
        assert volume_calls
        volume_calls.clear()
        assert model.histogram(0.0, 3.0, 6) == first
        assert not volume_calls

    def test_each_chebyshev_lp_is_solved_once(self, monkeypatch):
        # A path polytope's flatness check and its volume (or its cells'
        # inherited points) share one memoised Chebyshev LP per key.
        keys = []
        chebyshev_center = Polytope.chebyshev_center

        def counted(self):
            keys.append(self.cache_key())
            return chebyshev_center(self)

        monkeypatch.setattr(Polytope, "chebyshev_center", counted)
        Model(pedestrian_program(), self.OPTIONS).histogram(0.0, 3.0, 6)
        assert keys
        assert len(keys) == len(set(keys))

    def test_concurrent_queries_share_the_table_safely(self):
        # Engine threads may run serial queries on one Model at once, all
        # sharing the compiled table's analyzer memos.
        variants = [
            self.OPTIONS.with_updates(max_fixpoint_depth=3, **changes)
            for changes in ({"score_splits": 2}, {"score_splits": 4}, {"analyzers": ("box",)})
        ]
        expected = [Model(pedestrian_program(), options).bounds(list(TARGETS)) for options in variants]
        model = Model(pedestrian_program(), variants[0])
        model.compile().execution.table()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
                futures = [
                    pool.submit(model.bounds, list(TARGETS), variants[index % 3])
                    for index in range(6)
                ]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected[index % 3] for index in range(6)]


@pytest.mark.skipif(not kernel_available(), reason="direct HiGHS kernel unavailable")
class TestColdQueryCounts:
    """One cold depth-4 pedestrian histogram (the ``cold_linear`` query
    shape) runs a pinned number of LP builds and solves, fixpoint typings
    and general slab splits, and measures its cells without rebuilding
    any."""

    def test_counts_are_pinned(self, monkeypatch):
        counts = dict.fromkeys(("prepares", "solves", "typings", "splits", "rebuilds"), 0)
        measuring, integrating = [], []
        prepare, solve = highs.PreparedLP.__init__, highs.PreparedLP.solve
        infer = execute_module.infer_weighted_type
        add_constraints, slab_split = Polytope.add_constraints, Polytope.slab_split
        restricted_volumes = GeometryCache.restricted_volumes
        integrate = linear_analyzer._integrate

        def counted(name, original):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapped

        def splitting(self, *args, **kwargs):
            counts["splits"] += bool(integrating)
            counts["rebuilds"] += bool(measuring)
            return slab_split(self, *args, **kwargs)

        def rebuilding(self, *args, **kwargs):
            counts["rebuilds"] += bool(measuring)
            return add_constraints(self, *args, **kwargs)

        def watched(flags, original):
            def wrapped(*args, **kwargs):
                flags.append(True)
                try:
                    return original(*args, **kwargs)
                finally:
                    flags.pop()
            return wrapped

        # A fresh skeleton store: the process-wide one would otherwise hand
        # this query the prepared LPs of whichever test ran before it.
        monkeypatch.setattr(polytope_module, "_SKELETONS", threading.local())
        monkeypatch.setattr(highs.PreparedLP, "__init__", counted("prepares", prepare))
        monkeypatch.setattr(highs.PreparedLP, "solve", counted("solves", solve))
        monkeypatch.setattr(execute_module, "infer_weighted_type", counted("typings", infer))
        monkeypatch.setattr(Polytope, "add_constraints", rebuilding)
        monkeypatch.setattr(Polytope, "slab_split", splitting)
        monkeypatch.setattr(GeometryCache, "restricted_volumes", watched(measuring, restricted_volumes))
        monkeypatch.setattr(linear_analyzer, "_integrate", watched(integrating, integrate))
        Model(pedestrian_program(), TestSerialTableRoute.OPTIONS).histogram(0.0, 3.0, 6)
        # Before the atom LPs were sided, flat cuts were left to the volume
        # layer and cells were measured as slabs of a known parent, this
        # query ran 287 solves (113 of them Chebyshev LPs), 16 typings, and
        # 608 cell rebuilds (``add_constraints``/``slab_split``) while
        # measuring volumes.  Before objective LPs shared one prepared
        # model per constraint matrix and a chunk's ``±d`` row pair was read
        # as a slab directly (``Polytope.pair_slab``), it prepared 135 LPs
        # and ran 366 general slab splits while describing its cells.
        assert counts == {
            "prepares": 60, "solves": 195, "typings": 5, "splits": 112, "rebuilds": 0,
        }


class TestPreparedKernelMatchesLinprog:
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        dimension=st.integers(min_value=1, max_value=4),
    )
    def test_bound_linear_differential(self, data, dimension):
        from scipy.optimize import linprog

        box = Polytope.from_box([Interval(0.0, 1.0)] * dimension)
        row = [
            data.draw(st.floats(min_value=-3.0, max_value=3.0))
            for _ in range(dimension)
        ]
        rhs = data.draw(st.floats(min_value=-0.5, max_value=3.0))
        polytope = box.add_constraints([row], [rhs]) if any(row) else box
        objective = np.array(
            [data.draw(st.floats(min_value=-2.0, max_value=2.0)) for _ in range(dimension)]
        )
        bound = polytope.bound_linear(objective)
        values = []
        for sign in (1.0, -1.0):
            # The kernel runs without presolve; so does its linprog twin.
            result = linprog(
                sign * objective,
                A_ub=polytope.a,
                b_ub=polytope.b,
                bounds=[(None, None)] * dimension,
                method="highs",
                options={"presolve": False},
            )
            values.append(None if result.status == 2 or not result.success else float(sign * result.fun))
        if values[0] is None or values[1] is None:
            assert bound is None
        else:
            lo, hi = sorted(values)
            assert bound is not None
            assert (bound.lo, bound.hi) == (lo, hi)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_bound_rows_differential(self, seed):
        # Many objectives swept over one prepared model (the analyzer's atom
        # sweep) return, row by row, the floats of a fresh linprog call.
        from scipy.optimize import linprog

        rng = np.random.default_rng(seed)
        dimension = int(rng.integers(1, 6))
        extra = rng.normal(size=(3, dimension))
        rhs = rng.uniform(0.5, 2.0, size=3) * np.linalg.norm(extra, axis=1)
        polytope = Polytope.from_box([Interval(0.0, 1.0)] * dimension).add_constraints(
            extra.tolist(), rhs.tolist()
        )
        rows = rng.normal(size=(8, dimension)).tolist()
        for row, bound in zip(rows, BatchPolytope(polytope).bound_rows(rows)):
            values = []
            for sign in (1.0, -1.0):
                result = linprog(
                    sign * np.asarray(row), A_ub=polytope.a, b_ub=polytope.b,
                    bounds=[(None, None)] * dimension, method="highs",
                    options={"presolve": False},
                )
                assert result.success
                values.append(float(sign * result.fun))
            assert bound is not None
            assert (bound.lo, bound.hi) == tuple(sorted(values))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_presolve_off_agrees_with_default_linprog(self, seed):
        # Turning presolve off moves no status and no optimum beyond 1e-12
        # relative against linprog's defaults (presolve on), on random
        # bounded, empty and degenerate polytopes.
        from scipy.optimize import linprog

        rng = np.random.default_rng(seed)
        dimension = int(rng.integers(1, 7))
        rows = int(rng.integers(0, 12))
        box = Polytope.from_box([Interval(0.0, 1.0)] * dimension)
        a = rng.normal(size=(rows, dimension))
        a[rng.random(a.shape) < 0.3] = 0.0
        b = a @ rng.random(dimension) + rng.normal(scale=0.5, size=rows)
        polytope = box.add_constraints(a, b) if rows else box
        objective = rng.normal(size=dimension)
        prepared = highs.PreparedLP(polytope.a, polytope.b)
        for cost in (objective, -objective):
            status, fun, _ = prepared.solve(cost)
            result = linprog(
                cost, A_ub=polytope.a, b_ub=polytope.b,
                bounds=[(None, None)] * dimension, method="highs",
            )
            assert status == result.status
            if status == highs.OPTIMAL:
                assert fun == pytest.approx(result.fun, rel=1e-12, abs=1e-12)


# -- density liftings ---------------------------------------------------

def _cells_reference(op, args, count):
    """The generic per-cell lifting (``apply_primitive_cells``' loop for
    primitives without an array kernel): a cell where the scalar lifting
    raises ``ValueError`` or returns the empty interval is ``[-inf, inf]``."""
    primitive = get_primitive(op)
    out_lo = np.empty(count)
    out_hi = np.empty(count)
    for cell in range(count):
        try:
            intervals = [
                Interval(float(alo[cell]), float(ahi[cell])) for alo, ahi in args
            ]
            value = primitive.apply_interval(*intervals)
        except ValueError:
            value = Interval.reals()
        if value.is_empty:
            value = Interval.reals()
        out_lo[cell] = value.lo
        out_hi[cell] = value.hi
    return out_lo, out_hi


_ENDPOINT = st.floats(min_value=-4.0, max_value=4.0).map(lambda v: round(v, 3))


@st.composite
def _interval_column(draw, count):
    lo = np.empty(count)
    hi = np.empty(count)
    for cell in range(count):
        a = draw(_ENDPOINT)
        b = draw(st.one_of(st.just(a), _ENDPOINT))
        lo[cell], hi[cell] = min(a, b), max(a, b)
    return lo, hi


class TestDensityLiftings:
    # The array kernels must reproduce the generic per-Interval lifting cell
    # by cell on every *non-empty* argument grid (empty cells cannot occur in
    # a score sweep — atom chunks and constants are never empty — and carry
    # their own pinned convention below).

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), count=st.integers(min_value=1, max_value=6))
    def test_uniform_pdf_cells(self, data, count):
        args = [data.draw(_interval_column(count)) for _ in range(3)]
        lifted = _uniform_pdf_cells(args, count)
        reference = _cells_reference("uniform_pdf", args, count)
        assert np.array_equal(lifted[0], reference[0])
        assert np.array_equal(lifted[1], reference[1])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), count=st.integers(min_value=1, max_value=6))
    def test_beta_pdf_cells(self, data, count):
        point_params = data.draw(st.booleans())
        args = [data.draw(_interval_column(count)) for _ in range(2)]
        if point_params:
            args = [(lo, lo.copy()) for lo, _ in args]
        args.append(data.draw(_interval_column(count)))
        lifted = _beta_pdf_cells(args, count)
        # A non-positive point parameter makes ``Beta`` raise: that cell is
        # [-inf, inf] on both routes, and every other cell bit-identical.
        reference = _cells_reference("beta_pdf", args, count)
        assert np.array_equal(lifted[0], reference[0])
        assert np.array_equal(lifted[1], reference[1])

    def test_lifting_table_covers_the_densities(self):
        # Score sweeps only take the array route for primitives in the table.
        assert _ARRAY_LIFTINGS["uniform_pdf"] is _uniform_pdf_cells
        assert _ARRAY_LIFTINGS["beta_pdf"] is _beta_pdf_cells
        assert _ARRAY_LIFTINGS["normal_pdf"] is _normal_pdf_cells

    def test_empty_argument_convention(self):
        # An empty argument (the (inf, -inf) representation) marks a cell the
        # analyzer's scalar route would collapse to the point 0 via the
        # ``meet([0, ∞))``-then-empty check; the kernels follow the
        # ``_normal_pdf_cells`` precedent and emit exactly that point without
        # abandoning the sweep.
        empty = (np.array([math.inf]), np.array([-math.inf]))
        unit = (np.array([0.0]), np.array([1.0]))
        lo, hi = _uniform_pdf_cells([empty, unit, unit], 1)
        assert lo[0] == 0.0 and hi[0] == 0.0


class TestCompiledTemplates:
    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.integers(min_value=0, max_value=4),
        mu=st.floats(min_value=-1.0, max_value=1.0),
        sigma=st.floats(min_value=0.3, max_value=2.0),
        width=st.floats(min_value=0.5, max_value=2.0),
        count=st.integers(min_value=2, max_value=9),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_program_matches_tree_walk(self, shape, mu, sigma, width, count, seed):
        rng = np.random.default_rng(seed)
        atoms = []
        templates = [
            decompose_score(expr, atoms)
            for expr in _score_exprs(mu, sigma, width)[shape]
        ]
        roots = [decomposition.template for decomposition in templates]
        program, positions = compile_expr_roots(roots)
        lo = rng.uniform(-2.0, 2.0, size=(count, max(1, len(atoms))))
        hi = lo + rng.uniform(0.0, 1.0, size=lo.shape)

        def atom_leaf(leaf):
            return lo[:, leaf.index], hi[:, leaf.index]

        evaluator = TableProgramEvaluator(
            program, count, atom_leaf=lambda index: (lo[:, index], hi[:, index])
        )
        for root, position in zip(roots, positions):
            want = tree_walk_cells(root, count, atom_leaf=atom_leaf)
            got = evaluator.eval_to(position)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("observed", [-0.4, 0.3, 1.1])
    def test_box_path_program_matches_tree_walk(self, observed):
        # The box analyzer compiles a materialised path's constraint, score
        # and result roots into one program.  Sample-variable leaves over a
        # real cell grid (a normal prior gives infinite endpoints), with
        # normal_pdf scores whose parameters are themselves expressions.
        program = b.let("x", b.sample(), b.let("y", b.normal(0.0, 1.0), b.if_leq(
            b.mul(b.var("x"), b.var("y")),
            0.2,
            b.seq(b.observe_normal(b.add(b.var("x"), b.var("y")), 0.5, observed), b.var("x")),
            b.seq(
                b.observe_normal(b.var("y"), b.sqrt(b.add(b.var("x"), 0.1)), observed),
                b.seq(
                    b.observe_normal(b.square(b.var("x")), 0.25, observed),
                    b.mul(b.var("x"), b.var("y")),
                ),
            ),
        )))
        paths = symbolic_paths(program).paths
        assert len(paths) == 2
        options = AnalysisOptions(splits_per_dimension=5)
        for path in paths:
            roots = [constraint.expr for constraint in path.constraints]
            roots.extend(path.scores)
            roots.append(path.result)
            instrs, constraints, score_positions, result_position, _ = (
                box_analyzer._path_program(path)
            )
            assert any(instr[1] == "normal_pdf" for instr in instrs if instr[0] == _I_PRIM)
            positions = [position for position, _ in constraints]
            positions.extend(score_positions)
            positions.append(result_position)
            los, his, _ = box_analyzer._cell_arrays(path.distributions, options)
            count = los.shape[0]
            evaluator = TableProgramEvaluator(
                instrs, count, var_leaf=lambda index: (los[:, index], his[:, index])
            )
            for root, position in zip(roots, positions):
                want = tree_walk_cells(
                    root, count, var_leaf=lambda leaf: (los[:, leaf.index], his[:, leaf.index])
                )
                got = evaluator.eval_to(position)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])


class TestGeometryCacheSharing:
    def test_shared_cache_never_moves_a_bound(self):
        limits = ExecutionLimits(max_fixpoint_depth=3)
        paths = [
            path
            for path in symbolic_paths(pedestrian_program(), limits).paths
            if linear_analysis_applicable(path)
        ]
        assert paths, "pedestrian workload lost its linear paths"
        options = AnalysisOptions(score_splits=4)
        targets = list(TARGETS)
        fresh = [analyze_path_linear(path, targets, options) for path in paths]
        shared = GeometryCache()
        warm = [analyze_path_linear(path, targets, options, shared) for path in paths]
        assert warm == fresh
        stats = shared.stats()
        assert stats["volume_hits"] > 0, "cross-path sharing never hit"
        # A second pass over the same paths is fully warm and still identical.
        again = [analyze_path_linear(path, targets, options, shared) for path in paths]
        assert again == fresh

    def test_distinct_polytopes_never_collide(self):
        # The rounding-key regression: two polytopes whose H-representations
        # agree to 12 decimals but not exactly must get distinct volumes.
        cache = GeometryCache()
        box = Polytope.from_box([Interval(0.0, 1.0)] * 2)
        nudged = Polytope.from_box([Interval(0.0, 1.0 + 1e-13), Interval(0.0, 1.0)])
        assert box.cache_key() != nudged.cache_key()
        cache.volume(box)
        cache.volume(nudged)
        stats = cache.stats()
        assert stats["volume_misses"] == 2 and stats["unique_volumes"] == 2
        # Exact re-lookup of the first polytope is a hit — and returns the
        # very same Interval object it stored.
        assert cache.volume(box) is cache.volumes[box.cache_key()]
        assert cache.stats()["volume_hits"] == 1


class TestBoundedGeometryCache:
    """The table-scoped cache keeps each store under its LRU cap."""

    TARGETS = list(histogram_buckets(0.0, 3.0, 6)) + [Interval.reals()]

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_small_cap_moves_no_bound(self, executor, monkeypatch):
        options = TestSerialTableRoute.OPTIONS.with_updates(
            executor=executor, workers=1 if executor == "serial" else 2, chunk_size=4,
        )
        with Model(pedestrian_program(), options) as model:
            expected = model.bounds(self.TARGETS)
        monkeypatch.setattr(linear_analyzer, "_GEOMETRY_CACHE_ENTRIES", 8)
        sizes = []
        remember = linear_analyzer._BoundedStore.remember

        def watched(self, key, value):
            stored = remember(self, key, value)
            sizes.append(len(self))
            return stored

        monkeypatch.setattr(linear_analyzer._BoundedStore, "remember", watched)
        with Model(pedestrian_program(), options) as model:
            # A repeat runs on the evicted cache: recomputed entries are the
            # same floats.
            assert model.bounds(self.TARGETS) == expected
            assert model.bounds(self.TARGETS) == expected
        assert sizes and max(sizes) <= 8

    def test_pickled_execution_keeps_its_cache(self):
        # A compiled execution pickles with its table's scratch memo, the
        # stores' locks included.
        model = Model(pedestrian_program(), TestSerialTableRoute.OPTIONS)
        model.bounds(self.TARGETS)
        execution = model.compile().execution
        clone = pickle.loads(pickle.dumps(execution))
        geometry = clone.table().scratch["linear-analyzer"]["geometry"]
        original = execution.table().scratch["linear-analyzer"]["geometry"]
        assert geometry.volumes == original.volumes
        geometry.volumes.remember(b"key", Interval.point(0.0))
        assert geometry.volumes.lookup(b"key") == Interval.point(0.0)

    def test_concurrent_eviction_raises_nothing(self, monkeypatch):
        monkeypatch.setattr(linear_analyzer, "_GEOMETRY_CACHE_ENTRIES", 8)
        store = linear_analyzer._BoundedStore()

        def hammer(offset):
            for index in range(4000):
                key = (offset * 7 + index) % 40
                value = store.lookup(key)
                if value is linear_analyzer._MISSING:
                    store.remember(key, -key)
                else:
                    assert value == -key

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                for future in [pool.submit(hammer, offset) for offset in range(4)]:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert len(store) == 8


class TestBoundsInvariance:
    @pytest.mark.parametrize("chunk_size", [2, 8])
    @pytest.mark.parametrize(
        "executor,transport",
        [("serial", None), ("thread", None), ("process", "arena")],
    )
    def test_chunking_backend_transport(self, chunk_size, executor, transport):
        options = AnalysisOptions(
            max_fixpoint_depth=3,
            score_splits=4,
            workers=1 if executor == "serial" else 2,
            executor=executor,
            chunk_size=chunk_size,
            payload_transport=transport,
        )
        with Model(pedestrian_program(), options) as model:
            bounds = model.bounds(list(TARGETS))
        key = [(b.lower, b.upper) for b in bounds]
        baseline = getattr(type(self), "_baseline", None)
        if baseline is None:
            type(self)._baseline = key
        else:
            assert key == baseline, (
                f"bounds moved under chunk_size={chunk_size}, "
                f"executor={executor}, transport={transport}"
            )
