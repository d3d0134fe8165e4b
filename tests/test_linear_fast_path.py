"""The linear analyzer's batched fast path, pinned against its scalar history.

The PR that introduced the batched LP kernels, the cross-path
:class:`~repro.analysis.linear_analyzer.GeometryCache` and the whole-array
density liftings claims every one of them is a pure reorganisation: the
floats cannot move.  This suite makes each claim a property:

* :func:`repro.analysis.linear_analyzer._integrate` (batched sweep, cached
  volumes, compiled templates) is bit-identical to
  :func:`~repro.analysis.linear_analyzer._integrate_reference`, the
  pre-batching per-combination loop kept as the oracle;
* the prepared HiGHS kernel returns the exact floats of the
  ``scipy.optimize.linprog`` wrapper it replaces, its directly built CSC
  arrays equal ``scipy.sparse``'s, and a Chebyshev LP re-solved on a shared
  skeleton returns the floats of a fresh one;
* the flat-base shortcut (an empty or flat polytope integrates to 0 before
  any atom LP) keeps the lower bound of the reference loop exactly and only
  drops its negligible-weight upper terms;
* the ``uniform_pdf`` / ``beta_pdf`` array liftings agree cell by cell with
  the generic per-Interval lifting (including the agreement on *when* to
  abandon the sweep);
* compiled template programs evaluate to the same arrays as the tree-walking
  evaluator;
* end-to-end bounds are invariant under chunk size, executor backend and
  payload transport — the observable consequence of the geometry cache's
  exact-bytes keying (a hit returns the identical float64s a fresh
  computation would, so partitioning cannot matter);
* the default serial loop shares one geometry cache across a compiled
  program's paths and repeated queries, and a failed atom-range LP widens
  the bound instead of zeroing it.
"""

from __future__ import annotations

import concurrent.futures
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import AnalysisOptions, Model, analyze_path_linear, histogram_buckets
from repro.analysis.linear_analyzer import (
    _NEGLIGIBLE_WEIGHT,
    GeometryCache,
    _analyze_linear_forms,
    _integrate,
    _integrate_reference,
    linear_analysis_applicable,
)
from repro.distributions import Uniform
from repro.analysis.vectorize import (
    ScalarFallback,
    TableProgramEvaluator,
    _beta_pdf_cells,
    _uniform_pdf_cells,
    checked_cells,
    compile_expr_roots,
)
from repro.intervals import Interval, get_primitive
from repro.models import pedestrian_program
from repro.polytope import Polytope, kernel_available
from repro.polytope import highs, polytope as polytope_module
from repro.symbolic import LinearForm, symbolic_paths
from repro.symbolic.execute import ExecutionLimits
from repro.symbolic.linear import decompose_score
from repro.symbolic.paths import Relation
from repro.symbolic.value import SConst, SPrim, SVar

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
        for is_lower in (True, False):
            reference = _integrate_reference(
                polytope, templates, list(atoms), 1.0, options, is_lower
            )
            batched = _integrate(
                polytope, templates, list(atoms), 1.0, options, cache, is_lower
            )
            assert batched == reference or (math.isnan(batched) and math.isnan(reference))
            # A warm cache must reproduce the same float exactly — hits return
            # the identical float64s a fresh computation would.
            warm = _integrate(
                polytope, templates, list(atoms), 1.0, options, cache, is_lower
            )
            assert warm == batched or (math.isnan(warm) and math.isnan(batched))

    def test_scalar_fallback_route_matches(self):
        # vectorized_scores=False forces the scalar per-combination weights
        # inside _integrate; the skips differ but the floats may not.
        polytope = Polytope.from_box([Interval(0.0, 1.0)] * 2)
        atoms = []
        templates = [decompose_score(_score_exprs(0.0, 1.0, 1.0)[0][0], atoms)]
        for vectorized in (True, False):
            options = AnalysisOptions(score_splits=4, vectorized_scores=vectorized)
            for is_lower in (True, False):
                assert _integrate(
                    polytope, templates, list(atoms), 1.0, options, GeometryCache(), is_lower
                ) == _integrate_reference(
                    polytope, templates, list(atoms), 1.0, options, is_lower
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
        for is_lower in (True, False):
            reference = _integrate_reference(
                polytope, templates, list(atoms), 1.0, options, is_lower
            )
            shortcut = _integrate(
                polytope, templates, list(atoms), 1.0, options, cache, is_lower
            )
            if is_lower:
                assert shortcut == reference
            else:
                # Only the reference's negligible-weight terms may be dropped.
                assert shortcut <= reference
                assert reference - shortcut <= cells * _NEGLIGIBLE_WEIGHT
        # One Chebyshev solve settled the base: no atom LP, no cell volume.
        assert cache.full_dimension == {polytope.cache_key(): False}
        assert not cache.volumes and not cache.atom_bounds

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
        cache = GeometryCache()
        pruned = _analyze_linear_forms(*args, AnalysisOptions(score_splits=4), cache)
        assert pruned == [(0.0, 0.0)] * len(TARGETS)
        assert list(cache.full_dimension.values()) == [False]
        assert not cache.volumes and not cache.atom_bounds
        kept = _analyze_linear_forms(
            *args, AnalysisOptions(score_splits=4, prune_empty_paths=False), GeometryCache()
        )
        for (lower, upper), (kept_lower, kept_upper) in zip(pruned, kept):
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
            return [
                _integrate(base, templates, list(atoms), 1.0, options, GeometryCache(), is_lower)
                for is_lower in (True, False)
            ]

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

    def test_store_is_keyed_on_a_and_bounded(self):
        limit = polytope_module._CHEBYSHEV_SKELETONS
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
        calls = []
        volume_bounds = Polytope.volume_bounds

        def counted(self):
            calls.append(self)
            return volume_bounds(self)

        monkeypatch.setattr(Polytope, "volume_bounds", counted)
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
            result = linprog(
                sign * objective,
                A_ub=polytope.a,
                b_ub=polytope.b,
                bounds=[(None, None)] * dimension,
                method="highs",
            )
            values.append(None if result.status == 2 or not result.success else float(sign * result.fun))
        if values[0] is None or values[1] is None:
            assert bound is None
        else:
            lo, hi = sorted(values)
            assert bound is not None
            assert (bound.lo, bound.hi) == (lo, hi)


# -- density liftings ---------------------------------------------------

def _cells_reference(op, args, count):
    """The generic per-cell lifting (``evaluate_cells``' fallback), or
    ``None`` when it abandons the sweep."""
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
            return None
        if value.is_empty:
            return None
        out_lo[cell] = value.lo
        out_hi[cell] = value.hi
    return out_lo, out_hi


def _lifted(kernel, args, count):
    try:
        return kernel(args, count)
    except ScalarFallback:
        return None


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
        lifted = _lifted(_uniform_pdf_cells, args, count)
        reference = _cells_reference("uniform_pdf", args, count)
        if lifted is None:
            # The sweep may abandon conservatively; the analyzer then runs
            # the scalar loop, so no float can be wrong — nothing to check.
            return
        assert reference is not None, "lifting produced values where the scalar loop aborts"
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
        lifted = _lifted(_beta_pdf_cells, args, count)
        reference = _cells_reference("beta_pdf", args, count)
        if lifted is None:
            return
        assert reference is not None, "lifting produced values where the scalar loop aborts"
        assert np.array_equal(lifted[0], reference[0])
        assert np.array_equal(lifted[1], reference[1])

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
        try:
            program, positions = compile_expr_roots(roots)
        except ScalarFallback:
            return
        lo = rng.uniform(-2.0, 2.0, size=(count, max(1, len(atoms))))
        hi = lo + rng.uniform(0.0, 1.0, size=lo.shape)

        def atom_leaf(leaf):
            return lo[:, leaf.index], hi[:, leaf.index]

        evaluator = TableProgramEvaluator(
            program, count, atom_leaf=lambda index: (lo[:, index], hi[:, index])
        )
        for root, position in zip(roots, positions):
            try:
                want = checked_cells(root, count, atom_leaf=atom_leaf)
            except ScalarFallback:
                with pytest.raises(ScalarFallback):
                    evaluator.eval_to(position)
                continue
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
