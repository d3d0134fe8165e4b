"""The columnar path-set core: PathTable building, fast-path bit-equality, routing.

Four layers of guarantees are pinned here:

* **builder equivalence** — the incremental :class:`PathTableBuilder` (the
  collector behind batch execution and the streamed-query cache tee)
  produces byte-identical images and equal decoded paths to one-shot batch
  encoding, and ``SymbolicExecutionResult.table()`` finalises the collector
  without re-walking;
* **fast-path bit-equality** — ``analyze_table`` of the box and linear
  analyzers returns exactly the floats of ``analyze`` / ``analyze_batch``
  over the decoded paths, and the runtime chunk loop returns exactly the
  records of the materialised oracle loop in ``tests/helpers.py``
  (property-based over random path shapes plus real programs, across chunk
  slices);
* **routing** — the columnar chunk loop feeds table slices to analyzers
  that implement ``analyze_table`` and transparently materialises
  ``SymbolicPath`` objects for analyzers that do not;
* **end-to-end equivalence** — every backend's bounds are bit-identical to
  the materialised oracle's, across chunk sizes and streaming.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    AnalysisOptions,
    Model,
    register_analyzer,
    unregister_analyzer,
)
from repro.analysis.box_analyzer import BoxPathAnalyzer, analyze_table_boxes
from repro.analysis.linear_analyzer import (
    LinearPathAnalyzer,
    analyze_table_linear,
    linear_analysis_applicable,
    linear_table_applicable,
)
from repro.analysis.engine import reduce_contributions
from repro.analysis.parallel import analyze_table_slice
from repro.analysis.registry import resolve_analyzers
from repro.distributions import Bernoulli, Beta, Exponential, Normal, Uniform
from repro.intervals import Interval
from repro.lang import builder as b
from repro.symbolic import (
    ExecutionLimits,
    PathTable,
    PathTableBuilder,
    Relation,
    SConst,
    SPrim,
    SVar,
    SymConstraint,
    SymbolicPath,
    encode_paths,
    symbolic_paths,
)

from helpers import (
    _analyze_paths_resolved,
    geometric_program,
    pedestrian_walk_fixpoint,
    simple_observe_model,
)

_TARGETS = (Interval(0.0, 1.0), Interval(0.5, 2.0), Interval.reals())


def assert_bits_equal(first, second):
    assert len(first) == len(second)
    for a, b_ in zip(first, second):
        assert a.lower == b_.lower, f"lower bounds differ: {a.lower!r} vs {b_.lower!r}"
        assert a.upper == b_.upper, f"upper bounds differ: {a.upper!r} vs {b_.upper!r}"


# ----------------------------------------------------------------------
# Path strategies (mirroring tests/test_arena.py, plus a linear-friendly one)
# ----------------------------------------------------------------------

_DISTS = st.sampled_from(
    [Uniform(0.0, 1.0), Uniform(-2.0, 3.0), Normal(0.0, 1.0), Beta(2.0, 3.0),
     Exponential(1.5), Bernoulli(0.25)]
)
_FLOATS = st.floats(allow_nan=False, allow_infinity=True, width=64)
_SMALL = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


def _expr_strategy(variable_count: int):
    leaves = [st.builds(lambda lo, hi: SConst(Interval(min(lo, hi), max(lo, hi))), _FLOATS, _FLOATS)]
    if variable_count > 0:
        leaves.append(st.builds(SVar, st.integers(0, variable_count - 1)))
    leaf = st.one_of(*leaves)
    unary = st.sampled_from(["neg", "abs", "exp", "log", "sqrt", "square"])
    binary = st.sampled_from(["add", "sub", "mul", "min", "max"])
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.builds(lambda op, arg: SPrim(op, (arg,)), unary, children),
            st.builds(lambda op, lhs, rhs: SPrim(op, (lhs, rhs)), binary, children, children),
        ),
        max_leaves=6,
    )


def _linear_expr_strategy(variable_count: int):
    """Interval-linear expressions: sums/differences of scaled variables."""
    leaves = [st.builds(lambda v: SConst(Interval.point(v)), _SMALL)]
    if variable_count > 0:
        leaves.append(st.builds(SVar, st.integers(0, variable_count - 1)))
    leaf = st.one_of(*leaves)
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.builds(lambda lhs, rhs: SPrim("add", (lhs, rhs)), children, children),
            st.builds(lambda lhs, rhs: SPrim("sub", (lhs, rhs)), children, children),
            st.builds(
                lambda scale, arg: SPrim("mul", (SConst(Interval.point(scale)), arg)),
                _SMALL,
                children,
            ),
        ),
        max_leaves=5,
    )


@st.composite
def _paths_strategy(draw, linear: bool = False):
    count = draw(st.integers(1, 4))
    paths = []
    for _ in range(count):
        variable_count = draw(st.integers(1, 3))
        if linear:
            distributions = tuple(
                draw(st.sampled_from([Uniform(0.0, 1.0), Uniform(-2.0, 3.0)]))
                for _ in range(variable_count)
            )
            expr = _linear_expr_strategy(variable_count)
        else:
            distributions = tuple(draw(_DISTS) for _ in range(variable_count))
            expr = _expr_strategy(variable_count)
        constraints = tuple(
            SymConstraint(draw(expr), draw(st.sampled_from(Relation.ALL)))
            for _ in range(draw(st.integers(0, 2)))
        )
        scores = tuple(draw(expr) for _ in range(draw(st.integers(0, 2))))
        paths.append(
            SymbolicPath(
                result=draw(expr),
                variable_count=variable_count,
                distributions=distributions,
                constraints=constraints,
                scores=scores,
                truncated=draw(st.booleans()),
            )
        )
    return tuple(paths)


_FAST_OPTIONS = AnalysisOptions(
    splits_per_dimension=3, max_boxes_per_path=64, score_splits=4,
    max_score_combinations=64, workers=1, executor="serial",
)


def _outcome(compute):
    """Result-or-error of one analysis route.

    Random expression shapes can legitimately crash the engine (e.g. an
    ``exp`` overflow meeting an infinite grid cell raises from the scalar
    interval loop, columnar or not); the bit-equality contract is that both
    routes behave *identically* — same floats or the same error class.
    """
    try:
        return ("ok", compute())
    except Exception as error:  # noqa: BLE001 - comparing error behaviour
        return ("error", type(error).__name__)


# ----------------------------------------------------------------------
# Builder equivalence
# ----------------------------------------------------------------------


class TestPathTableBuilder:
    def test_incremental_build_matches_batch_encode(self):
        paths = symbolic_paths(
            geometric_program(), ExecutionLimits(max_fixpoint_depth=6)
        ).paths
        builder = PathTableBuilder()
        for path in paths:
            builder.append(path)
        assert builder.to_bytes() == encode_paths(paths)
        assert builder.build().decode_all() == paths
        assert PathTable.from_paths(paths).decode_all() == paths

    def test_roundtrip_through_bytes(self):
        paths = symbolic_paths(simple_observe_model()).paths
        table = PathTable.from_paths(paths)
        reread = PathTable.from_buffer(table.to_bytes())
        assert reread.decode_all() == paths
        assert reread.to_bytes() == table.to_bytes()

    def test_estimate_is_monotone(self):
        paths = symbolic_paths(
            geometric_program(), ExecutionLimits(max_fixpoint_depth=6)
        ).paths
        builder = PathTableBuilder()
        sizes = []
        for path in paths:
            builder.append(path)
            sizes.append(builder.nbytes_estimate)
        assert sizes == sorted(sizes)
        builder.clear()
        assert len(builder) == 0

    def test_execution_result_table_is_cached(self):
        execution = symbolic_paths(
            geometric_program(), ExecutionLimits(max_fixpoint_depth=6)
        )
        table = execution.table()
        assert table is execution.table()  # one table per compiled program
        assert table.decode_all() == execution.paths
        assert table.path_count == execution.path_count

    def test_columnar_accessors_agree_with_decode(self):
        execution = symbolic_paths(
            b.app(pedestrian_walk_fixpoint(), 1.0),
            ExecutionLimits(max_fixpoint_depth=4),
        )
        table = execution.table()
        for index, path in enumerate(execution.paths):
            assert table.variable_count(index) == path.variable_count
            assert table.path_distributions(index) == path.distributions
            assert table.is_truncated(index) == path.truncated
            expr_ids, rel_ids = table.constraint_ids(index)
            assert len(expr_ids) == len(path.constraints)
            for expr_id, rel_id, constraint in zip(expr_ids, rel_ids, path.constraints):
                assert table.decode_expr(int(expr_id)) == constraint.expr
                assert Relation.ALL[int(rel_id)] == constraint.relation
            assert [
                table.decode_expr(int(score_id)) for score_id in table.score_ids(index)
            ] == list(path.scores)
            assert table.decode_expr(table.result_id(index)) == path.result


# ----------------------------------------------------------------------
# Fast-path bit-equality
# ----------------------------------------------------------------------


class TestColumnarBitEquality:
    @settings(max_examples=40, deadline=None)
    @given(paths=_paths_strategy())
    def test_box_table_matches_materialised(self, paths):
        table = PathTable.from_paths(paths)
        analyzer = BoxPathAnalyzer()
        per_path = _outcome(
            lambda: [analyzer.analyze(path, _TARGETS, _FAST_OPTIONS) for path in paths]
        )
        batch = _outcome(lambda: analyzer.analyze_batch(paths, _TARGETS, _FAST_OPTIONS))
        columnar = _outcome(
            lambda: analyzer.analyze_table(table, range(len(paths)), _TARGETS, _FAST_OPTIONS)
        )
        assert columnar == per_path == batch

    @settings(max_examples=40, deadline=None)
    @given(paths=_paths_strategy(linear=True))
    def test_linear_table_matches_materialised(self, paths):
        table = PathTable.from_paths(paths)
        analyzer = LinearPathAnalyzer()
        for index, path in enumerate(paths):
            applicable = linear_analysis_applicable(path)
            assert linear_table_applicable(table, index, _FAST_OPTIONS) == applicable
            if not applicable:
                continue
            assert _outcome(
                lambda: analyze_table_linear(table, index, _TARGETS, _FAST_OPTIONS)
            ) == _outcome(lambda: analyzer.analyze(path, _TARGETS, _FAST_OPTIONS))

    @settings(max_examples=25, deadline=None)
    @given(paths=_paths_strategy(), chunk_size=st.integers(1, 4))
    def test_table_range_matches_materialised_loop_across_chunks(self, paths, chunk_size):
        """The full columnar chunk loop == the materialised chunk loop."""
        table = PathTable.from_paths(paths)
        analyzers = (LinearPathAnalyzer(), BoxPathAnalyzer())
        for start in range(0, len(paths), chunk_size):
            stop = min(start + chunk_size, len(paths))
            columnar = _outcome(
                lambda: analyze_table_slice(
                    table, start, stop, _TARGETS, _FAST_OPTIONS, analyzers
                )
            )
            materialised = _outcome(
                lambda: _analyze_paths_resolved(
                    paths[start:stop], _TARGETS, _FAST_OPTIONS, analyzers
                )
            )
            assert columnar == materialised

    @pytest.mark.parametrize(
        "build,depth",
        [(simple_observe_model, 4), (geometric_program, 8)],
    )
    def test_real_programs_table_range(self, build, depth):
        execution = symbolic_paths(build(), ExecutionLimits(max_fixpoint_depth=depth))
        table = execution.table()
        analyzers = (LinearPathAnalyzer(), BoxPathAnalyzer())
        options = AnalysisOptions(max_fixpoint_depth=depth, score_splits=8)
        columnar = analyze_table_slice(
            table, 0, len(execution.paths), _TARGETS, options, analyzers
        )
        materialised = _analyze_paths_resolved(
            execution.paths, _TARGETS, options, analyzers
        )
        assert columnar == materialised

    def test_pedestrian_depth5_box_only(self):
        term = b.app(pedestrian_walk_fixpoint(), 1.0)
        execution = symbolic_paths(term, ExecutionLimits(max_fixpoint_depth=5))
        table = execution.table()
        options = AnalysisOptions(max_fixpoint_depth=5, analyzers=("box",))
        for index, path in enumerate(execution.paths):
            assert analyze_table_boxes(table, index, _TARGETS, options) == (
                BoxPathAnalyzer().analyze(path, _TARGETS, options)
            )


class TestNormalPdfKernel:
    """The whole-array ``normal_pdf`` lifting replicates the scalar one exactly."""

    _ENDPOINTS = st.one_of(
        st.floats(allow_nan=False, width=64),
        st.sampled_from([0.0, -0.0, 1e-300, 1e300, float("inf"), -float("inf")]),
    )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_kernel_matches_scalar_lifting(self, data):
        import numpy as np

        from repro.analysis.vectorize import _normal_pdf_cells
        from repro.distributions.continuous import Normal

        count = data.draw(st.integers(1, 5))
        args = []
        for _ in range(3):
            los, his = [], []
            for _ in range(count):
                a = data.draw(self._ENDPOINTS)
                b = data.draw(self._ENDPOINTS)
                los.append(min(a, b))
                his.append(max(a, b))
            args.append((np.array(los), np.array(his)))
        # A cell where the scalar lifting raises ValueError (an inf − inf
        # distance) is [-inf, inf]; an OverflowError is a genuine error,
        # which both routes must raise.
        reference = []
        reference_failed = False
        for cell in range(count):
            try:
                intervals = [
                    Interval(float(column[0][cell]), float(column[1][cell]))
                    for column in args
                ]
                bounds = Normal.pdf_interval_params(*intervals)
            except ValueError:
                bounds = Interval.reals()
            except OverflowError:
                reference_failed = True
                break
            reference.append((bounds.lo, bounds.hi))
        try:
            lo, hi = _normal_pdf_cells(args, count)
            kernel = list(zip(lo.tolist(), hi.tolist()))
            kernel_failed = False
        except OverflowError:
            kernel_failed = True
        # Both routes agree on failure, and otherwise bit for bit per cell.
        assert kernel_failed == reference_failed
        if not reference_failed:
            assert kernel == reference

    def test_overflowing_cells_match_scalar_without_warnings(self):
        import warnings

        import numpy as np

        from repro.analysis.vectorize import _normal_pdf_cells
        from repro.distributions.continuous import Normal

        cells = [  # (mean, std, value): d/std beyond the largest squarable float
            ((0.5, 0.5), (0.0, 1.0), (1.0, 2.0)),
            ((0.5, 0.5), (0.0, 1e-200), (1e200, 1e201)),
            ((0.0, 0.0), (1e-300, 1e-300), (1e-145, 1e-140)),
            ((-1e308, 1e308), (1.0, 2.0), (-1e308, 1e308)),  # d overflows to inf
        ]
        args = [
            tuple(np.array([cell[column][end] for cell in cells]) for end in (0, 1))
            for column in range(3)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = _normal_pdf_cells(args, len(cells))
            reference = [
                Normal.pdf_interval_params(*(Interval(*cell[column]) for column in range(3)))
                for cell in cells
            ]
        assert list(zip(lo.tolist(), hi.tolist())) == [
            (bounds.lo, bounds.hi) for bounds in reference
        ]


# ----------------------------------------------------------------------
# Routing: analyzers without analyze_table still get materialised paths
# ----------------------------------------------------------------------


class RecordingAnalyzer:
    """A registry-compatible analyzer *without* the columnar hooks."""

    name = "recording"
    seen: list = []

    def applicable(self, path, options) -> bool:
        assert isinstance(path, SymbolicPath), "routing must materialise for applicable()"
        return True

    def analyze(self, path, targets, options):
        assert isinstance(path, SymbolicPath), "analysis must materialise for analyze()"
        RecordingAnalyzer.seen.append(path)
        return [(0.0, 0.0) for _ in targets]


class TableOnlyAnalyzer:
    """An analyzer whose columnar hook records what it is handed."""

    name = "table-only"
    tables: list = []

    def applicable(self, path, options) -> bool:
        return True

    def analyze(self, path, targets, options):
        return [(0.0, 0.0) for _ in targets]

    def applicable_table(self, table, index, options) -> bool:
        return True

    def analyze_table(self, table, indices, targets, options):
        assert isinstance(table, PathTable)
        TableOnlyAnalyzer.tables.append((table, tuple(indices)))
        return [[(0.0, 0.0) for _ in targets] for _ in indices]


class TestColumnarRouting:
    def test_analyzer_without_table_hook_gets_decoded_paths(self):
        paths = symbolic_paths(
            geometric_program(), ExecutionLimits(max_fixpoint_depth=6)
        ).paths
        table = PathTable.from_paths(paths)
        RecordingAnalyzer.seen = []
        contributions = analyze_table_slice(
            table, 0, len(paths), _TARGETS, _FAST_OPTIONS, (RecordingAnalyzer(),)
        )
        assert len(contributions) == len(paths)
        assert [path for path in RecordingAnalyzer.seen] == list(paths)
        assert all(c.analyzer_name == "recording" for c in contributions)

    def test_analyzer_with_table_hook_gets_the_table(self):
        paths = symbolic_paths(
            geometric_program(), ExecutionLimits(max_fixpoint_depth=6)
        ).paths
        table = PathTable.from_paths(paths)
        TableOnlyAnalyzer.tables = []
        contributions = analyze_table_slice(
            table, 0, len(paths), _TARGETS, _FAST_OPTIONS, (TableOnlyAnalyzer(),)
        )
        assert len(contributions) == len(paths)
        ((seen_table, indices),) = TableOnlyAnalyzer.tables
        assert seen_table is table
        assert indices == tuple(range(len(paths)))

    def test_registered_analyzer_without_hook_runs_end_to_end(self):
        register_analyzer("recording", RecordingAnalyzer, replace=True)
        try:
            RecordingAnalyzer.seen = []
            options = AnalysisOptions(
                max_fixpoint_depth=6, workers=2, executor="thread",
                chunk_size=2, analyzers=("recording",),
            )
            with Model(geometric_program(), options) as model:
                bounds = model.bounds(list(_TARGETS))
            assert all(bound.lower == 0.0 and bound.upper == 0.0 for bound in bounds)
            assert RecordingAnalyzer.seen, "analyzer never received materialised paths"
        finally:
            unregister_analyzer("recording")

    def test_truncated_flags_survive_the_columnar_route(self):
        path = SymbolicPath(
            result=SVar(0), variable_count=1, distributions=(Uniform(0.0, 1.0),),
            constraints=(), scores=(), truncated=True,
        )
        table = PathTable.from_paths((path,))
        (contribution,) = analyze_table_slice(
            table, 0, 1, _TARGETS, _FAST_OPTIONS, (BoxPathAnalyzer(),)
        )
        assert contribution.truncated


# ----------------------------------------------------------------------
# End-to-end equivalence (no backend moves a bound off the oracle's)
# ----------------------------------------------------------------------


class TestColumnarEndToEnd:
    @pytest.fixture(scope="class")
    def reference(self):
        """Bounds of the materialised oracle loop over the whole path set."""
        options = AnalysisOptions(max_fixpoint_depth=9, workers=1, executor="serial")
        model = Model(geometric_program(), options)
        paths = model.compile().execution.paths
        records = _analyze_paths_resolved(
            paths, _TARGETS, options, resolve_analyzers(options)
        )
        return model, reduce_contributions(records, _TARGETS)

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    @pytest.mark.parametrize("chunk_size", [None, 2])
    def test_columnar_matches_materialised(self, reference, executor, chunk_size):
        model, expected = reference
        options = model.options.with_updates(
            workers=2, executor=executor, chunk_size=chunk_size
        )
        with Model(model.term, options) as candidate:
            assert_bits_equal(expected, candidate.bounds(list(_TARGETS)))

    def test_columnar_env_knob(self, monkeypatch):
        # The columnar loop is the only one: the old env switch is inert.
        monkeypatch.setenv("REPRO_ANALYSIS_COLUMNAR", "0")
        assert not hasattr(AnalysisOptions(), "columnar")

    def test_grid_cache_is_safe_under_thread_contention(self):
        """Regression: concurrent grid-LRU eviction must never raise.

        The thread backend shares one PathTable (and its scratch caches)
        across pool threads; with more distinct distribution signatures than
        the LRU cap, a racing eviction used to turn a cache hit into a
        ``KeyError`` and crash the query.
        """
        import concurrent.futures

        from repro.analysis.box_analyzer import _GRID_CACHE_CAP, _table_cell_arrays

        signatures = _GRID_CACHE_CAP + 4
        paths = tuple(
            SymbolicPath(
                result=SVar(0),
                variable_count=count,
                distributions=(Uniform(0.0, 1.0),) * count,
                constraints=(),
                scores=(),
            )
            for count in range(1, signatures + 1)
        )
        table = PathTable.from_paths(paths)
        options = AnalysisOptions(splits_per_dimension=2, max_boxes_per_path=64)

        def hammer(seed: int) -> int:
            for step in range(300):
                index = (seed + step) % len(paths)
                arrays = _table_cell_arrays(
                    table, index, table.path_distributions(index), options
                )
                assert arrays is not None
            return seed

        with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(hammer, seed) for seed in range(6)]
            results = [future.result() for future in futures]
        assert results == list(range(6))

    def test_release_worker_arenas_clears_resolved_contexts(self):
        from repro.analysis import transport

        transport._CONTEXT_CACHE["context-segment-name"] = ((), None, ())
        transport.release_worker_arenas()
        assert not transport._CONTEXT_CACHE

    def test_streamed_columnar_matches(self, reference):
        model, expected = reference
        options = model.options.with_updates(
            workers=2, executor="process", chunk_size=2, stream=True
        )
        with Model(model.term, options) as candidate:
            assert_bits_equal(expected, candidate.bounds(list(_TARGETS)))
