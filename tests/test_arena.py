"""Zero-copy arena transport: encoding, dispatch, lifecycle, cache tee.

Four layers of guarantees are pinned here:

* **round-trip exactness** — arena encode/decode reproduces any path set
  exactly (property-based over random path shapes, plus real programs),
  including DAG sharing, interval constants and deep expressions;
* **transport equivalence** — process pools over shared-memory path tables
  return bounds *bit-identical* to serial runs, for every backend and chunk
  size, and so do pools whose publishing fails (inline table images);
* **lifecycle** — shared-memory segments are unlinked on pool close and on a
  mid-stream :class:`~repro.symbolic.PathExplosionError`;
* **cache tee** — a streamed query materialises its paths into the
  compiled-program cache under the memory budget (second query is a cache
  hit), and budget overflow degrades to uncached streaming.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    AnalysisOptions,
    Model,
    ParallelAnalysisExecutor,
    shared_memory_available,
)
from repro.distributions import Bernoulli, Beta, Exponential, Normal, Uniform
from repro.intervals import Interval
from repro.lang import builder as b
from repro.symbolic import (
    ArenaFormatError,
    ExecutionLimits,
    PathArena,
    PathExplosionError,
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

from helpers import geometric_program, pedestrian_walk_fixpoint, simple_observe_model

_TARGETS = [Interval(0.0, 1.0), Interval(0.5, 2.0), Interval.reals()]


def roundtrip(paths) -> tuple[SymbolicPath, ...]:
    return PathArena.from_buffer(encode_paths(paths)).decode_all()


def assert_bits_equal(first, second):
    assert len(first) == len(second)
    for a, b_ in zip(first, second):
        assert a.lower == b_.lower, f"lower bounds differ: {a.lower!r} vs {b_.lower!r}"
        assert a.upper == b_.upper, f"upper bounds differ: {a.upper!r} vs {b_.upper!r}"


# ----------------------------------------------------------------------
# Encode/decode round trips
# ----------------------------------------------------------------------

_DISTS = st.sampled_from(
    [Uniform(0.0, 1.0), Uniform(-2.0, 3.0), Normal(0.0, 1.0), Beta(2.0, 3.0),
     Exponential(1.5), Bernoulli(0.25)]
)
_FLOATS = st.floats(allow_nan=False, allow_infinity=True, width=64)


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
        max_leaves=8,
    )


@st.composite
def _paths_strategy(draw):
    count = draw(st.integers(0, 4))
    paths = []
    for _ in range(count):
        variable_count = draw(st.integers(0, 3))
        distributions = tuple(draw(_DISTS) for _ in range(variable_count))
        expr = _expr_strategy(variable_count)
        constraints = tuple(
            SymConstraint(draw(expr), draw(st.sampled_from(Relation.ALL)))
            for _ in range(draw(st.integers(0, 3)))
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


class TestArenaRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(paths=_paths_strategy())
    def test_random_path_shapes(self, paths):
        assert roundtrip(paths) == paths

    @pytest.mark.parametrize(
        "build,depth",
        [(simple_observe_model, 4), (pedestrian_walk_fixpoint, 5), (geometric_program, 9)],
    )
    def test_real_programs(self, build, depth):
        term = build() if build is not pedestrian_walk_fixpoint else b.app(build(), 1.0)
        paths = symbolic_paths(term, ExecutionLimits(max_fixpoint_depth=depth)).paths
        assert roundtrip(paths) == paths

    def test_empty_path_set(self):
        assert roundtrip(()) == ()

    def test_zero_variable_path(self):
        paths = symbolic_paths(b.add(1.0, 2.0)).paths
        assert paths[0].variable_count == 0
        assert roundtrip(paths) == paths

    def test_interval_constants_and_flags_survive(self):
        path = SymbolicPath(
            result=SConst(Interval(-float("inf"), float("inf"))),
            variable_count=0,
            distributions=(),
            constraints=(SymConstraint(SConst(Interval(0.25, 0.75)), Relation.LT),),
            scores=(SConst(Interval.point(2.5)),),
            truncated=True,
        )
        (decoded,) = roundtrip([path])
        assert decoded == path
        assert decoded.truncated

    def test_shared_subtrees_decode_to_shared_objects(self):
        shared = SPrim("add", (SVar(0), SConst(Interval.point(1.0))))
        path = SymbolicPath(
            result=SPrim("mul", (shared, shared)),
            variable_count=1,
            distributions=(Uniform(0.0, 1.0),),
            constraints=(SymConstraint(shared, Relation.LEQ),),
            scores=(shared,),
            truncated=False,
        )
        (decoded,) = roundtrip([path])
        assert decoded == path
        # Interning happens at encode time, so the decoded DAG is maximally
        # shared even though the constraint/score/result rebuilt it thrice.
        assert decoded.result.args[0] is decoded.result.args[1]
        assert decoded.result.args[0] is decoded.scores[0]

    def test_deep_expression_does_not_recurse(self):
        expr = SConst(Interval.point(0.0))
        for _ in range(5_000):  # far beyond the interpreter recursion limit
            expr = SPrim("neg", (expr,))
        path = SymbolicPath(
            result=expr, variable_count=0, distributions=(), constraints=(), scores=()
        )
        assert roundtrip([path]) == (path,)

    def test_bad_magic_rejected(self):
        with pytest.raises(ArenaFormatError):
            PathArena.from_buffer(b"not an arena image at all")

    def test_truncated_image_rejected(self):
        image = encode_paths(symbolic_paths(simple_observe_model()).paths)
        with pytest.raises(ArenaFormatError):
            PathArena.from_buffer(image[: len(image) // 2])

    def test_decode_range_and_bounds_check(self):
        paths = symbolic_paths(geometric_program(), ExecutionLimits(max_fixpoint_depth=6)).paths
        arena = PathArena.from_buffer(encode_paths(paths))
        assert arena.decode_range(2, 5) == paths[2:5]
        with pytest.raises(IndexError):
            arena.decode_path(len(paths))


# ----------------------------------------------------------------------
# Transport equivalence
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def serial_baseline():
    """Serial bounds of the (single-path) observe model — the tee reference."""
    options = AnalysisOptions(max_fixpoint_depth=5, score_splits=8, workers=1, executor="serial")
    model = Model(simple_observe_model(), options)
    return model, model.bounds(_TARGETS)


@pytest.fixture(scope="module")
def geometric_baseline():
    """Serial bounds of a multi-path program — exercises real pool dispatch."""
    options = AnalysisOptions(max_fixpoint_depth=9, workers=1, executor="serial")
    model = Model(geometric_program(), options)
    return model, model.bounds(_TARGETS)


@pytest.mark.skipif(not shared_memory_available(), reason="no multiprocessing.shared_memory")
class TestArenaTransportEquivalence:
    @pytest.mark.parametrize("chunk_size", [None, 1, 3])
    def test_process_pool_bit_identical(self, geometric_baseline, chunk_size):
        model, serial = geometric_baseline
        options = model.options.with_updates(
            workers=2, executor="process", chunk_size=chunk_size, payload_transport="arena"
        )
        with Model(model.term, options) as parallel_model:
            assert_bits_equal(serial, parallel_model.bounds(_TARGETS))

    def test_in_process_backends_ignore_transport(self, geometric_baseline):
        model, serial = geometric_baseline
        for kind in ("serial", "thread"):
            options = model.options.with_updates(
                workers=2, executor=kind, payload_transport="arena"
            )
            assert_bits_equal(serial, model.bounds(_TARGETS, options))

    def test_streamed_arena_bit_identical(self, geometric_baseline):
        model, serial = geometric_baseline
        options = model.options.with_updates(
            workers=2, executor="process", chunk_size=2, stream=True, payload_transport="arena"
        )
        with Model(model.term, options) as stream_model:
            assert_bits_equal(serial, stream_model.bounds(_TARGETS))

    def test_segment_reused_across_queries(self, geometric_baseline):
        model, serial = geometric_baseline
        options = model.options.with_updates(
            workers=2, executor="process", chunk_size=2, payload_transport="arena"
        )
        with Model(model.term, options) as parallel_model:
            parallel_model.bounds(_TARGETS)
            executor = next(iter(parallel_model._executors.values()))
            assert executor.arena_segments_created == 1
            assert_bits_equal(serial, parallel_model.bounds(_TARGETS))
            assert executor.arena_segments_created == 1  # cache hit, no re-encode


# ----------------------------------------------------------------------
# Segment lifecycle
# ----------------------------------------------------------------------


def _attach_raises(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        handle = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    handle.close()
    return False


@pytest.mark.skipif(not shared_memory_available(), reason="no multiprocessing.shared_memory")
class TestSegmentLifecycle:
    def test_segments_unlinked_on_close(self):
        options = AnalysisOptions(
            max_fixpoint_depth=9, workers=2, executor="process",
            chunk_size=2, payload_transport="arena",
        )
        model = Model(geometric_program(), options)
        model.bounds(_TARGETS)
        executor = next(iter(model._executors.values()))
        names = executor.arena_segment_names()
        assert names, "arena dispatch published no segment"
        model.close()
        assert executor.arena_segment_names() == ()
        for name in names:
            assert _attach_raises(name), f"segment {name} leaked past close()"

    def test_stream_segments_unlinked_after_query(self, monkeypatch):
        from repro.analysis import parallel as parallel_module

        created = []
        real_create = parallel_module.create_arena_segment

        def recording_create(paths):
            segment = real_create(paths)
            if segment is not None:
                created.append(segment)
            return segment

        monkeypatch.setattr(parallel_module, "create_arena_segment", recording_create)
        options = AnalysisOptions(
            max_fixpoint_depth=9, workers=2, executor="process",
            chunk_size=2, stream=True, payload_transport="arena",
        )
        with Model(geometric_program(), options) as model:
            model.bounds(_TARGETS)
        assert created, "streamed arena dispatch created no per-chunk segments"
        assert all(segment.closed for segment in created)
        for segment in created:
            assert _attach_raises(segment.name)

    def test_stream_segments_unlinked_on_path_explosion(self, monkeypatch):
        from repro.analysis import parallel as parallel_module

        created = []
        real_create = parallel_module.create_arena_segment

        def recording_create(paths):
            segment = real_create(paths)
            if segment is not None:
                created.append(segment)
            return segment

        monkeypatch.setattr(parallel_module, "create_arena_segment", recording_create)
        options = AnalysisOptions(
            max_fixpoint_depth=12, max_paths=6, workers=2, executor="process",
            chunk_size=1, stream=True, payload_transport="arena",
        )
        with Model(geometric_program(), options) as model:
            with pytest.raises(PathExplosionError):
                model.bounds(_TARGETS)
        assert created, "the explosion fired before any chunk was dispatched"
        assert all(segment.closed for segment in created)
        for segment in created:
            assert _attach_raises(segment.name)

    def _assert_degrades_once(self, monkeypatch, model, expected, **updates):
        from repro.analysis import parallel as parallel_module

        calls = []

        def failing_publish(image, paths):
            calls.append(len(paths))
            return None  # e.g. exhausted /dev/shm

        def failing_create(paths):
            calls.append(len(paths))
            return None

        # Batch and refinement publish the compiled table's bytes, streams
        # encode each chunk; every entry point must degrade identically.
        monkeypatch.setattr(parallel_module, "publish_arena_image", failing_publish)
        monkeypatch.setattr(parallel_module, "create_arena_segment", failing_create)
        options = model.options.with_updates(
            workers=2, executor="process", chunk_size=2, payload_transport="arena", **updates
        )
        with Model(model.term, options) as parallel_model:
            # Jobs carry the table image and the query context inline.
            assert_bits_equal(expected, parallel_model.bounds(_TARGETS))
            assert_bits_equal(expected, parallel_model.bounds(_TARGETS))
        # The first failure flips the executor to degraded: the second query
        # must not re-encode (and re-fail) the arena image.
        assert len(calls) == 1

    def test_failed_segment_creation_degrades_once(self, monkeypatch, geometric_baseline):
        model, serial = geometric_baseline
        self._assert_degrades_once(monkeypatch, model, serial)

    def test_failed_segment_creation_degrades_once_refined(self, monkeypatch, geometric_baseline):
        model, _ = geometric_baseline
        refine = dict(refine="gap", refine_max_rounds=2)
        expected = model.bounds(_TARGETS, model.options.with_updates(**refine))
        self._assert_degrades_once(monkeypatch, model, expected, **refine)

    def test_failed_segment_creation_degrades_once_streamed(self, monkeypatch, geometric_baseline):
        model, serial = geometric_baseline
        self._assert_degrades_once(monkeypatch, model, serial, stream=True)

    def test_executor_close_is_idempotent_with_arenas(self):
        executor = ParallelAnalysisExecutor(workers=2, kind="process")
        assert executor.prime_arena(symbolic_paths(simple_observe_model()))
        names = executor.arena_segment_names()
        executor.close()
        executor.close()
        for name in names:
            assert _attach_raises(name)


# ----------------------------------------------------------------------
# In-process backends never intern
# ----------------------------------------------------------------------


def _forbid_interning(monkeypatch, message: str) -> None:
    """Fail on any structural-interning walk of the path-table builder."""
    from repro.symbolic import arena as arena_module

    def forbidden(*args, **kwargs):
        raise AssertionError(message)

    monkeypatch.setattr(arena_module, "intern_path", forbidden)


class TestInternSkip:
    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_in_process_batch_never_interns(self, monkeypatch, kind):
        options = AnalysisOptions(
            max_fixpoint_depth=9, score_splits=8, workers=2, executor=kind, chunk_size=2
        )
        model = Model(geometric_program(), options)
        model.compile()  # compiling interns once; dispatch must not
        _forbid_interning(monkeypatch, "interning during in-process dispatch")
        model.bounds(_TARGETS)
        model.close()

    def test_serial_stream_never_interns(self, monkeypatch):
        _forbid_interning(monkeypatch, "interning during serial streaming")
        options = AnalysisOptions(
            max_fixpoint_depth=5, score_splits=8, workers=1, executor="serial",
            chunk_size=2, stream=True, stream_cache_budget=None,
        )
        Model(simple_observe_model(), options).bounds(_TARGETS)

    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_in_process_executor_stream_never_interns(self, monkeypatch, kind, geometric_baseline):
        from repro.analysis import analyze_path_stream
        from repro.symbolic import stream_symbolic_paths

        model, serial = geometric_baseline
        options = model.options.with_updates(chunk_size=2, stream=True)
        _forbid_interning(monkeypatch, "interning during in-process streaming")
        with ParallelAnalysisExecutor(workers=2, kind=kind) as executor:
            bounds = analyze_path_stream(
                stream_symbolic_paths(model.term, options.execution_limits()),
                _TARGETS, options, executor=executor,
            )
        assert_bits_equal(serial, bounds)

    def test_single_chunk_process_run_never_interns(self, monkeypatch):
        # One path -> one chunk -> inline run even under the process backend.
        options = AnalysisOptions(workers=2, executor="process")
        model = Model(b.mul(3.0, b.sample()), options)
        model.compile()
        _forbid_interning(monkeypatch, "interning during an inline single-chunk run")
        model.bounds([Interval(0.0, 1.0)])
        model.close()


# ----------------------------------------------------------------------
# Streamed-query cache tee
# ----------------------------------------------------------------------


class TestStreamCacheTee:
    def _options(self, **changes):
        base = AnalysisOptions(
            max_fixpoint_depth=5, score_splits=8, workers=1, executor="serial", stream=True
        )
        return base.with_updates(**changes) if changes else base

    def test_second_streamed_query_served_from_cache(self, serial_baseline):
        _, serial = serial_baseline
        model = Model(simple_observe_model(), self._options())
        first = model.bounds(_TARGETS)
        assert model.cache_info()["entries"] == 1
        assert model.compile_count == 0  # teed, not recompiled
        second = model.bounds(_TARGETS)
        assert model.cache_hits == 1
        assert_bits_equal(serial, first)
        assert_bits_equal(serial, second)

    def test_teed_execution_matches_batch_compile(self):
        model = Model(simple_observe_model(), self._options())
        model.bounds(_TARGETS)
        teed = model._compiled[model.options.execution_limits()].execution
        batch = symbolic_paths(model.term, model.options.execution_limits())
        assert teed.paths == batch.paths
        assert teed.truncated_paths == batch.truncated_paths
        assert teed.pruned_paths == batch.pruned_paths

    def test_budget_overflow_degrades_to_uncached_streaming(self, serial_baseline):
        _, serial = serial_baseline
        model = Model(simple_observe_model(), self._options(stream_cache_budget=1))
        bounds = model.bounds(_TARGETS)
        assert model.cache_info()["entries"] == 0
        assert_bits_equal(serial, bounds)

    def test_tee_disabled_by_none_budget(self, serial_baseline):
        _, serial = serial_baseline
        model = Model(simple_observe_model(), self._options(stream_cache_budget=None))
        bounds = model.bounds(_TARGETS)
        assert model.cache_info()["entries"] == 0
        assert_bits_equal(serial, bounds)

    def test_explosion_mid_stream_caches_nothing(self):
        options = self._options(max_fixpoint_depth=12, max_paths=6)
        model = Model(geometric_program(), options)
        with pytest.raises(PathExplosionError):
            model.bounds(_TARGETS)
        assert model.cache_info()["entries"] == 0

    @pytest.mark.skipif(not shared_memory_available(), reason="no multiprocessing.shared_memory")
    def test_tee_primes_arena_segment_on_pool(self, geometric_baseline):
        _, serial = geometric_baseline
        options = self._options(
            max_fixpoint_depth=9, score_splits=32, workers=2, executor="process",
            chunk_size=2, payload_transport="arena",
        )
        with Model(geometric_program(), options) as model:
            first = model.bounds(_TARGETS)
            assert model.cache_info()["entries"] == 1
            executor = next(iter(model._executors.values()))
            cached_paths = model._compiled[options.execution_limits()].execution.paths
            assert executor.arena_segment_names(), "tee did not prime the arena"
            created_before = executor.arena_segments_created
            second = model.bounds(_TARGETS)
            # The second (batch, cache-hit) query dispatches over the primed
            # segment without re-encoding.
            assert executor.arena_segments_created == created_before
            assert len(cached_paths) > 0
        assert_bits_equal(serial, first)
        assert_bits_equal(serial, second)


# ----------------------------------------------------------------------
# Knob plumbing
# ----------------------------------------------------------------------


class TestTransportKnobs:
    def test_default_transport_is_arena(self):
        assert AnalysisOptions().payload_transport is None
        assert AnalysisOptions(payload_transport="arena").payload_transport == "arena"

    def test_env_default(self, monkeypatch):
        # The environment no longer selects a transport: arena is the only one.
        monkeypatch.setenv("REPRO_ANALYSIS_TRANSPORT", "pickle")
        assert AnalysisOptions().payload_transport is None

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="payload_transport"):
            AnalysisOptions(payload_transport="carrier-pigeon")

    def test_pickle_transport_rejected(self):
        with pytest.raises(ValueError, match="payload_transport"):
            AnalysisOptions(payload_transport="pickle")

    def test_columnar_knob_removed(self):
        with pytest.raises(TypeError, match="columnar"):
            AnalysisOptions(columnar=False)

    @pytest.mark.parametrize("budget", [-1, True, 1.5])
    def test_bad_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="stream_cache_budget"):
            AnalysisOptions(stream_cache_budget=budget)

    def test_zero_budget_disables_tee(self):
        assert not AnalysisOptions(stream_cache_budget=0).stream_cache_enabled
        assert not AnalysisOptions(stream_cache_budget=None).stream_cache_enabled
        assert AnalysisOptions().stream_cache_enabled

    def test_interner_tracks_arena_footprint(self):
        builder = PathTableBuilder()
        paths = symbolic_paths(geometric_program(), ExecutionLimits(max_fixpoint_depth=6)).paths
        sizes = []
        for path in paths:
            builder.append(path)
            sizes.append(builder.nbytes_estimate)
        assert sizes == sorted(sizes)  # monotone in paths added
        assert len(builder) == len(paths)
        builder.clear()
        assert len(builder) == 0
