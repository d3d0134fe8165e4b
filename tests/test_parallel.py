"""The parallel bound engine: chunked fan-out, bit-identical merging, pools.

Three layers of guarantees are pinned here:

* **soundness/equivalence** — serial and parallel runs return *bit-identical*
  ``DenotationBounds`` / ``QueryBounds`` for every worker count, chunk size,
  executor backend and analyzer selection (property-based below);
* **determinism** — :func:`partition_paths` depends only on the path set and
  the knobs, never on timing;
* **robustness** — worker exceptions (including
  :class:`~repro.symbolic.PathExplosionError`) propagate to the caller, the
  analyzer registry stays serialization-safe, and the parallel knobs are
  validated eagerly.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    AnalysisOptions,
    AnalysisReport,
    Model,
    ParallelAnalysisExecutor,
    UnknownAnalyzerError,
    analyzer_specs,
    ensure_analyzers_registered,
    get_analyzer,
    partition_paths,
    register_analyzer,
    unregister_analyzer,
)
from repro.analysis.parallel import TableJob, run_table_job
from repro.intervals import Interval
from repro.lang import builder as b
from repro.symbolic import ExecutionLimits, PathExplosionError, symbolic_paths

from helpers import geometric_program, simple_observe_model


def nonlinear_model():
    """``sample · sample`` — handled by the box analyzer."""
    return b.mul(b.sample(), b.sample())


_PROGRAMS = {
    "observe": simple_observe_model,
    "nonlinear": nonlinear_model,
    "geometric": lambda: geometric_program(0.5),
}

_TARGETS = [Interval(0.0, 1.0), Interval(0.5, 2.0), Interval(-1e9, 1e9)]


@pytest.fixture(scope="module")
def serial_baselines():
    """Serial bounds for every test program, computed once."""
    baselines = {}
    for name, build in _PROGRAMS.items():
        options = AnalysisOptions(max_fixpoint_depth=5, score_splits=8, workers=1, executor="serial")
        model = Model(build(), options)
        baselines[name] = (model, model.bounds(_TARGETS))
    return baselines


def assert_bits_equal(first, second):
    assert len(first) == len(second)
    for a, b_ in zip(first, second):
        assert a.lower == b_.lower, f"lower bounds differ: {a.lower!r} vs {b_.lower!r}"
        assert a.upper == b_.upper, f"upper bounds differ: {a.upper!r} vs {b_.upper!r}"


# ----------------------------------------------------------------------
# Property-based serial/parallel equivalence
# ----------------------------------------------------------------------


class TestSerialParallelEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        program=st.sampled_from(sorted(_PROGRAMS)),
        workers=st.integers(min_value=2, max_value=4),
        chunk_size=st.sampled_from([None, 1, 2, 3, 7]),
        kind=st.sampled_from(["serial", "thread"]),
        analyzers=st.sampled_from([None, ("linear", "box"), ("box",)]),
    )
    def test_bounds_bit_identical(self, serial_baselines, program, workers, chunk_size, kind, analyzers):
        model, _ = serial_baselines[program]
        serial_options = model.options.with_updates(analyzers=analyzers)
        parallel_options = serial_options.with_updates(
            workers=workers, chunk_size=chunk_size, executor=kind
        )
        serial = model.bounds(_TARGETS, serial_options)
        parallel = model.bounds(_TARGETS, parallel_options)
        assert_bits_equal(serial, parallel)

    @pytest.mark.parametrize("program", sorted(_PROGRAMS))
    @pytest.mark.parametrize("workers,chunk_size", [(2, None), (3, 2)])
    def test_process_pool_bit_identical(self, serial_baselines, program, workers, chunk_size):
        model, serial = serial_baselines[program]
        options = model.options.with_updates(
            workers=workers, chunk_size=chunk_size, executor="process"
        )
        try:
            assert_bits_equal(serial, model.bounds(_TARGETS, options))
        finally:
            model.close()

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_query_bounds_bit_identical(self, serial_baselines, kind):
        model, _ = serial_baselines["observe"]
        target = Interval(0.0, 1.0)
        serial = model.probability(target)
        parallel = model.probability(
            target, model.options.with_updates(workers=2, executor=kind)
        )
        try:
            assert serial.lower == parallel.lower
            assert serial.upper == parallel.upper
            assert serial.unnormalised.lower == parallel.unnormalised.lower
            assert serial.unnormalised.upper == parallel.unnormalised.upper
            assert serial.normalising_constant.upper == parallel.normalising_constant.upper
        finally:
            model.close()

    def test_vectorized_and_scalar_boxes_agree(self, serial_baselines):
        """The vectorised sweep is a performance path, not a semantic one."""
        model, _ = serial_baselines["nonlinear"]
        vec = model.bounds(_TARGETS, model.options.with_updates(analyzers=("box",)))
        scalar = model.bounds(
            _TARGETS, model.options.with_updates(analyzers=("box",), vectorized_boxes=False)
        )
        for a, b_ in zip(vec, scalar):
            assert a.lower == pytest.approx(b_.lower, rel=1e-12, abs=1e-15)
            assert a.upper == pytest.approx(b_.upper, rel=1e-12, abs=1e-15)

    def test_report_counters_match_serial(self, serial_baselines):
        model, _ = serial_baselines["geometric"]
        serial_report = AnalysisReport()
        parallel_report = AnalysisReport()
        model.bounds(_TARGETS, report=serial_report)
        model.bounds(
            _TARGETS,
            model.options.with_updates(workers=3, executor="thread"),
            report=parallel_report,
        )
        assert parallel_report.path_count == serial_report.path_count
        assert parallel_report.truncated_paths == serial_report.truncated_paths
        assert parallel_report.analyzer_paths == serial_report.analyzer_paths


# ----------------------------------------------------------------------
# Deterministic partitioning
# ----------------------------------------------------------------------


class TestPartitionPaths:
    @pytest.fixture(scope="class")
    def paths(self):
        execution = symbolic_paths(geometric_program(0.5), ExecutionLimits(max_fixpoint_depth=7))
        return execution.paths

    def test_partition_covers_each_path_once(self, paths):
        chunks = partition_paths(paths, workers=3)
        covered = [index for chunk in chunks for index in chunk]
        assert covered == list(range(len(paths)))

    def test_partition_is_deterministic(self, paths):
        assert partition_paths(paths, workers=3) == partition_paths(paths, workers=3)

    def test_explicit_chunk_size(self, paths):
        chunks = partition_paths(paths, workers=2, chunk_size=3)
        assert all(len(chunk) <= 3 for chunk in chunks)
        assert sum(len(chunk) for chunk in chunks) == len(paths)

    def test_empty_path_set(self):
        assert partition_paths([], workers=4) == []

    def test_cost_balancing_prefers_chunks_over_length(self, paths):
        # More workers → at least as many chunks (until one path per chunk).
        few = partition_paths(paths, workers=1)
        many = partition_paths(paths, workers=4)
        assert len(many) >= len(few)


# ----------------------------------------------------------------------
# Option validation (parallel knobs)
# ----------------------------------------------------------------------


class TestParallelOptionValidation:
    @pytest.mark.parametrize("workers", [0, -1, 1.5, True, "2"])
    def test_rejects_bad_workers(self, workers):
        with pytest.raises(ValueError):
            AnalysisOptions(workers=workers)

    @pytest.mark.parametrize("chunk_size", [0, -3, 2.5, True])
    def test_rejects_bad_chunk_size(self, chunk_size):
        with pytest.raises(ValueError):
            AnalysisOptions(chunk_size=chunk_size)

    @pytest.mark.parametrize("executor", ["fork", "", "threads", "PROCESS"])
    def test_rejects_bad_executor_names(self, executor):
        with pytest.raises(ValueError):
            AnalysisOptions(executor=executor)

    @pytest.mark.parametrize("field", [
        "io_timeout", "job_timeout", "time_budget", "refine_time_budget",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_timeouts(self, field, value):
        # socket.settimeout raises on NaN and inf, and a NaN grace period
        # never expires: both used to hang or crash socket queries.
        with pytest.raises(ValueError, match=field):
            AnalysisOptions(**{field: value})

    def test_rejects_nan_width_target(self):
        with pytest.raises(ValueError, match="refine_width_target"):
            AnalysisOptions(refine_width_target=float("nan"))
        assert AnalysisOptions(refine_width_target=float("inf")).refine_width_target == float("inf")

    def test_executor_derived_from_workers(self):
        assert AnalysisOptions(workers=1, executor=None).effective_executor == "serial"
        assert AnalysisOptions(workers=2, executor=None).effective_executor == "process"
        assert not AnalysisOptions(workers=1, executor=None).parallel
        assert AnalysisOptions(workers=1, executor="thread").parallel

    def test_executor_key_identifies_pools(self):
        first = AnalysisOptions(workers=2, executor="thread")
        second = AnalysisOptions(workers=2, executor="thread", score_splits=64)
        assert first.executor_key() == second.executor_key()
        assert first.executor_key() != AnalysisOptions(workers=3, executor="thread").executor_key()

    def test_executor_constructor_validation(self):
        with pytest.raises(ValueError):
            ParallelAnalysisExecutor(workers=0, kind="thread")
        with pytest.raises(ValueError):
            ParallelAnalysisExecutor(workers=2, kind="fibers")
        with pytest.raises(ValueError):
            ParallelAnalysisExecutor(workers=2, kind="thread", chunk_size=0)

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYSIS_WORKERS", "3")
        monkeypatch.setenv("REPRO_ANALYSIS_EXECUTOR", "thread")
        options = AnalysisOptions()
        assert options.workers == 3
        assert options.effective_executor == "thread"
        monkeypatch.setenv("REPRO_ANALYSIS_WORKERS", "zero")
        with pytest.raises(ValueError):
            AnalysisOptions()


# ----------------------------------------------------------------------
# Worker failure propagation
# ----------------------------------------------------------------------


class ExplodingAnalyzer:
    """Module-level (hence spec-importable) analyzer that always explodes."""

    name = "exploding"

    def applicable(self, path, options):
        return True

    def analyze(self, path, targets, options):
        raise PathExplosionError("path budget exhausted inside a worker")


class ShortBatchAnalyzer:
    """Broken batch analyzer: returns fewer rows than paths."""

    name = "short-batch"

    def applicable(self, path, options):
        return True

    def analyze(self, path, targets, options):
        return [(0.0, 1.0) for _ in targets]

    def analyze_batch(self, paths, targets, options):
        return [self.analyze(paths[0], targets, options)]  # drops all but one path


@pytest.fixture
def exploding_analyzer():
    register_analyzer("exploding", ExplodingAnalyzer, replace=True)
    yield
    unregister_analyzer("exploding")


class TestWorkerFailurePropagation:
    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_path_explosion_error_propagates(self, exploding_analyzer, kind):
        # The geometric program yields several paths, so the work is really
        # fanned out over multiple chunks (one-chunk runs execute inline).
        options = AnalysisOptions(
            max_fixpoint_depth=6, workers=2, executor=kind, analyzers=("exploding",)
        )
        with Model(geometric_program(0.5), options) as model:
            with pytest.raises(PathExplosionError, match="inside a worker"):
                model.bounds([Interval(0.0, 1.0)])

    def test_short_batch_results_rejected(self):
        """An analyze_batch shortfall must fail loudly, never drop paths."""
        register_analyzer("short-batch", ShortBatchAnalyzer, replace=True)
        try:
            options = AnalysisOptions(
                max_fixpoint_depth=5, workers=2, executor="thread", analyzers=("short-batch",)
            )
            with Model(geometric_program(0.5), options) as model:
                with pytest.raises(RuntimeError, match="one result per path"):
                    model.bounds([Interval(0.0, 1.0)])
        finally:
            unregister_analyzer("short-batch")

    def test_path_explosion_error_survives_pickling(self):
        error = PathExplosionError("too many paths")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, PathExplosionError)
        assert clone.args == error.args

    def test_unknown_analyzer_fails_fast_in_parent(self):
        options = AnalysisOptions(workers=2, executor="process", analyzers=("no-such",))
        with Model(simple_observe_model(), options) as model:
            with pytest.raises(UnknownAnalyzerError):
                model.bounds([Interval(0.0, 1.0)])

    def test_no_applicable_analyzer_propagates(self):
        class Never:
            name = "never"

            def applicable(self, path, options):
                return False

            def analyze(self, path, targets, options):  # pragma: no cover
                raise AssertionError

        register_analyzer("never", Never, replace=True)
        try:
            options = AnalysisOptions(workers=2, executor="thread", analyzers=("never",))
            with Model(simple_observe_model(), options) as model:
                with pytest.raises(RuntimeError, match="no analyzer"):
                    model.bounds([Interval(0.0, 1.0)])
        finally:
            unregister_analyzer("never")


# ----------------------------------------------------------------------
# Serialization-safe registry
# ----------------------------------------------------------------------


class TestRegistrySerializationSafety:
    def test_specs_are_picklable_and_reload(self):
        (spec,) = analyzer_specs(["box"])
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        from repro.analysis.box_analyzer import BoxPathAnalyzer

        assert clone.load() is BoxPathAnalyzer

    def test_ensure_registered_rematerialises_custom_analyzer(self):
        register_analyzer("exploding", ExplodingAnalyzer, replace=True)
        specs = analyzer_specs(["exploding"])
        unregister_analyzer("exploding")
        with pytest.raises(UnknownAnalyzerError):
            get_analyzer("exploding")
        try:
            ensure_analyzers_registered(specs)
            assert isinstance(get_analyzer("exploding"), ExplodingAnalyzer)
        finally:
            unregister_analyzer("exploding")

    def test_local_class_specs_refuse_process_transfer(self):
        class Local:
            name = "local"

            def applicable(self, path, options):
                return True

            def analyze(self, path, targets, options):
                return [(0.0, 0.0) for _ in targets]

        register_analyzer("local", Local, replace=True)
        try:
            (spec,) = analyzer_specs(["local"])
            with pytest.raises(UnknownAnalyzerError, match="local class"):
                spec.load()
        finally:
            unregister_analyzer("local")

    def test_specs_for_unknown_name_raise(self):
        with pytest.raises(UnknownAnalyzerError):
            analyzer_specs(["definitely-not-registered"])

    def test_builtin_override_reaches_spawned_workers(self):
        """A ``replace=True`` override of a built-in name must win in workers.

        Simulates a spawn-start-method worker: the parent overrides "box",
        ships specs, and the worker's registry already holds the *built-in*
        registration from import time.  ensure_analyzers_registered must
        replace it with the parent's class, not silently keep the built-in.
        """
        from repro.analysis.box_analyzer import BoxPathAnalyzer

        register_analyzer("box", ExplodingAnalyzer, replace=True)
        try:
            specs = analyzer_specs(["box"])
            # Worker state: the import-time built-in registration.
            register_analyzer("box", BoxPathAnalyzer, replace=True)
            ensure_analyzers_registered(specs)
            assert isinstance(get_analyzer("box"), ExplodingAnalyzer)
        finally:
            register_analyzer("box", BoxPathAnalyzer, replace=True)

    def test_table_jobs_are_picklable(self):
        execution = symbolic_paths(simple_observe_model(), ExecutionLimits())
        options = AnalysisOptions()
        job = TableJob(
            index=0,
            table=execution.table().to_bytes(),
            context=((Interval(0.0, 1.0),), options, analyzer_specs(("linear", "box"))),
            start=0,
            stop=len(execution.paths),
        )
        clone = pickle.loads(pickle.dumps(job))
        index, contributions = run_table_job(clone)
        assert index == 0
        assert len(contributions) == len(execution.paths)
        assert contributions == run_table_job(job)[1]


# ----------------------------------------------------------------------
# Pool lifecycle and reuse through Model
# ----------------------------------------------------------------------


class TestExecutorLifecycle:
    def test_model_reuses_pool_across_queries(self):
        options = AnalysisOptions(workers=2, executor="thread", score_splits=8)
        with Model(simple_observe_model(), options) as model:
            model.probability(Interval(0.0, 1.0))
            model.probability(Interval(1.0, 2.0))
            model.histogram(0.0, 3.0, 4)
            assert model.executor_count == 1
            executor = model._executor_for(options)
            assert executor.chunks_dispatched > 0
            assert executor.paths_analyzed > 0
        assert model.executor_count == 0

    def test_distinct_parallel_knobs_get_distinct_pools(self):
        with Model(simple_observe_model(), AnalysisOptions(score_splits=8)) as model:
            model.bound(Interval(0.0, 1.0), model.options.with_updates(workers=2, executor="thread"))
            model.bound(Interval(0.0, 1.0), model.options.with_updates(workers=3, executor="thread"))
            assert model.executor_count == 2

    def test_chunk_size_sweep_shares_one_pool(self):
        """chunk_size is a per-call knob, not a pool identity.

        The chunk_size=1 query comes first deliberately: the pool must not
        bake the first query's chunk_size in and leak it into the later
        chunk_size=None queries (which are documented to cost-balance).
        """
        with Model(geometric_program(0.5), AnalysisOptions(max_fixpoint_depth=6)) as model:
            for chunk_size in (1, None, 2, 4):
                options = model.options.with_updates(
                    workers=2, executor="thread", chunk_size=chunk_size
                )
                model.bound(Interval(0.0, 1.0), options)
            assert model.executor_count == 1
            assert model._executor_for(options).chunk_size is None

    def test_shared_executor_reused_for_direct_engine_calls(self):
        from repro.analysis import (
            analyze_execution,
            close_shared_executors,
            shared_executor,
        )

        options = AnalysisOptions(max_fixpoint_depth=6, workers=2, executor="thread")
        execution = symbolic_paths(geometric_program(0.5), options.execution_limits())
        try:
            first = shared_executor(options)
            analyze_execution(execution, [Interval(0.0, 1.0)], options)
            assert shared_executor(options) is first
            assert first.chunks_dispatched > 0
        finally:
            close_shared_executors()
        # Closed shared pools re-create on demand.
        fresh = shared_executor(options)
        assert fresh is not first
        close_shared_executors()

    def test_dropped_model_finalizes_its_pools(self):
        """A Model GC'd without close() must not leak worker processes."""
        import gc

        options = AnalysisOptions(max_fixpoint_depth=6, workers=2, executor="thread")
        model = Model(geometric_program(0.5), options)
        model.bound(Interval(0.0, 1.0))
        executor = model._executor_for(options)
        assert not executor._closed
        del model
        gc.collect()
        assert executor._closed

    def test_closed_executor_rejects_use(self):
        executor = ParallelAnalysisExecutor(workers=2, kind="thread")
        executor.close()
        execution = symbolic_paths(b.sample(), ExecutionLimits())
        with pytest.raises(RuntimeError, match="closed"):
            executor.analyze(execution, [Interval(0.0, 1.0)], AnalysisOptions())

    def test_close_is_idempotent_and_reopens_lazily(self):
        options = AnalysisOptions(workers=2, executor="thread", score_splits=8)
        model = Model(simple_observe_model(), options)
        first = model.bound(Interval(0.0, 1.0))
        model.close()
        model.close()
        second = model.bound(Interval(0.0, 1.0))
        assert first.lower == second.lower and first.upper == second.upper
        model.close()

    def test_executor_context_manager(self):
        execution = symbolic_paths(simple_observe_model(), ExecutionLimits())
        with ParallelAnalysisExecutor(workers=2, kind="thread") as executor:
            serial = ParallelAnalysisExecutor(workers=2, kind="serial")
            expected = serial.analyze(execution, _TARGETS, AnalysisOptions(score_splits=8))
            actual = executor.analyze(execution, _TARGETS, AnalysisOptions(score_splits=8))
            assert_bits_equal(expected, actual)


# ----------------------------------------------------------------------
# Picklable paths (process-pool payload contract)
# ----------------------------------------------------------------------


class TestPathPicklability:
    @pytest.mark.parametrize("program", sorted(_PROGRAMS))
    def test_execution_results_round_trip(self, program):
        execution = symbolic_paths(_PROGRAMS[program](), ExecutionLimits(max_fixpoint_depth=5))
        clone = pickle.loads(pickle.dumps(execution))
        assert clone.paths == execution.paths
        assert clone.truncated_paths == execution.truncated_paths

    def test_cost_hints_are_deterministic_and_positive(self):
        execution = symbolic_paths(geometric_program(0.5), ExecutionLimits(max_fixpoint_depth=6))
        hints = [path.analysis_cost_hint() for path in execution.paths]
        assert all(hint > 0 for hint in hints)
        assert hints == [path.analysis_cost_hint() for path in execution.paths]
