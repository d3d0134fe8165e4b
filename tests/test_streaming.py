"""The streaming symbolic→analysis pipeline.

Four layers of guarantees are pinned here:

* **explorer equivalence** — :meth:`SymbolicExecutor.iter_paths` generates
  exactly the path set :meth:`SymbolicExecutor.run` materialises, in the same
  canonical order, with matching statistics (property-based across programs
  and fixpoint depths);
* **bound equivalence** — streamed queries (``AnalysisOptions(stream=True)``)
  return bounds *bit-identical* to batch queries for every analyzer
  selection, worker count, chunk size and executor backend;
* **bounded memory** — the streaming pipeline's peak path buffer stays below
  the materialised path count and within the documented
  ``chunk_size × (workers × prefetch + 1)`` envelope;
* **error propagation** — a mid-stream :class:`PathExplosionError` (the
  generator raising after having yielded paths) propagates out of both the
  bare generator and the streaming analysis, serial and pooled.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    AnalysisOptions,
    AnalysisReport,
    Model,
    ParallelAnalysisExecutor,
    analyze_path_stream,
)
from repro.intervals import Interval
from repro.lang import builder as b
from repro.symbolic import (
    ExecutionLimits,
    PathExplosionError,
    StreamStats,
    SymbolicExecutor,
    intern_path,
    stream_symbolic_paths,
    symbolic_paths,
)

from helpers import geometric_program, pedestrian_walk_fixpoint, simple_observe_model


def nonlinear_model():
    return b.mul(b.sample(), b.sample())


def pedestrian_model():
    return b.let("start", b.mul(3.0, b.sample()), b.app(pedestrian_walk_fixpoint(), b.var("start")))


_PROGRAMS = {
    "observe": simple_observe_model,
    "nonlinear": nonlinear_model,
    "geometric": lambda: geometric_program(0.5),
    "pedestrian": pedestrian_model,
}

_TARGETS = [Interval(0.0, 1.0), Interval(0.5, 2.0), Interval(-1e9, 1e9)]


# ----------------------------------------------------------------------
# Explorer equivalence: run() vs iter_paths()
# ----------------------------------------------------------------------


class TestIterPathsEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        program=st.sampled_from(sorted(_PROGRAMS)),
        depth=st.integers(min_value=1, max_value=6),
    )
    def test_same_paths_same_order_same_stats(self, program, depth):
        term = _PROGRAMS[program]()
        limits = ExecutionLimits(max_fixpoint_depth=depth)
        batch = symbolic_paths(term, limits)

        stats = StreamStats()
        streamed = tuple(SymbolicExecutor(limits).iter_paths(term, stats))

        assert streamed == batch.paths  # same paths, same canonical order
        assert stats.exhausted
        assert stats.emitted_paths == batch.path_count
        assert stats.truncated_paths == batch.truncated_paths
        assert stats.pruned_paths == batch.pruned_paths

    def test_stream_run_wraps_generator_and_stats(self):
        stream = stream_symbolic_paths(_PROGRAMS["geometric"](), ExecutionLimits(max_fixpoint_depth=5))
        assert not stream.stats.exhausted
        paths = list(stream)
        assert paths
        assert stream.stats.exhausted
        assert stream.stats.emitted_paths == len(paths)

    def test_stats_update_in_lockstep_with_consumption(self):
        stream = stream_symbolic_paths(_PROGRAMS["geometric"](), ExecutionLimits(max_fixpoint_depth=5))
        iterator = iter(stream)
        next(iterator)
        assert stream.stats.emitted_paths == 1
        assert not stream.stats.exhausted
        next(iterator)
        assert stream.stats.emitted_paths == 2

    def test_partial_consumption_can_be_abandoned(self):
        """Closing a half-consumed generator must not leak or error."""
        stream = stream_symbolic_paths(pedestrian_model(), ExecutionLimits(max_fixpoint_depth=5))
        iterator = iter(stream)
        for _ in range(3):
            next(iterator)
        iterator.close()
        assert stream.stats.emitted_paths == 3
        assert not stream.stats.exhausted


# ----------------------------------------------------------------------
# Mid-stream path explosion
# ----------------------------------------------------------------------


class TestMidStreamExplosion:
    def test_generator_yields_then_raises(self):
        limits = ExecutionLimits(max_fixpoint_depth=30, max_paths=5)
        stats = StreamStats()
        iterator = SymbolicExecutor(limits).iter_paths(geometric_program(0.5), stats)
        yielded = []
        with pytest.raises(PathExplosionError):
            for path in iterator:
                yielded.append(path)
        # The budgeted prefix was delivered before the stream blew up.
        assert 0 < len(yielded) <= 5
        assert not stats.exhausted

    def test_run_still_raises_like_the_historical_engine(self):
        with pytest.raises(PathExplosionError):
            symbolic_paths(geometric_program(0.5), ExecutionLimits(max_fixpoint_depth=30, max_paths=5))

    @pytest.mark.parametrize("kind,workers", [("serial", 1), ("thread", 2), ("process", 2)])
    def test_streamed_analysis_propagates_explosion(self, kind, workers):
        options = AnalysisOptions(
            max_fixpoint_depth=30,
            max_paths=5,
            workers=workers,
            executor=kind,
            stream=True,
            chunk_size=2,
        )
        with Model(geometric_program(0.5), options) as model:
            with pytest.raises(PathExplosionError):
                model.bounds([Interval(0.0, 1.0)])


# ----------------------------------------------------------------------
# Streamed vs batch bound bit-equality
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def batch_baselines():
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


class TestStreamedBatchEquivalence:
    @pytest.mark.slow
    @settings(max_examples=25, deadline=None)
    @given(
        program=st.sampled_from(sorted(_PROGRAMS)),
        workers=st.integers(min_value=1, max_value=4),
        chunk_size=st.sampled_from([None, 1, 2, 7]),
        kind=st.sampled_from(["serial", "thread"]),
        prefetch=st.sampled_from([1, 2, 4]),
        analyzers=st.sampled_from([None, ("linear", "box"), ("box",)]),
    )
    def test_streamed_bounds_bit_identical(
        self, batch_baselines, program, workers, chunk_size, kind, prefetch, analyzers
    ):
        model, _ = batch_baselines[program]
        batch_options = model.options.with_updates(analyzers=analyzers)
        stream_options = batch_options.with_updates(
            stream=True, workers=workers, chunk_size=chunk_size, executor=kind, prefetch=prefetch
        )
        batch = model.bounds(_TARGETS, batch_options)
        # A fresh model so the streamed query cannot be served from the
        # baseline model's compiled-program cache.
        with Model(model.term, stream_options) as fresh:
            streamed = fresh.bounds(_TARGETS)
        assert_bits_equal(batch, streamed)

    @pytest.mark.parametrize("program", sorted(_PROGRAMS))
    def test_streamed_process_pool_bit_identical(self, batch_baselines, program):
        model, batch = batch_baselines[program]
        options = model.options.with_updates(stream=True, workers=2, executor="process", chunk_size=3)
        with Model(model.term, options) as fresh:
            assert_bits_equal(batch, fresh.bounds(_TARGETS))

    def test_streamed_query_bounds_and_histogram(self, batch_baselines):
        model, _ = batch_baselines["observe"]
        target = Interval(0.0, 1.0)
        batch_query = model.probability(target)
        batch_histogram = model.histogram(0.0, 3.0, 4)
        options = model.options.with_updates(stream=True, workers=2, executor="thread")
        with Model(model.term, options) as fresh:
            streamed_query = fresh.probability(target)
            streamed_histogram = fresh.histogram(0.0, 3.0, 4)
        assert streamed_query.lower == batch_query.lower
        assert streamed_query.upper == batch_query.upper
        assert streamed_histogram.z_lower == batch_histogram.z_lower
        assert streamed_histogram.z_upper == batch_histogram.z_upper
        for batch_bucket, stream_bucket in zip(batch_histogram.buckets, streamed_histogram.buckets):
            assert stream_bucket.lower == batch_bucket.lower
            assert stream_bucket.upper == batch_bucket.upper

    def test_streamed_query_uses_cache_when_already_compiled(self, batch_baselines):
        model, batch = batch_baselines["geometric"]
        hits_before = model.cache_hits
        streamed = model.bounds(_TARGETS, model.options.with_updates(stream=True))
        assert model.cache_hits == hits_before + 1  # served from the batch cache
        assert_bits_equal(batch, streamed)

    def test_engine_level_stream_of_plain_iterable(self, batch_baselines):
        """analyze_path_stream accepts any iterable of paths, not just generators."""
        model, batch = batch_baselines["geometric"]
        execution = symbolic_paths(model.term, model.options.execution_limits())
        streamed = analyze_path_stream(iter(execution.paths), _TARGETS, model.options)
        assert_bits_equal(batch, streamed)

    def test_streamed_report_counters_match_serial(self, batch_baselines):
        model, _ = batch_baselines["pedestrian"]
        batch_report = AnalysisReport()
        model.bounds(_TARGETS, report=batch_report)
        stream_report = AnalysisReport()
        options = model.options.with_updates(stream=True, workers=2, executor="thread", chunk_size=4)
        with Model(model.term, options) as fresh:
            fresh.bounds(_TARGETS, report=stream_report)
        assert stream_report.path_count == batch_report.path_count
        assert stream_report.truncated_paths == batch_report.truncated_paths
        assert stream_report.analyzer_paths == batch_report.analyzer_paths
        assert stream_report.first_result_seconds is not None


# ----------------------------------------------------------------------
# Bounded path buffer
# ----------------------------------------------------------------------


class TestPeakPathBuffer:
    def test_serial_streaming_is_constant_memory(self):
        options = AnalysisOptions(max_fixpoint_depth=6, stream=True, workers=1, executor="serial")
        # One path per chunk: one resident path.
        report = AnalysisReport()
        with Model(pedestrian_model(), options.with_updates(chunk_size=1)) as model:
            model.bounds([Interval(0.0, 1.0)], report=report)
        assert report.path_count > 50
        assert report.peak_path_buffer == 1
        # The default chunk: at most one chunk of paths resident.
        report = AnalysisReport()
        with Model(pedestrian_model(), options) as model:
            model.bounds([Interval(0.0, 1.0)], report=report)
        assert report.path_count > 50
        assert 0 < report.peak_path_buffer <= 32

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_pooled_streaming_respects_buffer_envelope(self, kind):
        workers, prefetch, chunk_size = 2, 2, 8
        options = AnalysisOptions(
            max_fixpoint_depth=7,
            stream=True,
            workers=workers,
            prefetch=prefetch,
            chunk_size=chunk_size,
            executor=kind,
        )
        report = AnalysisReport()
        with Model(pedestrian_model(), options) as model:
            model.bounds([Interval(0.0, 1.0)], report=report)
        envelope = chunk_size * (workers * prefetch + 1)
        assert report.path_count > envelope  # the workload genuinely overflows the buffer
        assert 0 < report.peak_path_buffer <= envelope

    def test_prefetch_validation(self):
        with pytest.raises(ValueError):
            AnalysisOptions(prefetch=0)
        with pytest.raises(ValueError):
            AnalysisOptions(prefetch=-2)
        with pytest.raises(ValueError):
            AnalysisOptions(prefetch=1.5)

    def test_stream_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYSIS_STREAM", "1")
        assert AnalysisOptions().stream
        monkeypatch.setenv("REPRO_ANALYSIS_STREAM", "0")
        assert not AnalysisOptions().stream


# ----------------------------------------------------------------------
# Expression interning (shared path-table nodes)
# ----------------------------------------------------------------------


class TestInterning:
    def test_interning_preserves_structure_and_dedupes(self):
        execution = symbolic_paths(pedestrian_model(), ExecutionLimits(max_fixpoint_depth=6))
        memo = {}
        interned = tuple(intern_path(path, memo) for path in execution.paths)
        assert interned == execution.paths
        # Structurally equal results across paths collapse to one object.
        identities = {id(path.result) for path in interned}
        values = {path.result for path in interned}
        assert len(identities) == len(values)

    def test_streaming_executor_exposes_peak_buffer_counter(self):
        execution = symbolic_paths(geometric_program(0.5), ExecutionLimits(max_fixpoint_depth=6))
        with ParallelAnalysisExecutor(workers=2, kind="thread") as executor:
            serial = ParallelAnalysisExecutor(workers=1, kind="serial")
            options = AnalysisOptions(score_splits=8, chunk_size=2)
            expected = serial.analyze(execution, _TARGETS, options)
            streamed = executor.analyze_stream(iter(execution.paths), _TARGETS, options)
            assert_bits_equal(expected, streamed)
            assert executor.peak_path_buffer > 0
