"""Integration tests that replay the paper's headline scenarios at small scale."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis import AnalysisOptions, AnalysisReport, Model
from repro.intervals import Interval
from repro.models import (
    benchmark_by_name,
    cav_example_7,
    discrete_benchmark_by_name,
    pedestrian_bounded_program,
    pedestrian_program,
)


@pytest.mark.slow
class TestPedestrianEndToEnd:
    # One Model for the whole class: both tests query the same options, so the
    # second histogram is served entirely from the compiled-program cache.
    @pytest.fixture(scope="class")
    def pedestrian_model(self):
        return Model(pedestrian_program(), AnalysisOptions(max_fixpoint_depth=4, score_splits=16))

    def test_bounds_contain_importance_sampling(self, pedestrian_model, rng):
        report = AnalysisReport()
        histogram = pedestrian_model.histogram(0.0, 3.0, 4, report=report)

        assert report.truncated_paths > 0
        assert report.analyzer_paths.get("linear", 0) == report.path_count  # every pedestrian path is linear

        is_result = Model(pedestrian_bounded_program()).sample(4_000, method="importance", rng=rng)
        samples = is_result.resample(4_000, rng)
        validation = histogram.validate_samples(samples, tolerance=0.03)
        assert validation.consistent

    def test_bounds_reject_a_grossly_wrong_posterior(self, pedestrian_model, rng):
        histogram = pedestrian_model.histogram(0.0, 3.0, 4)
        assert pedestrian_model.cache_hits >= 1  # symbolic execution ran once for the class
        wrong = rng.uniform(2.5, 3.0, size=3_000)  # nearly all mass far from the posterior
        # At this reduced depth the normalised lower bounds are small, so the
        # check uses a zero tolerance: any bucket frequency strictly below its
        # guaranteed lower bound is a genuine violation.
        assert not histogram.validate_samples(wrong, tolerance=0.0).consistent


class TestTable1Scenario:
    def test_gubpi_tighter_than_baseline_on_branching_program(self):
        entry = benchmark_by_name("beauquier-3", "Q1")
        model = Model(entry.program)
        bounds = model.probability(entry.target)
        baseline = model.estimate(entry.target, path_budget=3)
        assert bounds.width <= baseline.width + 1e-9
        assert bounds.lower <= 0.5 <= bounds.upper

    def test_herman_exact_value(self):
        entry = benchmark_by_name("herman-3", "Q1")
        bounds = Model(entry.program).probability(entry.target)
        assert bounds.lower == pytest.approx(0.375, abs=1e-6)
        assert bounds.upper == pytest.approx(0.375, abs=1e-6)


class TestTable2Scenario:
    def test_grass_model_agreement_and_value(self):
        case = discrete_benchmark_by_name("grass")
        model = Model(case.program)
        exact = model.exact().probability_of(case.query_target)
        bounds = model.probability(case.query_target)
        assert bounds.contains(exact, slack=1e-9)
        assert 0.6 < exact < 0.8


class TestFig6Scenario:
    def test_unbounded_geometric_vs_truncated_exact(self):
        model = Model(cav_example_7(), AnalysisOptions(max_fixpoint_depth=12))
        bounds = model.probability(Interval(-0.5, 0.5))
        assert bounds.lower <= 0.2 <= bounds.upper
        truncated = model.exact(max_unroll=4, on_limit="truncate")
        # The truncated exact answer differs from the unbounded program's true value.
        assert truncated.probability(0.0) > 0.2 + 0.01


class TestSoundnessSweep:
    """Randomised soundness check: engine bounds contain Monte Carlo estimates."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_linear_models(self, seed):
        rng = np.random.default_rng(seed)
        from repro.lang import builder as b

        threshold = float(rng.uniform(0.3, 1.7))
        observed = float(rng.uniform(0.2, 1.2))
        program = b.let(
            "a",
            b.sample(),
            b.let(
                "c",
                b.sample(),
                b.seq(
                    b.observe_normal(observed, 0.3, b.add(b.var("a"), b.var("c"))),
                    b.if_leq(b.add(b.var("a"), b.var("c")), threshold, b.var("a"), b.add(b.var("a"), 1.0)),
                ),
            ),
        )
        target = Interval(0.0, 1.0)
        model = Model(program, AnalysisOptions(score_splits=48))
        query = model.probability(target)
        estimate = model.sample(20_000, method="importance", rng=rng).estimate_probability(target)
        assert query.lower - 0.03 <= estimate <= query.upper + 0.03
