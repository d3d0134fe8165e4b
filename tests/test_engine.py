"""End-to-end tests for the GuBPI engine (Algorithm 1) via the Model facade."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from repro.analysis import AnalysisOptions, AnalysisReport, Model, histogram_buckets
from repro.intervals import Interval
from repro.lang import builder as b, parse
from repro.models import discrete_suite

from helpers import geometric_program, simple_observe_model


class TestBoundDenotation:
    def test_deterministic_program(self):
        bounds = Model(b.const(2.0)).bounds([Interval(1.5, 2.5), Interval(3.0, 4.0)])
        assert bounds[0].lower == pytest.approx(1.0)
        assert bounds[0].upper == pytest.approx(1.0)
        assert bounds[1].lower == bounds[1].upper == 0.0

    def test_uniform_program_exact(self):
        bounds = Model(b.sample()).bounds([Interval(0.2, 0.5)])
        assert bounds[0].lower == pytest.approx(0.3, abs=1e-9)
        assert bounds[0].upper == pytest.approx(0.3, abs=1e-9)

    def test_report_collected(self):
        report = AnalysisReport()
        Model(b.if_leq(b.sample(), 0.5, 1.0, 2.0)).bounds([Interval(0.0, 3.0)], report=report)
        assert report.path_count == 2
        assert report.analyzer_paths == {"linear": 2}
        assert report.seconds > 0

    def test_observe_model_brackets_quadrature(self):
        model = Model(simple_observe_model(), AnalysisOptions(score_splits=64))
        target = Interval(0.0, 1.0)
        bounds = model.bound(target)
        truth, _ = integrate.quad(lambda u: stats.norm.pdf(1.1, loc=3 * u, scale=0.25), 0.0, 1.0 / 3.0)
        assert bounds.lower <= truth <= bounds.upper
        assert bounds.width < 0.1

    def test_box_fallback_engaged_for_nonlinear(self):
        model = Model(b.mul(b.sample(), b.sample()))
        report = AnalysisReport()
        bounds = model.bound(Interval(0.0, 0.25), report=report)
        assert report.analyzer_paths.get("box", 0) == 1
        # P(U·V <= 1/4) = 1/4 (1 + ln 4)
        truth = 0.25 * (1 + math.log(4.0))
        assert bounds.lower <= truth <= bounds.upper

    def test_linear_semantics_can_be_disabled(self):
        model = Model(b.add(b.sample(), b.sample()))
        report = AnalysisReport()
        model.bounds(
            [Interval(0.0, 1.0)],
            AnalysisOptions(analyzers=("box",)),
            report=report,
        )
        assert report.analyzer_paths.get("linear", 0) == 0
        assert report.analyzer_paths.get("box", 0) == 1

    def test_analyzer_selected_by_name(self):
        model = Model(b.add(b.sample(), b.sample()))
        report = AnalysisReport()
        model.bounds([Interval(0.0, 1.0)], AnalysisOptions(analyzers=("box",)), report=report)
        assert report.analyzer_paths == {"box": 1}

    @pytest.mark.parametrize("analyzers", [("box",), ("linear", "box")])
    def test_interval_std_likelihood_is_well_formed(self, analyzers):
        # A Gaussian likelihood whose std is U(0,1): near std 0 the ratio
        # d/std exceeds the largest squarable float.
        term = parse(
            "(let s (sample) (let x (sample normal 0.0 1.0)"
            " (let _ (score (normal_pdf 0.5 s x)) x)))"
        )
        options = AnalysisOptions(analyzers=analyzers, workers=1, executor="serial")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bounds = Model(term, options).bounds([Interval(0.0, 1.0), Interval.reals()])
        for bound in bounds:
            assert not math.isnan(bound.lower) and not math.isnan(bound.upper)
            assert 0.0 < bound.lower <= bound.upper
        assert bounds[0].upper <= bounds[1].upper


class TestBoundQuery:
    def test_normalised_bounds_in_unit_interval(self):
        query = Model(simple_observe_model()).probability(Interval(0.0, 1.0))
        assert 0.0 <= query.lower <= query.upper <= 1.0

    def test_query_matches_quadrature(self):
        model = Model(simple_observe_model(), AnalysisOptions(score_splits=128))
        query = model.probability(Interval(0.0, 1.0))
        numerator, _ = integrate.quad(
            lambda u: stats.norm.pdf(1.1, loc=3 * u, scale=0.25), 0.0, 1.0 / 3.0
        )
        denominator, _ = integrate.quad(
            lambda u: stats.norm.pdf(1.1, loc=3 * u, scale=0.25), 0.0, 1.0
        )
        truth = numerator / denominator
        assert query.contains(truth)
        assert query.width < 0.2

    def test_query_of_impossible_event(self):
        query = Model(b.sample()).probability(Interval(2.0, 3.0))
        assert query.lower == 0.0
        assert query.upper == 0.0

    def test_query_of_certain_event(self):
        query = Model(b.sample()).probability(Interval(-1.0, 2.0))
        assert query.lower == pytest.approx(1.0)
        assert query.upper == pytest.approx(1.0)

    def test_agreement_with_importance_sampling(self, rng):
        program = b.let(
            "x",
            b.sample(),
            b.seq(b.observe_normal(0.7, 0.2, b.var("x")), b.var("x")),
        )
        target = Interval(0.5, 1.0)
        model = Model(program, AnalysisOptions(score_splits=96))
        query = model.probability(target)
        is_result = model.sample(20_000, method="importance", rng=rng)
        estimate = is_result.estimate_probability(target)
        assert query.lower - 0.02 <= estimate <= query.upper + 0.02

    def test_geometric_program_query(self):
        """P(count = 0) for a geometric(1/2) counter is 1/2; recursion is summarised."""
        model = Model(geometric_program(0.5), AnalysisOptions(max_fixpoint_depth=8))
        query = model.probability(Interval(-0.5, 0.5))
        assert query.lower <= 0.5 <= query.upper
        assert query.lower > 0.45
        assert query.upper < 0.55

    def test_geometric_bounds_tighten_with_depth(self):
        model = Model(geometric_program(0.5))
        target = Interval(-0.5, 0.5)
        shallow = model.probability(target, AnalysisOptions(max_fixpoint_depth=3))
        deep = model.probability(target, AnalysisOptions(max_fixpoint_depth=10))
        assert deep.width <= shallow.width + 1e-12


class TestDiscreteAgreement:
    """Table 2 consistency: tight bounds equal to exact enumeration."""

    @pytest.mark.parametrize("case", discrete_suite(), ids=lambda bm: bm.name)
    def test_bounds_agree_with_enumeration(self, case):
        model = Model(case.program)
        exact = model.exact().probability_of(case.query_target)
        query = model.probability(case.query_target)
        assert query.contains(exact, slack=1e-6)
        assert query.width < 1e-6


class TestHistograms:
    def test_histogram_bounds_cover_posterior(self):
        model = Model(simple_observe_model(), AnalysisOptions(score_splits=64))
        histogram = model.histogram(0.0, 3.0, 6)
        assert len(histogram.buckets) == 6
        assert histogram.z_lower <= histogram.z_upper
        lower_mass, upper_mass = histogram.covered_mass_bounds()
        assert lower_mass <= 1.0 + 1e-9
        assert upper_mass >= 0.99  # nearly all posterior mass lies in [0, 3]

    def test_histogram_validates_correct_sampler(self, rng):
        model = Model(simple_observe_model(), AnalysisOptions(score_splits=64))
        histogram = model.histogram(0.0, 3.0, 6)
        is_result = model.sample(20_000, method="importance", rng=rng)
        samples = is_result.resample(10_000, rng)
        report = histogram.validate_samples(samples, tolerance=0.02)
        assert report.consistent

    def test_histogram_flags_wrong_sampler(self, rng):
        model = Model(simple_observe_model(), AnalysisOptions(score_splits=64))
        histogram = model.histogram(0.0, 3.0, 6)
        wrong_samples = rng.uniform(2.0, 3.0, size=5_000)  # mass far from the posterior
        report = histogram.validate_samples(wrong_samples, tolerance=0.02)
        assert not report.consistent
        assert report.violations > 0
        assert report.details

    def test_histogram_normalised_density(self):
        histogram = Model(b.sample()).histogram(0.0, 1.0, 4)
        densities = histogram.normalised_density_bounds()
        for lower, upper in densities:
            assert lower <= 1.0 + 1e-9 <= upper + 1e-6

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            Model(b.sample()).histogram(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            Model(b.sample()).histogram(1.0, 0.0, 4)

    @pytest.mark.parametrize(
        "low,high",
        [(-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0), (-1e308, 1e308)],
    )
    def test_non_finite_range_rejected(self, low, high):
        # Infinite ends (or an overflowing width) used to reach the bucket
        # edges as inf * 0 = NaN and fail with a misleading Interval error.
        with pytest.raises(ValueError, match="histogram range"):
            histogram_buckets(low, high, 2)

    @pytest.mark.parametrize(
        "low,high,count", [(-0.10616724739521999, 6.243141478867736, 3), (0.0, 3.0, 6)]
    )
    def test_buckets_tile_the_range(self, low, high, count):
        # low + (high - low) * n / n rounds off high for the first range.
        buckets = histogram_buckets(low, high, count)
        assert len(buckets) == count
        assert buckets[0].lo == low
        assert buckets[-1].hi == high
        for left, right in zip(buckets, buckets[1:]):
            assert left.hi == right.lo

    def test_empty_validation_report(self):
        histogram = Model(b.sample()).histogram(0.0, 1.0, 4)
        report = histogram.validate_samples([])
        assert report.checked == 0
        assert report.consistent
